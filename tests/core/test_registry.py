"""Tests for the solver registry: dispatch, aliases, docstring policy.

``make lint`` and CI run this module; the docstring-enforcement tests
are what "fail the build on registry entries without docstrings" means
in practice.
"""

from pathlib import Path

import pytest

from repro.circuits import c1355_like
from repro.core import (build_problem, registry, solve, solve_heuristic,
                        solve_single_bb)
from repro.core.registry import SolverRegistry
from repro.errors import RegistryError
from repro.placement import place_design
from repro.synth import map_netlist, size_for_load
from repro.tech import characterize_library, reduced_library

EXPECTED_ENTRIES = ("heuristic:level-sweep", "heuristic:row-descent",
                    "ilp:branch_bound", "ilp:highs", "single_bb")
EXPECTED_ALIASES = ("heuristic", "ilp", "ilp:bnb")

LIBRARY = reduced_library()
CLIB = characterize_library(LIBRARY)


@pytest.fixture(scope="module")
def problem_tiny():
    mapped = map_netlist(c1355_like(data_width=4, check_bits=2), LIBRARY)
    size_for_load(mapped, LIBRARY)
    placed = place_design(mapped, LIBRARY)
    return build_problem(placed, CLIB, beta=0.05)


class TestRegistryContents:
    def test_expected_entries_registered(self):
        assert registry.names() == EXPECTED_ENTRIES

    def test_aliases_resolve_to_entries(self):
        for alias in EXPECTED_ALIASES:
            assert registry.get(alias).name in EXPECTED_ENTRIES
        assert registry.get("ilp").name == "ilp:highs"
        assert registry.get("heuristic").name == "heuristic:row-descent"
        assert registry.get("ilp:bnb").name == "ilp:branch_bound"

    def test_names_can_include_aliases(self):
        with_aliases = registry.names(include_aliases=True)
        assert set(EXPECTED_ALIASES) <= set(with_aliases)

    def test_every_entry_has_docstring(self):
        """The build-breaking policy: no undocumented solver entries.
        Statically enforced by the ``registry-docstring`` checker of
        :mod:`repro.lint` (this wrapper runs it over the solver
        package); the summary line stays a runtime assertion."""
        from repro.lint import lint_paths
        src = Path(__file__).resolve().parents[2] / "src"
        findings = lint_paths([src / "repro" / "core"],
                              rules=["registry-docstring"], root=src)
        assert not findings, "\n".join(f.format() for f in findings)
        for entry in registry.entries():
            doc = (entry.func.__doc__ or "").strip()
            assert doc, f"registry entry {entry.name!r} has no docstring"
            assert entry.summary == doc.splitlines()[0].strip()

    def test_unknown_method_lists_alternatives(self, problem_tiny):
        with pytest.raises(RegistryError, match="heuristic:row-descent"):
            solve(problem_tiny, "annealing")


class TestRegistryPolicy:
    def test_undocumented_entry_rejected(self):
        fresh = SolverRegistry()

        def undocumented(problem, clusters):
            pass

        with pytest.raises(RegistryError, match="docstring"):
            fresh.register("mystery", undocumented)

    def test_duplicate_registration_rejected(self):
        fresh = SolverRegistry()

        @fresh.register("one")
        def first(problem, clusters):
            """A documented solver."""

        with pytest.raises(RegistryError, match="already registered"):
            fresh.register("one", first)

    def test_alias_to_unknown_target_rejected(self):
        fresh = SolverRegistry()
        with pytest.raises(RegistryError, match="not a registered"):
            fresh.alias("fast", "nonexistent")

    def test_alias_shadowing_entry_rejected(self):
        fresh = SolverRegistry()

        @fresh.register("one")
        def first(problem, clusters):
            """A documented solver."""

        with pytest.raises(RegistryError, match="already registered"):
            fresh.alias("one", "one")


class TestRegistryDispatch:
    def test_heuristic_matches_direct_call(self, problem_tiny):
        via_registry = solve(problem_tiny, "heuristic:row-descent", 3)
        direct = solve_heuristic(problem_tiny, 3, strategy="row-descent")
        assert via_registry.levels == direct.levels
        assert via_registry.leakage_nw == direct.leakage_nw

    def test_single_bb_matches_direct_call(self, problem_tiny):
        via_registry = solve(problem_tiny, "single_bb")
        direct = solve_single_bb(problem_tiny)
        assert via_registry.levels == direct.levels

    def test_single_bb_ignores_cluster_budget(self, problem_tiny):
        assert (solve(problem_tiny, "single_bb", clusters=5).levels
                == solve(problem_tiny, "single_bb", clusters=1).levels)

    def test_ilp_backends_agree_on_tiny_problem(self, problem_tiny):
        highs = solve(problem_tiny, "ilp:highs", 2)
        bnb = solve(problem_tiny, "ilp:branch_bound", 2, time_limit_s=120)
        assert bnb.method == "ilp-branch_bound"
        assert highs.leakage_nw == pytest.approx(bnb.leakage_nw, rel=1e-6)

    def test_heuristic_ranking_opt_forwarded(self, problem_tiny):
        gate_count = solve(problem_tiny, "heuristic", 3,
                           ranking="gate-count")
        assert "gate-count" in gate_count.method
