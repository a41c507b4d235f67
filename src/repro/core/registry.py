"""Solver registry: every allocation method behind one ``solve()`` call.

The paper compares three method families — the Single-BB baseline, the
exact ILP (Sec. 4.2) and the two-pass heuristic (Sec. 4.3) — and the
code grew one ad-hoc entry point per family (``solve_single_bb``,
``solve_ilp``, ``solve_heuristic``).  This module puts them behind a
single dispatch table so the flow layer, the tuning controller and the
``repro.api`` facade name methods declaratively (``"ilp:highs"``,
``"heuristic:row-descent"``) and new allocation strategies plug in
without touching any caller:

    from repro.core.registry import solve
    solution = solve(problem, "heuristic:level-sweep", clusters=3)

Registered entries (aliases in parentheses):

* ``single_bb`` — block-level uniform FBB, the Table 1 baseline;
* ``ilp:highs`` (``ilp``) — exact ILP via scipy's HiGHS MILP;
* ``ilp:branch_bound`` (``ilp:bnb``) — from-scratch branch & bound over
  scipy LP relaxations;
* ``heuristic:row-descent`` (``heuristic``) — greedy per-row descent;
* ``heuristic:level-sweep`` — the literal Fig. 5 reading.

Every entry must carry a docstring — registration fails without one,
and ``make lint`` / CI enforce it via ``tests/core/test_registry.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.heuristic import STRATEGIES, solve_heuristic
from repro.core.ilp_alloc import solve_ilp
from repro.core.problem import FBBProblem
from repro.core.single_bb import solve_single_bb
from repro.core.solution import BiasSolution
from repro.errors import RegistryError

SolverFunc = Callable[..., BiasSolution]


@dataclass(frozen=True)
class SolverEntry:
    """One registered allocation method."""

    name: str
    func: SolverFunc
    summary: str
    """First docstring line, shown in CLI/API listings."""


class SolverRegistry:
    """Name -> solver dispatch table with alias support.

    Entries are callables ``func(problem, clusters, **opts) ->
    BiasSolution``.  Registration enforces a non-empty docstring so the
    registry doubles as user-facing documentation of the method space.
    """

    def __init__(self) -> None:
        self._entries: dict[str, SolverEntry] = {}
        self._aliases: dict[str, str] = {}

    def register(self, name: str,
                 func: SolverFunc | None = None) -> SolverFunc:
        """Register a solver (usable as a decorator)."""
        if func is None:
            return lambda f: self.register(name, f)
        if name in self._entries or name in self._aliases:
            raise RegistryError(f"solver {name!r} is already registered")
        doc = (func.__doc__ or "").strip()
        if not doc:
            raise RegistryError(
                f"solver {name!r} has no docstring; every registry entry "
                "must document its method")
        summary = doc.splitlines()[0].strip()
        self._entries[name] = SolverEntry(name=name, func=func,
                                          summary=summary)
        return func

    def alias(self, alias: str, target: str) -> None:
        """Register ``alias`` as another name for entry ``target``."""
        if alias in self._entries or alias in self._aliases:
            raise RegistryError(f"solver {alias!r} is already registered")
        if target not in self._entries:
            raise RegistryError(
                f"alias target {target!r} is not a registered solver")
        self._aliases[alias] = target

    def get(self, method: str) -> SolverEntry:
        """Resolve a method name (or alias) to its entry."""
        name = self._aliases.get(method, method)
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown solver {method!r}; registered methods: "
                f"{', '.join(self.names())}") from None

    def names(self, include_aliases: bool = False) -> tuple[str, ...]:
        """Registered method names, sorted."""
        names = set(self._entries)
        if include_aliases:
            names |= set(self._aliases)
        return tuple(sorted(names))

    def entries(self) -> tuple[SolverEntry, ...]:
        """All registered entries, sorted by name."""
        return tuple(self._entries[name] for name in sorted(self._entries))

    def solve(self, problem: FBBProblem, method: str = "heuristic",
              clusters: int = 3, **opts) -> BiasSolution:
        """Dispatch one allocation run to the named method."""
        return self.get(method).func(problem, clusters, **opts)


registry = SolverRegistry()
"""The process-wide default registry, pre-loaded with the paper's
methods below."""


def solve(problem: FBBProblem, method: str = "heuristic",
          clusters: int = 3, **opts) -> BiasSolution:
    """Solve an allocation problem via the default registry."""
    return registry.solve(problem, method, clusters, **opts)


@registry.register("single_bb")
def _solve_single_bb(problem: FBBProblem, clusters: int = 1,
                     **_opts) -> BiasSolution:
    """Block-level uniform FBB (PassOne): the paper's Single BB baseline.

    The cluster budget is ignored — the whole block is one cluster by
    definition.
    """
    return solve_single_bb(problem)


def _make_ilp_entry(backend: str) -> SolverFunc:
    def entry(problem: FBBProblem, clusters: int = 3,
              time_limit_s: float | None = 120.0) -> BiasSolution:
        return solve_ilp(problem, clusters, backend=backend,
                         time_limit_s=time_limit_s)
    entry.__name__ = f"solve_ilp_{backend}"
    entry.__doc__ = (
        f"Exact Sec. 4.2 ILP via the {backend!r} MILP backend.\n\n"
        "Accepts ``time_limit_s`` (None disables the limit); raises\n"
        "TimeoutError_ when the budget is exhausted, mirroring the\n"
        "paper's non-convergence on the largest designs.")
    return entry


def _make_heuristic_entry(strategy: str) -> SolverFunc:
    def entry(problem: FBBProblem, clusters: int = 3,
              ranking: str = "inverse-slack") -> BiasSolution:
        return solve_heuristic(problem, clusters, strategy=strategy,
                               ranking=ranking)
    entry.__name__ = f"solve_heuristic_{strategy.replace('-', '_')}"
    entry.__doc__ = (
        f"Two-pass Fig. 5 heuristic, {strategy!r} PassTwo variant.\n\n"
        "Accepts ``ranking`` ('inverse-slack' — the paper's ct_i — or\n"
        "'gate-count' for the ablation variant).")
    return entry


for _backend in ("highs", "branch_bound"):
    registry.register(f"ilp:{_backend}", _make_ilp_entry(_backend))
for _strategy in STRATEGIES:
    registry.register(f"heuristic:{_strategy}",
                      _make_heuristic_entry(_strategy))

registry.alias("ilp", "ilp:highs")
registry.alias("ilp:bnb", "ilp:branch_bound")
registry.alias("heuristic", "heuristic:row-descent")
