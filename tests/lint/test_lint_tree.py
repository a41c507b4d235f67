"""Tree-level lint tests: the shipped repo is contract-clean.

The paper reproduction's guarantees (determinism, hash stability,
base-unit naming, documented registries, paper anchors) are enforced
statically by ``python -m repro.lint``; this module asserts that the
tree as shipped passes, that the CLI front ends agree on exit codes
and JSON shape, and that the RunSpec hash-fate declarations stay
exhaustive at runtime.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import EXECUTION_KNOBS, HASHED_FIELDS, RunSpec
from repro.lint import checker_registry, lint_paths, load_builtin_checkers
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

LINT_TARGETS = [REPO_ROOT / name
                for name in ("src", "tests", "benchmarks", "examples")]


def test_shipped_tree_is_lint_clean():
    """The tree ships with zero findings — the same self-check that
    ``make lint`` and CI gate on."""
    findings = lint_paths(LINT_TARGETS, root=REPO_ROOT)
    assert not findings, "\n".join(f.format() for f in findings)


def test_all_six_rules_registered():
    load_builtin_checkers()
    assert checker_registry.names() == (
        "async-blocking", "determinism", "hash-stability",
        "paper-anchor", "registry-docstring", "units-suffix")


def test_runspec_hash_fate_declarations_are_exhaustive():
    """Every RunSpec field appears in exactly one of HASHED_FIELDS /
    EXECUTION_KNOBS — the runtime mirror of the hash-stability rule."""
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    assert set(HASHED_FIELDS) | set(EXECUTION_KNOBS) == fields
    assert not set(HASHED_FIELDS) & set(EXECUTION_KNOBS)


def test_execution_knobs_do_not_perturb_the_hash():
    base = RunSpec(kind="population", design="c1355", seed=7)
    for knob, value in (("workers", 4), ("tuning_engine", "serial")):
        assert dataclasses.replace(base, **{knob: value}).spec_hash() \
            == base.spec_hash()


class TestCli:
    def test_module_cli_clean_exit(self):
        assert lint_main([str(path) for path in LINT_TARGETS]) == 0

    def test_module_cli_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir()
        bad.write_text('"""No anchor here."""\n')
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[paper-anchor]" in out

    def test_module_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        assert lint_main(["--format", "json", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == len(report["findings"]) >= 1
        assert report["files_scanned"] == 1
        assert {"path", "line", "rule", "message"} \
            <= set(report["findings"][0])

    def test_module_cli_rule_selection(self, tmp_path):
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir()
        bad.write_text('"""No anchor here."""\n')
        assert lint_main(["--rule", "determinism", str(bad)]) == 0
        assert lint_main(["--rule", "paper-anchor", str(bad)]) == 1

    def test_missing_target_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            lint_main(["--rule", "no-such-rule", "src"])

    def test_repro_fbb_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as fbb_main
        assert fbb_main(["lint", str(REPO_ROOT / "src")]) == 0
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir()
        bad.write_text('"""No anchor here."""\n')
        assert fbb_main(["lint", str(bad)]) == 1
        assert fbb_main(["lint", "--format", "json", str(bad)]) == 1
        capsys.readouterr()

    def test_repro_fbb_lint_unknown_rule_is_usage_error(self):
        from repro.cli import main as fbb_main
        assert fbb_main(["lint", "--rule", "no-such-rule",
                         str(REPO_ROOT / "src")]) == 2
