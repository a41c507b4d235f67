"""Docs consistency: the documentation layer is executable and checked.

The seed shipped docstrings citing a DESIGN.md that did not exist; this
suite (also wired up as ``make docs-check`` and CI's docs job) keeps
the documentation honest four ways:

* every markdown document and repo path referenced anywhere must exist
  (dangling-reference check across code and docs);
* TUTORIAL.md is *executed*: its Python blocks run in order in one
  namespace, and its ``repro-fbb`` command lines are validated against
  the real CLI parser — symbols, files and flags cannot drift;
* the user-facing documents must keep naming the public API, parallel
  and spatial layers they document (section-presence checks);
* every module under ``src/repro`` must carry a docstring naming its
  paper anchor (Sec./Fig./Table/Eq. or an explicit paper mention), the
  ``make lint`` policy extended beyond the solver registry.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ensure_src_on_path():
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

#: uppercase-named markdown docs (DESIGN.md, README.md, ...) cited in
#: code or other docs; lowercase .md names are left alone (they are
#: usually external or illustrative)
MARKDOWN_REFERENCE = re.compile(r"\b([A-Z][A-Za-z0-9_-]*\.md)\b")

SCAN_DIRECTORIES = ("src", "tests", "examples", "benchmarks")


def iter_markdown_references():
    paths = [path
             for directory in SCAN_DIRECTORIES
             for path in sorted((REPO_ROOT / directory).rglob("*.py"))]
    paths += sorted(REPO_ROOT.glob("*.md"))
    paths += sorted(REPO_ROOT.glob("*.py"))
    for path in paths:
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in MARKDOWN_REFERENCE.finditer(text):
            yield path.relative_to(REPO_ROOT), match.group(1)


def test_referenced_markdown_docs_exist():
    missing = sorted({
        f"{source}: references missing {name}"
        for source, name in iter_markdown_references()
        if not (REPO_ROOT / name).is_file()})
    assert not missing, "\n".join(missing)


def test_core_docs_present():
    """The documentation layer the docstrings rely on must ship."""
    for name in ("README.md", "DESIGN.md", "ROADMAP.md"):
        assert (REPO_ROOT / name).is_file(), f"{name} is missing"


#: public names of the repro.api layer that README.md and DESIGN.md
#: must document (ISSUE 2's API section)
API_DOC_NAMES = ("repro.api", "RunSpec", "RunResult", "ArtifactCache",
                 "solver registry", "repro-fbb sweep")


def test_api_layer_documented():
    """The facade's names must appear in both user-facing documents."""
    missing = []
    for doc in ("README.md", "DESIGN.md"):
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for name in API_DOC_NAMES:
            if name not in text:
                missing.append(f"{doc}: does not mention {name!r}")
    assert not missing, "\n".join(missing)


#: names of the parallel execution layer that DESIGN.md's "Parallel
#: execution" section must pin down (ISSUE 3)
PARALLEL_DOC_NAMES = ("Parallel execution", "workers", "ProcessPool",
                      "os.replace", "tune_population",
                      "flow/parallel.py")


def test_parallel_execution_documented():
    """DESIGN.md must describe the worker/cache topology and the
    determinism contract of the parallel engine."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in PARALLEL_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_parallel_bench_artifact_documented():
    """EXPERIMENTS.md must track the parallel speedup benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_parallel.py", "out/parallel.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


def test_documented_solver_methods_exist():
    """Every method name DESIGN.md's API section lists must be
    registered, so the docs cannot drift from the registry."""
    _ensure_src_on_path()
    from repro.core import registry
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    documented = set(re.findall(
        r"`((?:ilp|heuristic):[a-z_-]+|single_bb)`", text))
    assert documented, "DESIGN.md lists no solver-registry methods"
    registered = set(registry.names(include_aliases=True))
    assert documented <= registered, (
        f"DESIGN.md documents unregistered methods: "
        f"{sorted(documented - registered)}")


#: names of the spatial compensation layer that DESIGN.md's "Spatial
#: compensation" section must pin down (ISSUE 4)
SPATIAL_DOC_NAMES = ("Spatial compensation", "SpatialSensorGrid",
                     "correlation_length_fraction", "soc_quad",
                     "row_betas", "replica_sensor_grid",
                     "bench_spatial.py", "repro-fbb spatial")


def test_spatial_compensation_documented():
    """DESIGN.md must describe the sensing topology, the per-row beta
    vector contract and the spatial determinism contract."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in SPATIAL_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_spatial_bench_artifact_documented():
    """EXPERIMENTS.md must track the spatial compensation benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_spatial.py", "out/spatial.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


def test_readme_maps_every_package():
    """README.md's architecture map must name all src/repro packages."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    packages = sorted(
        path.name for path in (REPO_ROOT / "src" / "repro").iterdir()
        if path.is_dir() and (path / "__init__.py").is_file())
    assert len(packages) >= 14
    missing = [name for name in packages if f"`{name}/`" not in text]
    assert not missing, f"README.md package map misses: {missing}"


#: names of the bias-domain grouping layer that DESIGN.md's
#: "Bias-domain grouping" section must pin down (ISSUE 5)
GROUPING_DOC_NAMES = ("Bias-domain grouping", "RowGrouping",
                      "solve_grouped", "reduce_problem", "num_domains",
                      "bench_grouping.py", "--grouping",
                      "group_betas", "cache_material")


def test_bias_domain_grouping_documented():
    """DESIGN.md must describe the grouping abstraction, the exact
    reduction, the identity bit-identity/hash-stability contract and
    the sensor mapping."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in GROUPING_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_documented_grouping_strategies_exist():
    """Every grouping strategy DESIGN.md names must be registered, and
    every registered strategy must be documented there."""
    _ensure_src_on_path()
    from repro.grouping import grouping_registry
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for name in grouping_registry.names():
        assert f"`{name}" in text, (
            f"DESIGN.md does not document grouping strategy {name!r}")


def test_grouping_bench_artifact_documented():
    """EXPERIMENTS.md must track the grouping benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_grouping.py", "out/grouping.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


#: names of the batched calibration layer that DESIGN.md's "Batched
#: calibration" section must pin down: the production engine, its
#: serial reference arm and the knob that selects between them
BATCHED_DOC_NAMES = ("Batched calibration", "engine=\"serial\"",
                     "tuning_engine", "initial_sensor_estimate",
                     "refine", "DEFAULT_REFINE_FALLBACK",
                     "bench_tuning_throughput.py",
                     "--tuning-engine serial")


def test_batched_calibration_documented():
    """DESIGN.md must describe the pass topology, the dedup-by-estimate
    cache, the dirty-cone invariant and the determinism contract of the
    batched calibration engine."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in BATCHED_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_batched_bench_artifact_documented():
    """EXPERIMENTS.md must track the batched calibration benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_tuning_throughput.py",
                 "out/tuning_throughput.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


#: names of the serving layer that DESIGN.md's "Serving layer"
#: section must pin down (ISSUE 8)
SERVE_DOC_NAMES = ("Serving layer", "ExecutionEngine", "single-flight",
                   "spec_hash", "POST /run", "GET /stats",
                   "repro-fbb serve", "repro-fbb cache",
                   "flow/executor.py", "bench_serve.py",
                   "async-blocking")


def test_serving_layer_documented():
    """DESIGN.md must describe the execution core, the single-flight
    contract, the drain semantics and the service endpoints."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in SERVE_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_serve_bench_artifact_documented():
    """EXPERIMENTS.md must track the allocation-service benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_serve.py", "out/serve.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


#: names of the temporal-scenario layer that DESIGN.md's "Temporal
#: scenarios" section must pin down (ISSUE 9)
TEMPORAL_DOC_NAMES = ("Temporal scenarios", "DriftModel",
                      "run_lifetime", "TuningController.allocations",
                      "Cross-epoch allocation reuse",
                      "default_rng([seed, epoch])",
                      "initial_sensor_estimate",
                      "scales_out", "cadence", "yield_curve",
                      "bench_aging.py", "repro-fbb lifetime")


def test_temporal_scenarios_documented():
    """DESIGN.md must describe the drift process's determinism
    contract, the lifetime loop and its cross-epoch reuse of the
    controller's allocations."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in TEMPORAL_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_aging_bench_artifact_documented():
    """EXPERIMENTS.md must track the lifetime allocation-reuse
    benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_aging.py", "out/aging.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


#: names of the annealing-placement layer that DESIGN.md's "Annealing
#: placement" section must pin down (ISSUE 10)
PLACER_DOC_NAMES = ("Annealing placement", "HpwlKernel", "MoveBatch",
                    "delta_hpwl", "delta_hpwl_scalar", "first_claim",
                    "AnnealConfig", "anneal:default", "lambda_scale",
                    "total_hpwl", "refine_design", "cache_material",
                    "bench_placer.py", "repro-fbb place", "--placer")


def test_annealing_placement_documented():
    """DESIGN.md must describe the cost model, the batched-move
    vectorization and its scalar equivalence oracle, and the seeded
    determinism contract of the annealing placer."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    missing = [name for name in PLACER_DOC_NAMES if name not in text]
    assert not missing, f"DESIGN.md does not mention: {missing}"


def test_documented_placers_exist():
    """Every placer name DESIGN.md lists must be registered, and every
    registered placer must be documented there."""
    _ensure_src_on_path()
    from repro.placement.registry import place_registry
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for name in place_registry.names(include_aliases=True):
        assert f"`{name}" in text, (
            f"DESIGN.md does not document placer {name!r}")


def test_placer_bench_artifact_documented():
    """EXPERIMENTS.md must track the annealing-placer benchmark."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in ("bench_placer.py", "out/placer.txt"):
        assert name in text, f"EXPERIMENTS.md does not mention {name}"


def test_tutorial_shows_annealing_placer():
    """TUTORIAL.md must carry the annealing walkthrough (the Python
    block is executed, the CLI lines parser-validated)."""
    text = (REPO_ROOT / "TUTORIAL.md").read_text(encoding="utf-8")
    assert 'placer="anneal:quick"' in text
    assert "repro-fbb place" in text
    assert "--placer" in text


def test_tutorial_shows_lifetime():
    """TUTORIAL.md must carry the lifetime walkthrough (the Python
    block is executed, the CLI lines parser-validated)."""
    text = (REPO_ROOT / "TUTORIAL.md").read_text(encoding="utf-8")
    assert "run_lifetime" in text
    assert "DriftModel" in text
    assert "repro-fbb lifetime" in text


def test_tutorial_shows_serving_layer():
    """TUTORIAL.md must carry the serving walkthrough (the
    ServerThread block is executed, the CLI lines parser-validated)."""
    text = (REPO_ROOT / "TUTORIAL.md").read_text(encoding="utf-8")
    assert "ServerThread" in text
    assert "repro-fbb serve" in text
    assert "repro-fbb cache" in text


def test_tutorial_shows_batched_engine():
    """TUTORIAL.md must carry the batched-calibration walkthrough (the
    Python block is executed, the CLI line parser-validated)."""
    text = (REPO_ROOT / "TUTORIAL.md").read_text(encoding="utf-8")
    assert 'engine="serial"' in text
    assert "--tuning-engine serial" in text


def test_tutorial_shows_grouping_flag():
    """TUTORIAL.md must carry the --grouping bands:8 walkthrough (the
    CLI line is parser-validated by test_tutorial_cli_lines_parse)."""
    text = (REPO_ROOT / "TUTORIAL.md").read_text(encoding="utf-8")
    assert "--grouping bands:8" in text
    assert "solve_grouped" in text


# -- TUTORIAL.md: executable documentation ---------------------------------

def _fenced_blocks(language: str) -> list[str]:
    text = (REPO_ROOT / "TUTORIAL.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def test_tutorial_python_blocks_execute_in_order():
    """Every Python block in TUTORIAL.md runs (shared namespace), so
    each referenced symbol and each asserted behaviour is guarded."""
    _ensure_src_on_path()
    blocks = _fenced_blocks("python")
    assert len(blocks) >= 8, "TUTORIAL.md lost its walkthrough blocks"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        code = compile(block, f"TUTORIAL.md:python-block-{index}", "exec")
        exec(code, namespace)  # noqa: S102 - executable documentation


def test_tutorial_cli_lines_parse():
    """Every `repro-fbb` line in TUTORIAL.md must name a real
    subcommand and only real flags of that subcommand."""
    _ensure_src_on_path()
    from repro.cli import build_parser
    parser = build_parser()
    subactions = next(
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices)
    commands = []
    for block in _fenced_blocks("sh"):
        text = block.replace("\\\n", " ")
        commands += [line.strip() for line in text.splitlines()
                     if line.strip().startswith("repro-fbb")]
    assert commands, "TUTORIAL.md lost its CLI examples"
    for command in commands:
        tokens = command.split()[1:]
        subcommand, rest = tokens[0], tokens[1:]
        assert subcommand in subactions.choices, (
            f"TUTORIAL.md references unknown subcommand: {command}")
        known_flags = set(
            subactions.choices[subcommand]._option_string_actions)
        used_flags = [token for token in rest if token.startswith("--")]
        unknown = [flag for flag in used_flags if flag not in known_flags]
        assert not unknown, (
            f"TUTORIAL.md uses unknown flags {unknown} in: {command}")


# -- cross-document references ---------------------------------------------

#: the documents whose internal references must resolve
CROSS_REF_DOCS = ("README.md", "DESIGN.md", "TUTORIAL.md",
                  "EXPERIMENTS.md", "CHANGES.md", "ROADMAP.md")

#: backticked repo paths, e.g. `src/repro/flow/parallel.py`
PATH_REFERENCE = re.compile(
    r"`((?:src|tests|benchmarks|examples)/[\w./-]+\.(?:py|md|txt))`")

#: markdown links [text](target)
LINK_REFERENCE = re.compile(r"\[[^\]]+\]\(([^)#][^)]*)\)")


def test_cross_document_references_resolve():
    """No dangling markdown links or backticked repo paths across the
    root documents (benchmarks/out artefacts are generated, exempt)."""
    missing = []
    for doc in CROSS_REF_DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        references = set(PATH_REFERENCE.findall(text))
        references |= {target for target in LINK_REFERENCE.findall(text)
                       if "://" not in target}
        for reference in sorted(references):
            if reference.startswith("benchmarks/out/"):
                continue
            if not (REPO_ROOT / reference).exists():
                missing.append(f"{doc}: dangling reference {reference}")
    assert not missing, "\n".join(missing)


# -- module docstring policy (make lint, beyond the registry) --------------

def test_every_module_docstring_names_its_paper_anchor():
    """Every public module under src/repro carries a module docstring
    that names its paper anchor — the policy now lives in the
    ``paper-anchor`` checker of :mod:`repro.lint`; this test is the
    thin tier-1 wrapper that keeps it in the default suite."""
    _ensure_src_on_path()
    from repro.lint import lint_paths
    findings = lint_paths([REPO_ROOT / "src"], rules=["paper-anchor"],
                          root=REPO_ROOT)
    assert not findings, "\n".join(f.format() for f in findings)
