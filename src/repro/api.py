"""Unified experiment facade: declarative ``RunSpec`` in, ``RunResult`` out.

Every experiment in the reproduction — a single allocation run, one
(design, beta) row of the paper's Table 1, a Monte Carlo die-population
study — is a pure function of a small declarative spec: the design, the
slowdown, the solver method, the cluster budget, the seed, the STA
engine and the technology knobs.  This module makes that literal:

    from repro.api import RunSpec, run

    spec = RunSpec(kind="allocate", design="c1355", beta=0.05,
                   method="heuristic:row-descent", clusters=3)
    result = run(spec)
    print(result.payload["savings_pct"])
    replay = RunSpec.from_json(spec.to_json())     # identical spec

Specs and results are frozen, JSON-(de)serializable and
schema-versioned; ``RunResult.from_json(result.to_json())`` round-trips
bit-identically.  ``run()`` memoizes results in the content-addressed
:class:`~repro.flow.cache.ArtifactCache` keyed on the spec hash, so
re-running a sweep is free and the hit/miss counters show exactly what
was reused.  Solver methods are names in the
:mod:`repro.core.registry` solver registry (``single_bb``,
``ilp:highs``, ``ilp:branch_bound``, ``heuristic:row-descent``,
``heuristic:level-sweep`` plus aliases), so
new allocation strategies become available here without code changes.
Allocation *granularity* is a spec axis too: ``grouping="bands:8"``
solves at eight bias domains through :mod:`repro.grouping` (the
``"identity"`` default keeps per-row allocation, bit-identical in
results and content hash to specs predating the field).  So is the
placement engine: ``placer="anneal:default"`` implements the design
with the bias-domain-aware annealer of :mod:`repro.placement.anneal`
(the ``"bfs"`` default is likewise hash-elided).

The ``repro-fbb sweep`` CLI subcommand is the batch interface over this
module: a JSON list of RunSpecs in, one JSONL RunResult per line out.
Batches scale across cores: ``run_many(specs, workers=N)`` fans the
specs out over a process pool (specs are frozen, JSON-serializable and
content-hashed, so they ship to workers as-is and payloads merge back
into the shared cache), with results identical to the serial path; see
``repro/flow/executor.py`` and DESIGN.md, "Parallel execution".
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.problem import build_problem
from repro.core.registry import registry
from repro.core.single_bb import solve_single_bb
from repro.errors import GroupingError, RegistryError, SpecError
from repro.flow.cache import (ArtifactCache, canonical_json, content_hash,
                              default_cache)
from repro.flow.design_flow import FlowResult, implement
from repro.flow.experiment import (LifetimeRow, PopulationRow, SpatialRow,
                                   Table1Row, run_design_beta,
                                   run_lifetime_study, run_population,
                                   run_spatial)
from repro.flow.parallel import SpecFailure
from repro.grouping import solve_grouped, validate_grouping_spec
from repro.placement.registry import validate_placer_spec
from repro.tech.technology import BodyBiasRules, Technology
from repro.tuning.lifetime import LIFETIME_MODES
from repro.tuning.population import TUNING_ENGINES
from repro.variation.aging import NbtiModel
from repro.variation.drift import DriftModel
from repro.variation.process import ProcessModel

SCHEMA_VERSION = 1
"""Serialization schema of RunSpec/RunResult; bumped on breaking change."""

RUN_KINDS = ("allocate", "table1", "population", "spatial", "lifetime")

EXECUTION_KNOBS = ("workers", "tuning_engine")
"""RunSpec fields that choose *how* a run executes, never *what* it
computes: results are bit-identical for every value, so they are
excluded from :meth:`RunSpec.cache_material` and do not perturb the
content address.  The ``hash-stability`` lint rule requires every
RunSpec field to appear here or in :data:`HASHED_FIELDS` — adding a
field without declaring its hash fate is a lint failure."""

HASHED_FIELDS = (
    "kind", "design", "beta", "method", "clusters", "cluster_budgets",
    "ilp_backend", "ilp_time_limit_s", "skip_ilp_above_rows", "seed",
    "num_dies", "engine", "tune", "beta_budget", "utilization",
    "grouping", "num_regions", "process", "tech", "epochs", "cadence",
    "drift", "mode", "placer", "schema_version",
)
"""RunSpec fields that participate in the content address: changing any
of them changes :meth:`RunSpec.spec_hash` and therefore misses the run
cache.  (``grouping`` is special-cased: its ``"identity"`` default is
elided from the material so spec hashes predating the field are
stable; the lifetime fields ``epochs``/``cadence``/``drift`` and the
``placer`` field elide their defaults the same way.)  Kept disjoint from
:data:`EXECUTION_KNOBS` and exhaustive over the dataclass fields, both
enforced by the ``hash-stability`` lint rule and ``tests/lint``."""


FINITE_FIELDS = ("beta", "beta_budget", "utilization", "ilp_time_limit_s",
                 "tech", "process", "drift")
"""RunSpec fields whose numbers (every numeric leaf of the override
dicts included) must be finite: a NaN slowdown would otherwise run and
report a zero-bias "solution", and NaN cannot be content-addressed."""


def _numeric_leaves(value: Any, path: str) -> Iterator[tuple[str, Any]]:
    """Every number inside ``value`` with its dotted path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _numeric_leaves(item, f"{path}[{index}]")
    elif isinstance(value, numbers.Real):
        yield path, value


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one experiment run.

    One spec fully determines one :class:`RunResult` (up to wall-clock
    runtime fields); unused knobs for a given ``kind`` keep their
    defaults and still participate in the content hash.
    """

    kind: str = "allocate"
    """"allocate" (one solver run), "table1" (one Table 1 row),
    "population" (one Monte Carlo die-population row), "spatial" (one
    spatial-vs-uniform compensation study row) or "lifetime" (one
    aging-and-re-calibration study row)."""

    design: str = "c1355"
    """Benchmark name accepted by :func:`repro.flow.implement`."""

    beta: float = 0.05
    """Slowdown coefficient (allocate/table1 kinds)."""

    method: str = "heuristic:row-descent"
    """Solver-registry method: the solver for ``allocate``; the
    heuristic strategy entry for ``table1`` (which runs every method
    family); the allocator the tuning controller calibrates with in
    ``population`` runs with ``tune=True``, ``lifetime`` runs and the
    spatial arm of ``spatial`` runs (the uniform arm always uses
    ``single_bb``).  An alias is kept as written, but the content
    address uses the registry name it resolves to."""

    clusters: int = 3
    """Cluster budget of allocate runs, and the tuning controller's
    rail budget in population, spatial and lifetime runs."""

    cluster_budgets: tuple[int, ...] = (2, 3)
    """Table 1 column budgets (table1 kind only)."""

    ilp_backend: str = "highs"
    """MILP backend for the table1 ILP columns (the registry entry
    ``ilp:<ilp_backend>``; aliases hash as the name they resolve to)."""

    ilp_time_limit_s: float | None = 120.0
    """Time limit of each ILP solve, seconds; a table1 ILP column that
    times out reports None (the paper's '-')."""
    skip_ilp_above_rows: int | None = None
    """Leave the table1 ILP columns empty for designs with more rows
    than this, as the paper reports no ILP results for its largest
    designs (None = always run the ILP)."""
    seed: int = 0
    """Monte Carlo sampling seed (population, spatial and lifetime
    kinds); a lifetime run draws its drift trajectory from it too."""

    num_dies: int = 1000
    """Die-population size (population, spatial and lifetime kinds)."""
    engine: str = "batched"
    """STA engine that measures the sampled population: "batched"
    (vectorized, the default) or "scalar" (the ground-truth engine)."""

    tune: bool = False
    """Run the closed calibration loop on every out-of-budget die
    (population kind)."""
    beta_budget: float = 0.0
    """Slowdown the timing spec absorbs unbiased (population, spatial
    and lifetime kinds): a die meets timing when its slowdown is at
    most this, and tuning targets Dcrit relaxed by that margin."""
    utilization: float = 0.75
    """Row utilization the design is placed at."""
    grouping: str = "identity"
    """Bias-domain grouping spec (DESIGN.md, "Bias-domain grouping"):
    ``"identity"`` allocates per row, bit-identical to specs predating
    the field; ``"bands:<k>"``, ``"correlation:<k>"`` and
    ``"community:<k>"`` solve at ``k`` bias domains.  It applies to the
    table1 ILP and heuristic columns (the Single BB baseline is
    granularity-free by definition) and to the tuning controller, in a
    spatial run only to the spatial arm (the uniform arm is
    single-voltage).  Part of the content address — except the
    ``"identity"`` default, which is omitted so existing spec hashes
    are unchanged."""
    num_regions: int = 4
    """Sensor-grid resolution of the spatial arm of spatial runs, and
    of lifetime runs with ``mode="spatial"``."""
    epochs: int = 8
    """Service-life epochs of a lifetime run (lifetime kind only)."""
    cadence: int = 1
    """Re-calibration cadence of a lifetime run: re-tune every
    ``cadence`` epochs (1 = every epoch, ``epochs`` = once at time
    zero).  Must not exceed ``epochs``."""
    drift: dict = field(default_factory=dict)
    """DriftModel field overrides for the lifetime aging process, e.g.
    ``{"activity_sigma_v": 0.002, "nbti": {"prefactor_v": 0.012}}``
    (the nested ``nbti`` value may be a dict of NbtiModel fields;
    empty = model defaults)."""
    mode: str = "model"
    """Lifetime re-calibration mode (lifetime kind only): ``"model"``
    senses each die as one scalar slowdown (the paper's die-wide
    derate), ``"spatial"`` re-tunes against the composed per-gate field
    through a ``num_regions`` sensor grid."""
    placer: str = "bfs"
    """Placement engine in the placer registry (DESIGN.md, "Annealing
    placement"): ``"bfs"`` is the deterministic serpentine default,
    bit-identical to specs predating the field; ``"anneal:<preset>"``
    anneals from the BFS seed with a bias-domain-aware cost.  Part of
    the content address — except the ``"bfs"`` default, which is
    omitted so existing spec hashes are unchanged."""
    process: dict = field(default_factory=dict)
    """ProcessModel field overrides for the sampled population, e.g.
    ``{"correlation_length_fraction": 0.25, "sigma_intra_v": 0.02}``
    (population, spatial and lifetime kinds; empty = model defaults).
    The correlation length is the spatial study's main axis."""
    workers: int = 1
    """Process-pool width for the run's internal fan-out (population
    and spatial tuning shard their slow dies across this many
    workers).  An execution knob, not an experiment input: it is
    excluded from the content address, and results are bit-identical
    for any value."""
    tuning_engine: str = "batched"
    """Calibration execution engine for tuned population runs:
    ``"batched"`` is the population-at-a-time engine (DESIGN.md,
    "Batched calibration"), ``"serial"`` the per-die reference loop.
    Like ``workers``, an execution knob with bit-identical results —
    excluded from the content address."""
    tech: dict = field(default_factory=dict)
    """Technology field overrides, e.g. ``{"vth0_n": 0.5}``; the nested
    ``bias_rules`` value may itself be a dict of BodyBiasRules fields."""

    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise SpecError(
                f"unknown run kind {self.kind!r}; choose from {RUN_KINDS}")
        if self.schema_version > SCHEMA_VERSION:
            raise SpecError(
                f"spec schema v{self.schema_version} is newer than this "
                f"library's v{SCHEMA_VERSION}")
        for name in FINITE_FIELDS:
            for path, value in _numeric_leaves(getattr(self, name), name):
                if not math.isfinite(value):
                    raise SpecError(f"{path} must be finite, got {value}")
        if self.beta < 0:
            raise SpecError(f"beta must be non-negative, got {self.beta}")
        if self.clusters < 1:
            raise SpecError(f"clusters must be >= 1, got {self.clusters}")
        if self.num_dies < 1:
            raise SpecError(f"num_dies must be >= 1, got {self.num_dies}")
        if self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if self.tuning_engine not in TUNING_ENGINES:
            raise SpecError(
                f"unknown tuning engine {self.tuning_engine!r}; choose "
                f"from {TUNING_ENGINES}")
        if self.num_regions < 1:
            raise SpecError(
                f"num_regions must be >= 1, got {self.num_regions}")
        if self.epochs < 1:
            raise SpecError(f"epochs must be >= 1, got {self.epochs}")
        if self.cadence < 1:
            raise SpecError(f"cadence must be >= 1, got {self.cadence}")
        if self.cadence > self.epochs:
            raise SpecError(
                f"cadence {self.cadence} exceeds the {self.epochs}-epoch "
                "lifetime: the controller would never re-calibrate")
        if self.mode not in LIFETIME_MODES:
            raise SpecError(
                f"unknown lifetime mode {self.mode!r}; choose from "
                f"{LIFETIME_MODES}")
        try:
            validate_grouping_spec(self.grouping)
        except GroupingError as exc:
            raise SpecError(
                f"bad grouping spec {self.grouping!r}: {exc}") from exc
        try:
            validate_placer_spec(self.placer)
        except RegistryError as exc:
            raise SpecError(
                f"bad placer spec {self.placer!r}: {exc}") from exc
        for name, method in (("method", self.method),
                             ("ilp_backend", f"ilp:{self.ilp_backend}")):
            try:
                registry.get(method)
            except RegistryError as exc:
                raise SpecError(
                    f"bad {name} {getattr(self, name)!r}: {exc}") from exc
        if (self.kind == "table1" and not registry.get(
                self.method).name.startswith("heuristic:")):
            raise SpecError(
                f"table1 runs all method families; `method` must name a "
                f"heuristic strategy entry, got {self.method!r}")
        object.__setattr__(self, "cluster_budgets",
                           tuple(int(c) for c in self.cluster_budgets))

    # -- derived objects --------------------------------------------------

    def technology(self) -> Technology:
        """Materialize the Technology with this spec's overrides."""
        overrides = dict(self.tech)
        rules = overrides.pop("bias_rules", None)
        if isinstance(rules, dict):
            overrides["bias_rules"] = BodyBiasRules(**rules)
        try:
            return Technology(**overrides)
        except TypeError as exc:
            raise SpecError(f"bad tech overrides {self.tech}: {exc}") from exc

    def process_model(self) -> ProcessModel | None:
        """Materialize the ProcessModel overrides (None when empty, so
        harnesses fall back to their default model)."""
        if not self.process:
            return None
        try:
            return ProcessModel(**self.process)
        except TypeError as exc:
            raise SpecError(
                f"bad process overrides {self.process}: {exc}") from exc

    def drift_model(self) -> DriftModel | None:
        """Materialize the DriftModel overrides (None when empty, so
        the lifetime harness falls back to its default drift)."""
        if not self.drift:
            return None
        overrides = dict(self.drift)
        nbti = overrides.pop("nbti", None)
        if isinstance(nbti, dict):
            try:
                nbti = NbtiModel(**nbti)
            except TypeError as exc:
                raise SpecError(
                    f"bad nbti overrides {self.drift['nbti']}: "
                    f"{exc}") from exc
        if nbti is not None:
            overrides["nbti"] = nbti
        try:
            return DriftModel(**overrides)
        except TypeError as exc:
            raise SpecError(
                f"bad drift overrides {self.drift}: {exc}") from exc

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-native dict (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["cluster_budgets"] = list(self.cluster_budgets)
        return data

    def to_json(self) -> str:
        """Canonical (sorted-key) JSON text of the spec."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        if not isinstance(data, dict):
            raise SpecError(f"RunSpec needs a JSON object, got "
                            f"{type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown RunSpec fields: {', '.join(unknown)}")
        payload = dict(data)
        if "cluster_budgets" in payload:
            payload["cluster_budgets"] = tuple(payload["cluster_budgets"])
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def cache_material(self) -> dict:
        """Key material for the run cache: the spec minus execution-only
        knobs.

        The fields in :data:`EXECUTION_KNOBS` parallelize or re-engine
        execution without changing the result — a sweep run with
        ``workers=4`` hits the exact artifacts a serial run produced,
        and the batched ``tuning_engine`` is bit-identical to the
        serial loop — so they do not participate in the content
        address (which also keeps every spec hash from before those
        fields existed).

        ``grouping`` *does* change the result, so non-default values
        are part of the address; the ``"identity"`` default is dropped
        from the material so that specs predating the field keep their
        hashes (and their cached artifacts).  The lifetime fields
        (``epochs``, ``cadence``, ``drift``) elide their defaults for
        the same reason.

        ``method`` and ``ilp_backend`` enter as the registry names they
        resolve to, so a solver alias and its canonical name share one
        address (``"heuristic"`` hits ``"heuristic:row-descent"``).
        """
        material = self.to_dict()
        for knob in EXECUTION_KNOBS:
            del material[knob]
        material["method"] = registry.get(self.method).name
        material["ilp_backend"] = registry.get(
            f"ilp:{self.ilp_backend}").name.removeprefix("ilp:")
        if material["grouping"] == "identity":
            del material["grouping"]
        if material["epochs"] == 8:
            del material["epochs"]
        if material["cadence"] == 1:
            del material["cadence"]
        if not material["drift"]:
            del material["drift"]
        if material["mode"] == "model":
            del material["mode"]
        if material["placer"] == "bfs":
            del material["placer"]
        return material

    def spec_hash(self) -> str:
        """Stable content address of the spec (the run-cache key)."""
        return content_hash(self.cache_material())


@dataclass(frozen=True)
class RunResult:
    """The outcome of executing one :class:`RunSpec`.

    ``payload`` holds only JSON-native values (string keys, lists, plain
    scalars), so serialization round-trips bit-identically:
    ``RunResult.from_json(result.to_json()) == result``.
    """

    spec: RunSpec
    payload: dict
    cache_hit: bool = False
    schema_version: int = SCHEMA_VERSION

    @property
    def kind(self) -> str:
        return self.spec.kind

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "spec": self.spec.to_dict(),
            "payload": self.payload,
            "cache_hit": self.cache_hit,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        try:
            spec = RunSpec.from_dict(data["spec"])
            return cls(spec=spec, payload=data["payload"],
                       cache_hit=data.get("cache_hit", False),
                       schema_version=data.get("schema_version",
                                               SCHEMA_VERSION))
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed RunResult: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    # -- payload decoding -------------------------------------------------

    def to_table1_row(self) -> Table1Row:
        """Rebuild the Table1Row a table1 run produced."""
        if self.kind != "table1":
            raise SpecError(f"not a table1 result (kind={self.kind!r})")
        return table1_row_from_payload(self.payload)

    def to_population_row(self) -> PopulationRow:
        """Rebuild the PopulationRow a population run produced."""
        if self.kind != "population":
            raise SpecError(f"not a population result (kind={self.kind!r})")
        return population_row_from_payload(self.payload)

    def to_spatial_row(self) -> SpatialRow:
        """Rebuild the SpatialRow a spatial run produced."""
        if self.kind != "spatial":
            raise SpecError(f"not a spatial result (kind={self.kind!r})")
        return spatial_row_from_payload(self.payload)

    def to_lifetime_row(self) -> LifetimeRow:
        """Rebuild the LifetimeRow a lifetime run produced."""
        if self.kind != "lifetime":
            raise SpecError(f"not a lifetime result (kind={self.kind!r})")
        return lifetime_row_from_payload(self.payload)


# -- payload codecs (JSON-native dicts <-> harness row dataclasses) --------

def table1_row_payload(row: Table1Row) -> dict:
    """Encode a Table1Row as a pure-JSON payload (str cluster keys)."""
    return {
        "design": row.design,
        "gates": row.gates,
        "rows": row.rows,
        "beta": row.beta,
        "single_bb_uw": row.single_bb_uw,
        "ilp_savings": {str(c): v for c, v in row.ilp_savings.items()},
        "heuristic_savings": {str(c): v
                              for c, v in row.heuristic_savings.items()},
        "num_constraints": row.num_constraints,
        "ilp_runtime_s": row.ilp_runtime_s,
        "heuristic_runtime_s": row.heuristic_runtime_s,
    }


def table1_row_from_payload(payload: dict) -> Table1Row:
    """Inverse of :func:`table1_row_payload`."""
    return Table1Row(
        design=payload["design"],
        gates=payload["gates"],
        rows=payload["rows"],
        beta=payload["beta"],
        single_bb_uw=payload["single_bb_uw"],
        ilp_savings={int(c): v for c, v in payload["ilp_savings"].items()},
        heuristic_savings={int(c): v
                           for c, v in payload["heuristic_savings"].items()},
        num_constraints=payload["num_constraints"],
        ilp_runtime_s=payload["ilp_runtime_s"],
        heuristic_runtime_s=payload["heuristic_runtime_s"],
    )


def population_row_payload(row: PopulationRow) -> dict:
    """Encode a PopulationRow as a pure-JSON payload."""
    return dataclasses.asdict(row)


def population_row_from_payload(payload: dict) -> PopulationRow:
    """Inverse of :func:`population_row_payload`."""
    return PopulationRow(**payload)


def spatial_row_payload(row: SpatialRow) -> dict:
    """Encode a SpatialRow as a pure-JSON payload."""
    return dataclasses.asdict(row)


def spatial_row_from_payload(payload: dict) -> SpatialRow:
    """Inverse of :func:`spatial_row_payload`."""
    return SpatialRow(**payload)


def lifetime_row_payload(row: LifetimeRow) -> dict:
    """Encode a LifetimeRow as a pure-JSON payload (list yield curve)."""
    data = dataclasses.asdict(row)
    data["yield_curve"] = list(row.yield_curve)
    return data


def lifetime_row_from_payload(payload: dict) -> LifetimeRow:
    """Inverse of :func:`lifetime_row_payload`."""
    data = dict(payload)
    data["yield_curve"] = tuple(data["yield_curve"])
    return LifetimeRow(**data)


# -- execution -------------------------------------------------------------

def _implement_spec(spec: RunSpec, cache: ArtifactCache) -> FlowResult:
    return implement(spec.design, tech=spec.technology(),
                     utilization=spec.utilization, placer=spec.placer,
                     cache=cache)


def _execute_allocate(spec: RunSpec, cache: ArtifactCache) -> dict:
    flow = _implement_spec(spec, cache)
    problem = build_problem(flow.placed, flow.clib, spec.beta,
                            analyzer=flow.analyzer, paths=list(flow.paths),
                            dcrit_ps=flow.dcrit_ps)
    baseline = solve_single_bb(problem)
    entry = registry.get(spec.method)
    opts: dict[str, Any] = {}
    if entry.name.startswith("ilp:"):
        opts["time_limit_s"] = spec.ilp_time_limit_s
    grouped = spec.grouping != "identity"
    if grouped:
        solution = solve_grouped(problem, entry.name, spec.clusters,
                                 grouping=spec.grouping,
                                 placed=flow.placed, **opts)
    else:
        solution = entry.func(problem, spec.clusters, **opts)
    payload = {
        "design": flow.name,
        "gates": flow.num_gates,
        "rows": flow.num_rows,
        "beta": spec.beta,
        "method": solution.method,
        "baseline_uw": baseline.leakage_uw,
        "leakage_uw": solution.leakage_uw,
        "savings_pct": solution.savings_vs(baseline.leakage_nw),
        "num_clusters": solution.num_clusters,
        "levels": [int(level) for level in solution.levels],
        "timing_ok": bool(solution.is_timing_feasible),
        "optimal": bool(solution.optimal),
        "runtime_s": solution.runtime_s,
    }
    if grouped:
        # Extra keys only on grouped runs: identity payloads stay
        # bit-identical to those produced before the grouping layer.
        payload["grouping"] = spec.grouping
        payload["num_groups"] = solution.num_groups
        payload["num_domains"] = solution.num_domains
    return payload


#: kind -> (harness over the implemented flow, row -> JSON payload)
_HARNESSES: dict[str, tuple[Callable[[FlowResult, RunSpec], Any],
                            Callable[[Any], dict]]] = {
    "table1": (run_design_beta, table1_row_payload),
    "population": (run_population, population_row_payload),
    "spatial": (run_spatial, spatial_row_payload),
    "lifetime": (run_lifetime_study, lifetime_row_payload),
}


def execute_spec(spec: RunSpec,
                 cache: ArtifactCache | None = None) -> dict:
    """Compute one spec's payload with no run-cache lookup.

    This is the raw execution step :func:`run` wraps with memoization,
    and the entry point pool workers call: the worker executes against
    a process-local cache and ships the pure-JSON payload back to the
    parent, which merges it into the shared run cache.
    """
    if cache is None:
        cache = default_cache()
    if spec.kind == "allocate":
        return _execute_allocate(spec, cache)
    harness, encode = _HARNESSES[spec.kind]
    return encode(harness(_implement_spec(spec, cache), spec))


def run(spec: RunSpec, cache: ArtifactCache | None = None,
        use_cache: bool = True) -> RunResult:
    """Execute one spec, memoizing the payload in the artifact cache.

    A repeated spec returns the cached payload with ``cache_hit=True``
    and identical numbers; pass ``use_cache=False`` to force
    re-execution (the fresh payload still refreshes the cache).  The
    cache key is :meth:`RunSpec.spec_hash`; payloads cross the cache
    boundary as deep copies, so mutating a returned result cannot
    corrupt later hits.
    """
    if cache is None:
        cache = default_cache()
    material = spec.cache_material()
    if use_cache:
        found, payload = cache.lookup("run", material)
        if found:
            return RunResult(spec=spec, payload=copy.deepcopy(payload),
                             cache_hit=True)
    payload = execute_spec(spec, cache)
    cache.put("run", material, copy.deepcopy(payload))
    return RunResult(spec=spec, payload=payload, cache_hit=False)


def run_many(specs: list[RunSpec] | tuple[RunSpec, ...],
             cache: ArtifactCache | None = None,
             use_cache: bool = True,
             workers: int = 1,
             capture_errors: bool = False
             ) -> list[RunResult | SpecFailure]:
    """Execute a batch of specs in order (the `sweep` CLI's engine).

    A thin batch adapter over
    :class:`repro.flow.executor.ExecutionEngine` — the same
    resolve → dedupe → dispatch → merge core the ``repro.serve``
    request loop drives.  ``workers > 1`` selects the process-pool
    backend: the parent resolves cache hits and deduplicates, unique
    misses execute in warm workers, and payloads merge back into the
    shared cache — results and their order are identical to the serial
    ``workers=1`` (inline-backend) path, modulo wall-clock runtime
    fields inside payloads.

    With ``capture_errors=True`` a failing spec produces a
    :class:`~repro.flow.parallel.SpecFailure` in its result slot and
    the rest of the batch still runs; otherwise the first failure (in
    spec order) is raised, as before.
    """
    from repro.flow.executor import ExecutionEngine
    if cache is None:
        cache = default_cache()
    with ExecutionEngine.for_batch(cache, workers,
                                   num_tasks=len(specs)) as engine:
        return engine.execute(list(specs), use_cache=use_cache,
                              capture_errors=capture_errors)


def solve(problem, method: str = "heuristic", clusters: int = 3, **opts):
    """Registry dispatch re-export: one entry point for ad-hoc solves."""
    return registry.solve(problem, method, clusters, **opts)


def solver_names(include_aliases: bool = True) -> tuple[str, ...]:
    """Registered solver method names (the valid ``RunSpec.method``s)."""
    return registry.names(include_aliases=include_aliases)
