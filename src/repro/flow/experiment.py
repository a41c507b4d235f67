"""Experiment harnesses: Table 1, Monte Carlo populations, spatial and
lifetime studies.

Runs the paper's main experiment — for each design and slowdown beta,
the Single BB baseline, the exact ILP and the two-pass heuristic at
cluster budgets C = 2 and C = 3, reporting leakage savings and the
timing-constraint counts — plus the population study behind the
post-silicon-tuning sections (sample thousands of dies through the
batched STA backend, optionally tune every slow one, and report the
yield/leakage economics) and the **spatial compensation study**: the
same die population calibrated twice, once through a per-region sensor
grid with clustered allocation and once through the classic single
die-wide sensor with uniform biasing, head to head — the paper's
central clustered-vs-uniform claim as one experiment row — and the
**lifetime study**: the same population aged through per-row NBTI drift
epochs and re-calibrated at a cadence (:mod:`repro.tuning.lifetime`),
reporting the yield-vs-age trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.problem import FBBProblem, build_problem
from repro.core.single_bb import solve_single_bb
from repro.errors import TimeoutError_
from repro.flow.design_flow import FlowResult
from repro.grouping import solve_grouped
from repro.variation.drift import DriftModel
from repro.variation.montecarlo import sample_dies
from repro.variation.process import ProcessModel


@dataclass(frozen=True)
class Table1Row:
    """One (design, beta) row of the paper's Table 1."""

    design: str
    gates: int
    rows: int
    beta: float
    single_bb_uw: float
    ilp_savings: dict[int, float | None]
    """C -> savings %, None when the ILP timed out (paper's '-')."""
    heuristic_savings: dict[int, float]
    num_constraints: int
    ilp_runtime_s: float
    heuristic_runtime_s: float

    def ilp_cell(self, clusters: int) -> str:
        value = self.ilp_savings.get(clusters)
        return "-" if value is None else f"{value:.2f}"


@dataclass
class ExperimentConfig:
    """Knobs for a Table 1 regeneration run."""

    betas: tuple[float, ...] = (0.05, 0.10)
    cluster_budgets: tuple[int, ...] = (2, 3)
    ilp_backend: str = "highs"
    ilp_time_limit_s: float = 120.0
    skip_ilp_above_rows: int | None = None
    """Mimic the paper: no ILP results for the largest designs."""
    heuristic_strategy: str = "row-descent"
    grouping: str = "identity"
    """Bias-domain grouping spec for the ILP/heuristic columns
    (``"identity"`` = the paper's per-row granularity; the Single BB
    baseline is granularity-free by definition)."""


def run_design_beta(flow: FlowResult, beta: float,
                    config: ExperimentConfig) -> Table1Row:
    """One Table 1 row: all methods on one (design, beta) pair."""
    problem: FBBProblem = build_problem(
        flow.placed, flow.clib, beta,
        analyzer=flow.analyzer, paths=list(flow.paths),
        dcrit_ps=flow.dcrit_ps)
    baseline = solve_single_bb(problem)

    ilp_savings: dict[int, float | None] = {}
    ilp_runtime = 0.0
    skip_ilp = (config.skip_ilp_above_rows is not None
                and problem.num_rows > config.skip_ilp_above_rows)
    for clusters in config.cluster_budgets:
        if skip_ilp:
            ilp_savings[clusters] = None
            continue
        try:
            solution = solve_grouped(
                problem, f"ilp:{config.ilp_backend}", clusters,
                grouping=config.grouping, placed=flow.placed,
                time_limit_s=config.ilp_time_limit_s)
            ilp_savings[clusters] = solution.savings_vs(baseline.leakage_nw)
            ilp_runtime += solution.runtime_s
        except TimeoutError_:
            ilp_savings[clusters] = None

    heuristic_savings: dict[int, float] = {}
    heuristic_runtime = 0.0
    for clusters in config.cluster_budgets:
        solution = solve_grouped(
            problem, f"heuristic:{config.heuristic_strategy}", clusters,
            grouping=config.grouping, placed=flow.placed)
        heuristic_savings[clusters] = solution.savings_vs(
            baseline.leakage_nw)
        heuristic_runtime += solution.runtime_s

    return Table1Row(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        beta=beta,
        single_bb_uw=baseline.leakage_uw,
        ilp_savings=ilp_savings,
        heuristic_savings=heuristic_savings,
        num_constraints=problem.num_constraints,
        ilp_runtime_s=ilp_runtime,
        heuristic_runtime_s=heuristic_runtime,
    )


@dataclass
class PopulationConfig:
    """Knobs for a Monte Carlo die-population study."""

    num_dies: int = 1000
    seed: int = 0
    model: ProcessModel | None = None
    sta_engine: str = "batched"
    """"batched" (vectorized, default) or "scalar" (ground truth)."""
    tune: bool = False
    """Run the closed calibration loop on every out-of-budget die."""
    max_clusters: int = 3
    beta_budget: float = 0.0
    method: str = "heuristic:row-descent"
    """Solver-registry method the tuning controller allocates with."""
    workers: int = 1
    """Process-pool width for sharding the tuning loop across the
    population's slow dies (1 = the serial reference path)."""
    grouping: str = "identity"
    """Bias-domain grouping the tuning controller allocates at
    (``"identity"`` = per-row, the pre-grouping behaviour)."""
    tuning_engine: str = "batched"
    """Calibration execution engine (``repro.tuning.TUNING_ENGINES``):
    ``"batched"`` advances all slow dies one sense/allocate/verify step
    per matrix pass (:mod:`repro.tuning.batched`), ``"serial"`` runs
    the per-die reference loop with bit-identical results.  An
    execution knob like ``workers``, not an experiment input."""


@dataclass(frozen=True)
class PopulationRow:
    """One design's Monte Carlo population study."""

    design: str
    gates: int
    rows: int
    num_dies: int
    nominal_delay_ps: float
    beta_mean: float
    beta_std: float
    beta_max: float
    timing_yield: float
    sta_engine: str
    sample_runtime_s: float
    tuned_yield: float | None = None
    recovered: int = 0
    lost: int = 0
    tune_runtime_s: float = 0.0
    seed: int = 0
    """Sampling seed the population was drawn with (reproducibility)."""


def run_population(flow: FlowResult,
                   config: PopulationConfig | None = None) -> PopulationRow:
    """Sample (and optionally tune) one design's die population."""
    if config is None:
        config = PopulationConfig()
    started = time.perf_counter()
    population = sample_dies(flow.placed, config.num_dies,
                             model=config.model, seed=config.seed,
                             engine=config.sta_engine,
                             store_scales=False)
    sample_runtime = time.perf_counter() - started

    tuned_yield = None
    recovered = 0
    lost = 0
    tune_runtime = 0.0
    if config.tune:
        from repro.tuning.controller import TuningController
        from repro.tuning.population import tune_population
        started = time.perf_counter()
        controller = TuningController(flow.placed, flow.clib,
                                      max_clusters=config.max_clusters,
                                      method=config.method,
                                      grouping=config.grouping)
        summary = tune_population(
            controller, population, beta_budget=config.beta_budget,
            workers=config.workers, engine=config.tuning_engine)
        tune_runtime = time.perf_counter() - started
        tuned_yield = summary.yield_after
        recovered = summary.recovered
        lost = summary.lost

    betas = population.betas
    return PopulationRow(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        num_dies=config.num_dies,
        nominal_delay_ps=population.nominal_delay_ps,
        beta_mean=float(betas.mean()),
        beta_std=float(betas.std()),
        beta_max=float(betas.max()),
        timing_yield=population.timing_yield(config.beta_budget),
        sta_engine=config.sta_engine,
        sample_runtime_s=sample_runtime,
        tuned_yield=tuned_yield,
        recovered=recovered,
        lost=lost,
        tune_runtime_s=tune_runtime,
        seed=config.seed,
    )


@dataclass
class SpatialConfig:
    """Knobs for a spatial-vs-uniform compensation study."""

    num_dies: int = 200
    seed: int = 0
    model: ProcessModel | None = None
    """Process model the population is drawn from (None = defaults);
    its ``correlation_length_fraction`` is the study's main axis."""
    sta_engine: str = "batched"
    max_clusters: int = 3
    beta_budget: float = 0.0
    method: str = "heuristic:row-descent"
    """Allocator of the spatial arm (the uniform arm uses single_bb)."""
    num_regions: int = 4
    """Sensor-grid resolution of the spatial arm."""
    grouping: str = "identity"
    """Bias-domain grouping of the spatial arm's allocator (the uniform
    arm is single-voltage, so granularity does not apply to it)."""
    max_iterations: int = 4
    """Calibration-iteration budget per die (tester time is paid per
    verify pass, so the study uses a production-tight budget; both arms
    get the same one)."""
    sense_guard: float = 0.01
    """Sensing guard band applied identically to both arms (see
    :class:`repro.tuning.controller.TuningController.sense_guard`)."""
    workers: int = 1


@dataclass(frozen=True)
class SpatialRow:
    """One design's spatial-vs-uniform compensation study.

    Both arms calibrate the *same* sampled die population against its
    actual per-gate fields: the spatial arm senses ``num_regions``
    monitor regions and allocates clustered biases; the uniform arm is
    the classic baseline — a single path-replica sensor in the die's
    central band and one uniform voltage (``single_bb``).
    ``*_leakage_uw`` compare mean recovered-die leakage over the dies
    *both* arms recovered, so the leakage numbers are apples to apples
    even when the yields differ.
    """

    design: str
    gates: int
    rows: int
    num_dies: int
    num_regions: int
    seed: int
    correlation_length: float | None
    beta_budget: float
    yield_before: float
    spatial_yield: float
    uniform_yield: float
    spatial_recovered: int
    spatial_lost: int
    uniform_recovered: int
    uniform_lost: int
    spatial_leakage_uw: float
    uniform_leakage_uw: float
    sample_runtime_s: float
    tune_runtime_s: float


def run_spatial(flow: FlowResult,
                config: SpatialConfig | None = None) -> SpatialRow:
    """Run the spatial-vs-uniform study on one design's population."""
    from repro.tuning.controller import TuningController
    from repro.tuning.population import tune_population

    if config is None:
        config = SpatialConfig()
    model = config.model if config.model is not None else ProcessModel()
    started = time.perf_counter()
    population = sample_dies(flow.placed, config.num_dies,
                             model=model, seed=config.seed,
                             engine=config.sta_engine,
                             store_scales=False)
    sample_runtime = time.perf_counter() - started

    started = time.perf_counter()
    spatial_controller = TuningController(
        flow.placed, flow.clib, max_clusters=config.max_clusters,
        method=config.method, max_iterations=config.max_iterations,
        sense_guard=config.sense_guard, grouping=config.grouping)
    spatial = tune_population(
        spatial_controller, population, beta_budget=config.beta_budget,
        workers=config.workers, mode="spatial",
        num_regions=config.num_regions)
    uniform_controller = TuningController(
        flow.placed, flow.clib, max_clusters=config.max_clusters,
        method="single_bb", max_iterations=config.max_iterations,
        sense_guard=config.sense_guard)
    uniform = tune_population(
        uniform_controller, population, beta_budget=config.beta_budget,
        workers=config.workers, mode="spatial",
        num_regions=config.num_regions, replica_sensor=True)
    tune_runtime = time.perf_counter() - started

    both = [(s.leakage_nw, u.leakage_nw)
            for s, u in zip(spatial.records, uniform.records)
            if s.status == "recovered" and u.status == "recovered"]
    spatial_uw = (sum(s for s, _ in both) / len(both) / 1e3
                  if both else 0.0)
    uniform_uw = (sum(u for _, u in both) / len(both) / 1e3
                  if both else 0.0)
    return SpatialRow(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        num_dies=config.num_dies,
        num_regions=spatial.num_regions or config.num_regions,
        seed=config.seed,
        correlation_length=model.correlation_length_fraction,
        beta_budget=config.beta_budget,
        yield_before=population.timing_yield(config.beta_budget),
        spatial_yield=spatial.yield_after,
        uniform_yield=uniform.yield_after,
        spatial_recovered=spatial.recovered,
        spatial_lost=spatial.lost,
        uniform_recovered=uniform.recovered,
        uniform_lost=uniform.lost,
        spatial_leakage_uw=spatial_uw,
        uniform_leakage_uw=uniform_uw,
        sample_runtime_s=sample_runtime,
        tune_runtime_s=tune_runtime,
    )


@dataclass
class LifetimeConfig:
    """Knobs for a lifetime aging-and-recalibration study."""

    num_dies: int = 200
    seed: int = 0
    """Sampling seed; also drives the drift trajectory."""
    model: ProcessModel | None = None
    drift: DriftModel | None = None
    """Per-row aging drift process (None = :class:`DriftModel`
    defaults)."""
    sta_engine: str = "batched"
    epochs: int = 8
    """Service-life epochs the population ages through."""
    cadence: int = 1
    """Re-calibrate every ``cadence`` epochs (1 = every epoch,
    ``epochs`` = tune once at time zero and coast)."""
    max_clusters: int = 3
    beta_budget: float = 0.0
    method: str = "heuristic:row-descent"
    mode: str = "model"
    """Lifetime calibration mode: "model" (scalar die-wide derate) or
    "spatial" (per-region sensing of the composed field)."""
    num_regions: int = 4
    grouping: str = "identity"


@dataclass(frozen=True)
class LifetimeRow:
    """One design's lifetime study: yield-vs-age under a re-calibration
    cadence.

    ``yield_curve`` is the epoch-by-epoch timing yield of the aging
    population with the currently programmed biases — the trajectory
    that decays between calibration visits and recovers at each one.
    """

    design: str
    gates: int
    rows: int
    num_dies: int
    epochs: int
    cadence: int
    epoch_years: float
    mode: str
    beta_budget: float
    seed: int
    grouping: str
    recalibrations: int
    initial_yield: float
    final_yield: float
    min_yield: float
    mean_yield: float
    yield_curve: tuple[float, ...]
    mean_leakage_uw: float
    """Population-mean leakage at end of life, microwatts."""
    sample_runtime_s: float
    tune_runtime_s: float


def run_lifetime_study(flow: FlowResult,
                       config: LifetimeConfig | None = None) -> LifetimeRow:
    """Age one design's die population and re-tune it at a cadence."""
    from repro.tuning.controller import TuningController
    from repro.tuning.lifetime import run_lifetime

    if config is None:
        config = LifetimeConfig()
    started = time.perf_counter()
    population = sample_dies(flow.placed, config.num_dies,
                             model=config.model, seed=config.seed,
                             engine=config.sta_engine)
    sample_runtime = time.perf_counter() - started

    controller = TuningController(flow.placed, flow.clib,
                                  max_clusters=config.max_clusters,
                                  method=config.method,
                                  grouping=config.grouping)
    summary = run_lifetime(
        controller, population, config.drift,
        epochs=config.epochs, cadence=config.cadence,
        beta_budget=config.beta_budget, mode=config.mode,
        num_regions=config.num_regions, seed=config.seed)
    curve = summary.yield_curve()
    return LifetimeRow(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        num_dies=config.num_dies,
        epochs=config.epochs,
        cadence=config.cadence,
        epoch_years=summary.epoch_years,
        mode=config.mode,
        beta_budget=config.beta_budget,
        seed=config.seed,
        grouping=config.grouping,
        recalibrations=summary.recalibrations,
        initial_yield=curve[0],
        final_yield=summary.final_yield,
        min_yield=summary.min_yield,
        mean_yield=summary.mean_yield,
        yield_curve=curve,
        mean_leakage_uw=summary.outcomes[-1].mean_leakage_nw / 1e3,
        sample_runtime_s=sample_runtime,
        tune_runtime_s=summary.runtime_s,
    )
