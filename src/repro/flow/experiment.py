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

Each harness takes an implemented :class:`FlowResult` and the
:class:`~repro.api.RunSpec` that names the run; the spec's fields (and
their docstrings) are the only description of the knobs, and its
constructor the only place they are checked.  ``repro.api`` implements
the flow the spec names and encodes the returned row as the payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.problem import FBBProblem, build_problem
from repro.core.single_bb import solve_single_bb
from repro.errors import TimeoutError_
from repro.flow.design_flow import FlowResult
from repro.grouping import solve_grouped
from repro.variation.montecarlo import sample_dies
from repro.variation.process import ProcessModel

if TYPE_CHECKING:  # repro.api imports this module
    from repro.api import RunSpec

#: calibration-iteration budget per die in the spatial study: tester
#: time is paid per verify pass, so the study uses a production-tight
#: budget, the same for both arms
SPATIAL_MAX_ITERATIONS = 4

#: sensing guard band of the spatial study, applied identically to both
#: arms (see :attr:`repro.tuning.controller.TuningController.sense_guard`)
SPATIAL_SENSE_GUARD = 0.01


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


def run_design_beta(flow: FlowResult, spec: RunSpec) -> Table1Row:
    """One Table 1 row: all methods on ``flow`` at ``spec.beta``."""
    problem: FBBProblem = build_problem(
        flow.placed, flow.clib, spec.beta,
        analyzer=flow.analyzer, paths=list(flow.paths),
        dcrit_ps=flow.dcrit_ps)
    baseline = solve_single_bb(problem)

    ilp_savings: dict[int, float | None] = {}
    ilp_runtime = 0.0
    skip_ilp = (spec.skip_ilp_above_rows is not None
                and problem.num_rows > spec.skip_ilp_above_rows)
    for clusters in spec.cluster_budgets:
        if skip_ilp:
            ilp_savings[clusters] = None
            continue
        try:
            solution = solve_grouped(
                problem, f"ilp:{spec.ilp_backend}", clusters,
                grouping=spec.grouping, placed=flow.placed,
                time_limit_s=spec.ilp_time_limit_s)
            ilp_savings[clusters] = solution.savings_vs(baseline.leakage_nw)
            ilp_runtime += solution.runtime_s
        except TimeoutError_:
            ilp_savings[clusters] = None

    heuristic_savings: dict[int, float] = {}
    heuristic_runtime = 0.0
    for clusters in spec.cluster_budgets:
        solution = solve_grouped(
            problem, spec.method, clusters,
            grouping=spec.grouping, placed=flow.placed)
        heuristic_savings[clusters] = solution.savings_vs(
            baseline.leakage_nw)
        heuristic_runtime += solution.runtime_s

    return Table1Row(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        beta=spec.beta,
        single_bb_uw=baseline.leakage_uw,
        ilp_savings=ilp_savings,
        heuristic_savings=heuristic_savings,
        num_constraints=problem.num_constraints,
        ilp_runtime_s=ilp_runtime,
        heuristic_runtime_s=heuristic_runtime,
    )


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


def run_population(flow: FlowResult, spec: RunSpec) -> PopulationRow:
    """Sample (and, with ``spec.tune``, tune) ``flow``'s die population."""
    started = time.perf_counter()
    population = sample_dies(flow.placed, spec.num_dies,
                             model=spec.process_model(), seed=spec.seed,
                             engine=spec.engine, store_scales=False)
    sample_runtime = time.perf_counter() - started

    tuned_yield = None
    recovered = 0
    lost = 0
    tune_runtime = 0.0
    if spec.tune:
        from repro.tuning.controller import TuningController
        from repro.tuning.population import tune_population
        started = time.perf_counter()
        controller = TuningController(flow.placed, flow.clib,
                                      max_clusters=spec.clusters,
                                      method=spec.method,
                                      grouping=spec.grouping)
        summary = tune_population(
            controller, population, beta_budget=spec.beta_budget,
            workers=spec.workers, engine=spec.tuning_engine)
        tune_runtime = time.perf_counter() - started
        tuned_yield = summary.yield_after
        recovered = summary.recovered
        lost = summary.lost

    betas = population.betas
    return PopulationRow(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        num_dies=spec.num_dies,
        nominal_delay_ps=population.nominal_delay_ps,
        beta_mean=float(betas.mean()),
        beta_std=float(betas.std()),
        beta_max=float(betas.max()),
        timing_yield=population.timing_yield(spec.beta_budget),
        sta_engine=spec.engine,
        sample_runtime_s=sample_runtime,
        tuned_yield=tuned_yield,
        recovered=recovered,
        lost=lost,
        tune_runtime_s=tune_runtime,
        seed=spec.seed,
    )


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


def run_spatial(flow: FlowResult, spec: RunSpec) -> SpatialRow:
    """Run the spatial-vs-uniform study on ``flow``'s die population."""
    from repro.tuning.controller import TuningController
    from repro.tuning.population import tune_population

    model = spec.process_model()
    if model is None:
        model = ProcessModel()
    started = time.perf_counter()
    population = sample_dies(flow.placed, spec.num_dies,
                             model=model, seed=spec.seed,
                             engine=spec.engine, store_scales=False)
    sample_runtime = time.perf_counter() - started

    started = time.perf_counter()
    spatial_controller = TuningController(
        flow.placed, flow.clib, max_clusters=spec.clusters,
        method=spec.method, max_iterations=SPATIAL_MAX_ITERATIONS,
        sense_guard=SPATIAL_SENSE_GUARD, grouping=spec.grouping)
    spatial = tune_population(
        spatial_controller, population, beta_budget=spec.beta_budget,
        workers=spec.workers, mode="spatial",
        num_regions=spec.num_regions)
    uniform_controller = TuningController(
        flow.placed, flow.clib, max_clusters=spec.clusters,
        method="single_bb", max_iterations=SPATIAL_MAX_ITERATIONS,
        sense_guard=SPATIAL_SENSE_GUARD)
    uniform = tune_population(
        uniform_controller, population, beta_budget=spec.beta_budget,
        workers=spec.workers, mode="spatial",
        num_regions=spec.num_regions, replica_sensor=True)
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
        num_dies=spec.num_dies,
        num_regions=spatial.num_regions or spec.num_regions,
        seed=spec.seed,
        correlation_length=model.correlation_length_fraction,
        beta_budget=spec.beta_budget,
        yield_before=population.timing_yield(spec.beta_budget),
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


def run_lifetime_study(flow: FlowResult, spec: RunSpec) -> LifetimeRow:
    """Age ``flow``'s die population and re-tune it at a cadence."""
    from repro.tuning.controller import TuningController
    from repro.tuning.lifetime import run_lifetime

    started = time.perf_counter()
    population = sample_dies(flow.placed, spec.num_dies,
                             model=spec.process_model(), seed=spec.seed,
                             engine=spec.engine)
    sample_runtime = time.perf_counter() - started

    controller = TuningController(flow.placed, flow.clib,
                                  max_clusters=spec.clusters,
                                  method=spec.method,
                                  grouping=spec.grouping)
    summary = run_lifetime(
        controller, population, spec.drift_model(),
        epochs=spec.epochs, cadence=spec.cadence,
        beta_budget=spec.beta_budget, mode=spec.mode,
        num_regions=spec.num_regions, seed=spec.seed)
    curve = summary.yield_curve()
    return LifetimeRow(
        design=flow.name,
        gates=flow.num_gates,
        rows=flow.num_rows,
        num_dies=spec.num_dies,
        epochs=spec.epochs,
        cadence=spec.cadence,
        epoch_years=summary.epoch_years,
        mode=spec.mode,
        beta_budget=spec.beta_budget,
        seed=spec.seed,
        grouping=spec.grouping,
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
