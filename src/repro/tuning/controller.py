"""Closed-loop post-silicon tuning controller (paper Sec. 3.1, Fig. 2).

The calibration loop for one circuit block:

1. **Sense** — the block's timing sensor measures the die and produces a
   slowdown estimate (static process shift, or periodic re-measurement
   for temperature/aging drift).
2. **Allocate** — the design-time clustering machinery (PassOne/PassTwo
   or the ILP) computes the minimum-leakage row assignment for that
   slowdown, quantised to the generator grid.
3. **Apply** — the central body-bias generator programs the (at most
   two) rails; rows fall into their clusters.
4. **Verify** — the in-situ monitors re-check; if an alarm persists
   (estimate was low), the estimate is bumped one resolution step and
   the loop repeats.

Two sensing modes drive the loop:

* :meth:`TuningController.calibrate` — the paper's die-wide mode: one
  scalar slowdown models the whole die, allocation derates every row
  uniformly, an alarm bumps the single estimate.
* :meth:`TuningController.calibrate_spatial` — the spatial compensation
  engine: a :class:`~repro.tuning.sensors.SpatialSensorGrid` senses the
  die's actual per-gate delay-scale field per region, allocation runs
  against the heterogeneous per-row slowdown vector, and a persisting
  alarm bumps only the regions whose monitored paths still violate.

The controller is deliberately conservative: it only ever raises the
estimate, and it fails loudly when even maximum bias cannot recover the
die (a yield loss, not a tuning bug).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import FBBProblem, build_problem
from repro.core.registry import registry
from repro.core.solution import BiasSolution
from repro.errors import GroupingError, InfeasibleError, TuningError
from repro.grouping import (GroupingContext, RowGrouping, is_field_driven,
                            make_grouping, reduce_problem,
                            validate_grouping_spec)
from repro.placement.placed_design import PlacedDesign
from repro.sta.batched import BatchedTimingAnalyzer
from repro.sta.engine import TimingAnalyzer
from repro.sta.paths import extract_paths
from repro.tech.characterize import CharacterizedLibrary
from repro.tuning.generator import BodyBiasGenerator
from repro.tuning.sensors import InSituMonitor, SpatialSensorGrid

#: default monitor-grid resolution for spatial calibration
DEFAULT_SENSOR_REGIONS = 4


@dataclass
class TuningOutcome:
    """Result of one closed-loop calibration."""

    converged: bool
    iterations: int
    estimated_beta: float
    solution: BiasSolution | None
    leakage_nw: float
    settle_latency_us: float  # repro-lint: ignore[units-suffix] -- mirrors BodyBiasGenerator.settle_latency_us (native us)
    history: list[str] = field(default_factory=list)
    region_betas: tuple[float, ...] | None = None
    """Final per-region slowdown estimates (spatial calibration only)."""


@dataclass
class TuningController:
    """Binds a placed design, its sensors and a bias generator."""

    placed: PlacedDesign
    clib: CharacterizedLibrary
    max_clusters: int = 3
    max_iterations: int = 6
    beta_step: float = 0.01
    method: str = "heuristic:row-descent"
    """Solver-registry method for the allocate step."""
    sense_guard: float = 0.0
    """Guard band added to every spatial sensing estimate (slowdown
    units): monitors read delay-weighted *means*, while timing is set by
    the *worst* path through a region, so production flows over-bias by
    a small margin instead of paying one verify iteration per
    resolution step.  Applied identically to the per-region grid and
    the single-replica baseline — it shifts both arms, not the
    comparison."""
    grouping: str | None = None
    """Bias-domain grouping spec for the allocate step (DESIGN.md,
    "Bias-domain grouping"): ``None`` or ``"identity"`` allocates per
    row exactly as before; ``"bands:<k>"`` / ``"correlation:<k>"`` /
    ``"community:<k>"`` solve the reduced domain problem and expand the
    assignment back to rows before it is applied."""

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise TuningError("need at least one tuning iteration")
        if self.sense_guard < 0:
            raise TuningError("sense guard cannot be negative")
        if self.grouping is not None:
            try:
                validate_grouping_spec(self.grouping)
            except GroupingError as exc:
                raise TuningError(
                    f"bad grouping spec {self.grouping!r}: {exc}") from exc
        self._solver = registry.get(self.method)
        self.analyzer = TimingAnalyzer.for_placed(self.placed)
        self.dcrit_ps = self.analyzer.critical_delay_ps()
        self.generator = BodyBiasGenerator(self.clib.tech)
        self.monitor = InSituMonitor(self.analyzer, self.dcrit_ps * 1.0001)
        # Paths are beta-independent: extract once so population-scale
        # calibration does not redo path enumeration per die/iteration.
        self._paths = list(extract_paths(self.analyzer))
        self._grids: dict[tuple, SpatialSensorGrid] = {}
        self._groupings: dict[str, RowGrouping] = {}
        self._batched = None
        self._gate_rows: np.ndarray | None = None

    # -- bias-domain grouping ---------------------------------------------

    def _resolve_grouping(self,
                          row_betas: np.ndarray) -> RowGrouping | None:
        """The controller's grouping for the current sensed field.

        ``None``/"identity" (and any spec that resolves to per-row
        granularity) return None — the allocate step then runs exactly
        the pre-grouping path.  Field-independent strategies (bands,
        community) are resolved once and cached; field-driven ones
        (correlation) are rebuilt against every sensed field, so
        domain boundaries track what the monitors actually read.
        """
        spec = self.grouping
        if spec in (None, "identity"):
            return None
        if not is_field_driven(spec) and spec in self._groupings:
            resolved = self._groupings[spec]
        else:
            context = GroupingContext(
                num_rows=self.placed.num_rows,
                row_betas=np.asarray(row_betas, dtype=float),
                placed=self.placed)
            resolved = make_grouping(spec, context)
            if not is_field_driven(spec):
                self._groupings[spec] = resolved
        return None if resolved.is_identity else resolved

    def _allocate(self, problem: FBBProblem,
                  grouping: RowGrouping | None) -> BiasSolution:
        """One allocate step, at domain granularity when grouped."""
        if grouping is None:
            return self._solver.func(problem, self.max_clusters)
        reduced = reduce_problem(problem, grouping)
        solution = self._solver.func(reduced, self.max_clusters)
        return solution.expand_to(problem, grouping)

    def _base_delays(self) -> dict[str, float]:
        return {name: self.analyzer.calculator.gate_delay_ps(name)
                for name in self.placed.netlist.gates}

    def sensor_grid(self, num_regions: int = DEFAULT_SENSOR_REGIONS
                    ) -> SpatialSensorGrid:
        """The (cached) per-region monitor grid for spatial sensing."""
        key = ("grid", num_regions)
        if key not in self._grids:
            self._grids[key] = SpatialSensorGrid(
                self.placed, num_regions, self._base_delays(), self._paths)
        return self._grids[key]

    def replica_sensor_grid(self, num_regions: int = DEFAULT_SENSOR_REGIONS
                            ) -> SpatialSensorGrid:
        """The classic uniform-sensing baseline: one replica sensor.

        A single monitor physically occupying the die's central
        ``1/num_regions`` row band (the same silicon one monitor of the
        ``num_regions``-grid would get), its local reading applied
        die-wide.  This is the Sec. 3.1 single path-replica
        architecture the spatial experiments compare against: with long
        spatial correlation the centre of the die speaks for all of it,
        with short correlation the replica's blind spots grow.
        """
        key = ("replica", num_regions)
        if key not in self._grids:
            num_rows = self.placed.num_rows
            band = max(num_rows // max(min(num_regions, num_rows), 1), 1)
            lo = (num_rows - band) // 2
            self._grids[key] = SpatialSensorGrid(
                self.placed, 1, self._base_delays(), self._paths,
                sense_rows=(lo, lo + band))
        return self._grids[key]

    def _gate_scales(self, solution: BiasSolution) -> dict[str, float]:
        scales = {}
        for row, members in enumerate(self.placed.rows_to_gates()):
            scale = self.clib.delay_scales[solution.levels[row]]
            for name in members:
                scales[name] = scale
        return scales

    # -- batched-calibration surface (engine in repro.tuning.batched) -----

    def batched_analyzer(self) -> BatchedTimingAnalyzer:
        """The (cached) array STA engine compiled from this controller's
        scalar analyzer — the verify backend of batched calibration."""
        if self._batched is None:
            self._batched = BatchedTimingAnalyzer(self.analyzer)
        return self._batched

    def scale_row_of(self, solution: BiasSolution) -> np.ndarray:
        """A solution's per-gate delay scales as one batched-STA row.

        The array twin of :meth:`_gate_scales`: element ``i`` is
        ``delay_scales[levels[row_of(gate_names[i])]]``, so a verify
        through the batched engine prices exactly the mapping the
        scalar monitor would check.
        """
        if self._gate_rows is None:
            row_of = {}
            for row, members in enumerate(self.placed.rows_to_gates()):
                for name in members:
                    row_of[name] = row
            self._gate_rows = np.array(
                [row_of[name]
                 for name in self.batched_analyzer().gate_names],
                dtype=np.intp)
        scales = np.asarray(self.clib.delay_scales, dtype=float)
        return scales[solution.levels_array[self._gate_rows]]

    def initial_sensor_estimate(self, true_beta: float) -> float:
        """The sensor's quantised reading of a die's slowdown.

        The truth floored to the ``beta_step`` resolution grid (never
        below one step): sensors report in resolution ticks, so two dies
        with nearby slowdowns read identically.  Population-scale
        calibration leans on exactly this collision — distinct estimates
        across a wafer number ~``beta_max / beta_step``, so the batched
        engine solves each allocation subproblem once per estimate
        instead of once per die (DESIGN.md, "Batched calibration").
        """
        steps = math.floor(true_beta / self.beta_step)
        return max(round(steps * self.beta_step, 9), self.beta_step)

    def allocate_for_estimate(self, estimate: float) -> BiasSolution:
        """One die-wide allocate step at a scalar slowdown estimate.

        Builds the uniformly derated problem and solves it at the
        controller's grouping granularity — the exact build/allocate
        pair of one :meth:`calibrate` iteration, exposed so the batched
        population engine can share (and dedup) it.  Raises
        :class:`~repro.errors.TuningError` when even maximum bias cannot
        meet timing at this estimate.
        """
        try:
            problem = build_problem(self.placed, self.clib, estimate,
                                    analyzer=self.analyzer,
                                    paths=self._paths,
                                    dcrit_ps=self.dcrit_ps)
            return self._allocate(
                problem, self._resolve_grouping(problem.row_betas))
        except InfeasibleError as exc:
            raise TuningError(
                f"die beyond FBB recovery range: {exc}") from exc

    def calibrate(self, true_beta: float,
                  initial_estimate: float | None = None) -> TuningOutcome:
        """Run the sense/allocate/apply/verify loop against a real die.

        ``true_beta`` is the die's actual slowdown (hidden from the
        controller except through the sensors); ``initial_estimate``
        overrides the sensor reading, which defaults to
        :meth:`initial_sensor_estimate` — the truth floored to the
        ``beta_step`` grid, modelling sensor quantisation error and
        forcing a verify-driven bump whenever the floor undershoots.
        """
        if true_beta < 0:
            raise TuningError("die slowdown cannot be negative")
        history: list[str] = []

        if true_beta == 0 or not self.monitor.check(true_beta):
            history.append("no timing alarm: die meets spec unbiased")
            return TuningOutcome(
                converged=True, iterations=0, estimated_beta=0.0,
                solution=None,
                leakage_nw=float(
                    self.clib_leakage_unbiased()), settle_latency_us=0.0,
                history=history)

        estimate = (initial_estimate if initial_estimate is not None
                    else self.initial_sensor_estimate(true_beta))
        solution: BiasSolution | None = None
        for iteration in range(1, self.max_iterations + 1):
            solution = self.allocate_for_estimate(estimate)
            self.generator.program_solution(
                [solution.vbs_of_row(r)
                 for r in range(self.placed.num_rows)])
            scales = self._gate_scales(solution)
            alarm = self.monitor.check(true_beta, scales)
            history.append(
                f"iter {iteration}: estimate beta={estimate:.3f}, "
                f"leakage {solution.leakage_nw / 1e3:.3f} uW, "
                f"{'ALARM' if alarm else 'clean'}")
            if not alarm:
                return TuningOutcome(
                    converged=True, iterations=iteration,
                    estimated_beta=estimate, solution=solution,
                    leakage_nw=solution.leakage_nw,
                    settle_latency_us=self.generator.settle_latency_us(),
                    history=history)
            estimate = round(estimate + self.beta_step, 9)
        return TuningOutcome(
            converged=False, iterations=self.max_iterations,
            estimated_beta=estimate,
            solution=solution,
            leakage_nw=solution.leakage_nw if solution else 0.0,
            settle_latency_us=self.generator.settle_latency_us(),
            history=history)

    def calibrate_spatial(self, gate_scales: Mapping[str, float] | np.ndarray,
                          grid: SpatialSensorGrid | None = None,
                          num_regions: int = DEFAULT_SENSOR_REGIONS
                          ) -> TuningOutcome:
        """Run the closed loop against a die's actual delay-scale field.

        ``gate_scales`` is the die's per-gate delay-multiplier field (a
        mapping, or an array in the grid's ``gate_names`` order) — the
        sampled reality the sensors measure and the verify step checks
        against.  Each iteration senses per-region slowdowns, builds the
        heterogeneous per-row problem, allocates clustered biases, and
        verifies by full STA of the *combined* (die x bias) field; on a
        persisting alarm only the regions whose monitored paths still
        violate get their estimates bumped.  Raises
        :class:`~repro.errors.TuningError` when the die is beyond FBB
        recovery (allocation infeasible even at the current estimates).
        """
        if grid is None:
            grid = self.sensor_grid(num_regions)
        die_row = grid.as_row(gate_scales)
        if die_row.size and die_row.min() < 0:
            raise TuningError("gate delay scales cannot be negative")
        die_field = dict(zip(grid.gate_names, die_row.tolist()))
        history: list[str] = []

        if not self.monitor.check(0.0, die_field):
            history.append("no timing alarm: die meets spec unbiased")
            return TuningOutcome(
                converged=True, iterations=0, estimated_beta=0.0,
                solution=None, leakage_nw=self.clib_leakage_unbiased(),
                settle_latency_us=0.0, history=history,
                region_betas=tuple([0.0] * grid.num_regions))

        estimates = np.maximum(
            grid.estimate_region_betas(die_row), 0.0) + self.sense_guard
        solution: BiasSolution | None = None
        for iteration in range(1, self.max_iterations + 1):
            try:
                row_estimates = grid.row_betas(estimates)
                grouping = self._resolve_grouping(row_estimates)
                if grouping is not None:
                    # Sensing at domain granularity: map the monitor
                    # regions onto the bias domains, each domain reading
                    # the worst estimate over the rows it spans.
                    row_estimates = grouping.expand(
                        grid.group_betas(estimates, grouping))
                problem = build_problem(
                    self.placed, self.clib, row_estimates,
                    analyzer=self.analyzer, paths=self._paths,
                    dcrit_ps=self.dcrit_ps)
                solution = self._allocate(problem, grouping)
            except InfeasibleError as exc:
                raise TuningError(
                    f"die beyond FBB recovery range: {exc}") from exc
            self.generator.program_solution(
                [solution.vbs_of_row(r)
                 for r in range(self.placed.num_rows)])
            bias = self._gate_scales(solution)
            combined = {name: die_field[name] * bias[name]
                        for name in grid.gate_names}
            alarm = self.monitor.check(0.0, combined)
            history.append(
                f"iter {iteration}: region betas "
                f"[{', '.join(f'{b:.3f}' for b in estimates)}], "
                f"leakage {solution.leakage_nw / 1e3:.3f} uW, "
                f"{'ALARM' if alarm else 'clean'}")
            if not alarm:
                return TuningOutcome(
                    converged=True, iterations=iteration,
                    estimated_beta=float(estimates.max()),
                    solution=solution, leakage_nw=solution.leakage_nw,
                    settle_latency_us=self.generator.settle_latency_us(),
                    history=history,
                    region_betas=tuple(float(b) for b in estimates))
            # Localize the persisting alarm: bump only the regions whose
            # monitored paths still violate (all regions if the full-STA
            # alarm cannot be pinned to an extracted path).
            mask = grid.alarm_regions(
                np.array([combined[name] for name in grid.gate_names]),
                self.monitor.tcrit_ps)
            if not mask.any():
                mask = np.ones(grid.num_regions, dtype=bool)
            estimates = np.where(
                mask, np.round(estimates + self.beta_step, 9), estimates)
        return TuningOutcome(
            converged=False, iterations=self.max_iterations,
            estimated_beta=float(estimates.max()),
            solution=solution,
            leakage_nw=solution.leakage_nw if solution else 0.0,
            settle_latency_us=self.generator.settle_latency_us(),
            history=history,
            region_betas=tuple(float(b) for b in estimates))

    def clib_leakage_unbiased(self) -> float:
        """Design leakage with no body bias applied, nanowatts."""
        from repro.power.leakage import uniform_leakage_nw
        return uniform_leakage_nw(self.placed, self.clib, 0)
