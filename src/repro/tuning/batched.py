"""Batched population calibration: the paper's closed sense/allocate/
apply/verify loop (Sec. 3.1, Fig. 2) advanced for a whole wafer per
matrix pass instead of die by die.

The per-die loop is dominated by work that is *identical across dies at
the same estimate*: sensors quantise slowdowns to the ``beta_step``
grid, so a thousand-die population reads only ~``beta_max / beta_step``
distinct estimates, and the allocate step (problem build + clustering
heuristic) depends on nothing but that estimate and the controller's
grouping.  This engine exploits both collisions:

1. **Sense** — one batched-STA sweep classifies every out-of-budget die
   (no alarm unbiased -> converged with zero iterations), and each
   remaining die gets its quantised estimate.
2. **Allocate** — solve once per *distinct* estimate, through the
   controller's ``allocations`` cache, which outlives the call (bumped
   estimates stay on the grid, so pass ``p+1`` mostly re-reads pass
   ``p``'s solutions, and each lifetime epoch re-reads the last's).
3. **Apply** — stack the per-estimate scale rows into the population's
   ``(dies, gates)`` bias matrix.
4. **Verify** — one :class:`~repro.sta.batched.BatchedTimingAnalyzer`
   pass over all still-active dies; converged dies leave the active
   set, alarmed dies bump their estimate one step, exactly the scalar
   controller's policy.  From the second pass on, verification goes
   through :meth:`~repro.sta.batched.BatchedTimingAnalyzer.refine`,
   re-propagating only the fan-out cones of gates whose bias moved.

Every arithmetic step reuses the scalar path's operations in the scalar
path's order (the controller's estimate bumps stay Python floats, the
scale rows are the array twin of ``_gate_scales``, the batched/scalar
STA contract covers the verify), so the records — and therefore the
:class:`~repro.tuning.population.PopulationTuningSummary` — are
bit-identical to the per-die loop.  The equivalence is enforced by
``tests/tuning/test_batched_equivalence.py`` and the throughput gate by
``benchmarks/bench_tuning_throughput.py``; see DESIGN.md, "Batched
calibration".
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TuningError
from repro.tuning.controller import TuningController
from repro.tuning.population import DieTuningRecord


def calibrate_dies_batched(controller: TuningController,
                           dies: Sequence[tuple[int, float]],
                           beta_budget: float,
                           unbiased_leakage_nw: float,
                           scales_out: dict[int, np.ndarray | None] | None
                           = None) -> list[DieTuningRecord]:
    """Calibrate ``(index, beta)`` dies population-at-a-time.

    The batched twin of mapping
    :func:`repro.tuning.population.calibrate_die` over ``dies``: the
    returned records (in input order) are bit-identical to that serial
    sweep.  Dies within budget short-circuit to ``"ok-unbiased"`` and an
    empty ``dies`` returns without touching the STA or allocation
    machinery at all — zero matrix passes.

    ``scales_out``, when given, is filled with each die's *applied* bias
    row (the :meth:`~TuningController.scale_row_of` vector of the last
    programmed solution, in the batched engine's gate order; read-only,
    because the controller's allocation cache shares it) — ``None``
    for dies that ended up unbiased (within budget, recovered at pass 0,
    or beyond FBB range).  The lifetime engine uses this to carry each
    die's programmed bias forward between re-calibrations; the records
    themselves are unchanged.
    """
    if beta_budget < 0:
        raise TuningError("beta budget cannot be negative")
    if not dies:
        return []
    records: dict[int, DieTuningRecord] = {}
    beta_of = dict(dies)

    def _record(index: int, status: str, iterations: int,
                leakage_nw: float,
                scale_row: np.ndarray | None = None) -> None:
        records[index] = DieTuningRecord(
            index=index, beta=beta_of[index], status=status,
            iterations=iterations, leakage_nw=float(leakage_nw))
        if scales_out is not None:
            scales_out[index] = scale_row

    # The budget relaxation calibrate_die applies before entering the
    # controller: tuning to the budgeted Dcrit at slowdown beta is
    # tuning to Dcrit at the effective slowdown below.
    active: list[int] = []
    effective: dict[int, float] = {}
    for index, beta in dies:
        if beta <= beta_budget:
            _record(index, "ok-unbiased", 0, unbiased_leakage_nw)
        else:
            effective[index] = (1.0 + beta) / (1.0 + beta_budget) - 1.0
            active.append(index)
    if not active:
        return [records[index] for index, _ in dies]

    batched = controller.batched_analyzer()
    monitor = controller.monitor
    alarm_at_ps = monitor.tcrit_ps - monitor.detection_window_ps

    # Pass 0 — batched sense: dies already meeting spec unbiased are the
    # scalar loop's zero-iteration early exit.
    derate = np.array([1.0 + effective[index] for index in active])
    unbiased_critical = batched.critical_delays(derate=derate)
    still: list[int] = []
    for index, critical in zip(active, unbiased_critical):
        if float(critical) > alarm_at_ps:
            still.append(index)
        else:
            _record(index, "recovered", 0, unbiased_leakage_nw)
    active = still

    estimates = {index: controller.initial_sensor_estimate(effective[index])
                 for index in active}
    # The controller's allocation cache, shared across passes and calls:
    # bumped estimates stay on the beta_step grid, so later passes (and
    # later lifetime epochs) mostly hit.
    solved = controller.allocations
    prev_position: dict[int, int] = {}
    prev_arrival: np.ndarray | None = None
    prev_scales: np.ndarray | None = None

    for iteration in range(1, controller.max_iterations + 1):
        if not active:
            break
        for value in sorted({estimates[index] for index in active}):
            if value not in solved:
                try:
                    solution = controller.allocate_for_estimate(value)
                    # The apply step: program_solution releases every
                    # rail before re-programming, so its rail-budget
                    # check is a pure function of the solution — a
                    # 3-rail solution fails every die at this estimate,
                    # exactly like the scalar loop's apply-time raise.
                    controller.generator.program_solution(
                        [solution.vbs_of_row(r)
                         for r in range(controller.placed.num_rows)])
                except TuningError:
                    solved[value] = None
                else:
                    row = controller.scale_row_of(solution)
                    row.flags.writeable = False
                    solved[value] = (row, solution.leakage_nw)
        still = []
        for index in active:
            if solved[estimates[index]] is None:
                # The scalar loop raises out of calibrate(); the die
                # record is calibrate_die's yield-loss catch.
                _record(index, "yield-loss", 0, unbiased_leakage_nw)
            else:
                still.append(index)
        active = still
        if not active:
            break

        scales = np.stack(
            [solved[estimates[index]][0] for index in active])
        derate = np.array([1.0 + effective[index] for index in active])
        if prev_arrival is not None and all(
                index in prev_position for index in active):
            keep = np.array([prev_position[index] for index in active],
                            dtype=np.intp)
            changed = (scales != prev_scales[keep]).any(axis=0)
            report = batched.refine(prev_arrival[keep], changed,
                                    scales=scales, derate=derate)
        else:
            report = batched.analyze(scales=scales, derate=derate)
        prev_position = {index: pos for pos, index in enumerate(active)}
        prev_arrival = report.arrival_ps
        prev_scales = scales

        alarms = report.critical_delay_ps > alarm_at_ps
        still = []
        for position, index in enumerate(active):
            if not alarms[position]:
                _record(index, "recovered", iteration,
                        solved[estimates[index]][1],
                        solved[estimates[index]][0])
            elif iteration == controller.max_iterations:
                # Scalar loop exhausted: not converged, last solution's
                # leakage (the estimate is bumped after the verify, so
                # the record prices the allocation actually applied).
                _record(index, "not-converged", controller.max_iterations,
                        solved[estimates[index]][1],
                        solved[estimates[index]][0])
            else:
                estimates[index] = round(
                    estimates[index] + controller.beta_step, 9)
                still.append(index)
        active = still

    return [records[index] for index, _ in dies]
