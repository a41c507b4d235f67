"""Wafer-scale tuning: run the closed calibration loop over a die
population.

The paper tunes one die at a time (Fig. 2); a production test floor
tunes *populations*.  This module takes a Monte Carlo population
(whose betas were measured in one batched-STA sweep), sends every
out-of-budget die through :class:`TuningController.calibrate`, and
aggregates the yield and leakage economics — the numbers behind the
process/thermal/aging example scripts.

Each die's calibration is independent, so ``tune_population`` can shard
a population across a process pool (``workers > 1``, via
``repro/flow/parallel.py``) with results bit-identical to the
in-process run; see DESIGN.md, "Parallel execution".

Two calibration modes mirror the controller's:

* ``mode="model"`` (default) — each slow die is modelled by its scalar
  measured beta (the paper's die-wide derate).  Its production engine
  (``engine="batched"``) advances the population at a time through
  :mod:`repro.tuning.batched` (one allocation per distinct quantised
  estimate, one matrix-STA verify per pass); ``engine="serial"`` runs
  the per-die reference loop, :func:`calibrate_die`, with bit-identical
  records (DESIGN.md, "Batched calibration");
* ``mode="spatial"`` — each slow die is calibrated against its sampled
  per-gate delay-scale field through a per-region sensor grid
  (``num_regions``; 1 = the die-uniform sensing baseline), which is the
  paper's physically-clustered compensation closed over the correlated
  intra-die field (DESIGN.md, "Spatial compensation").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from repro.errors import TuningError
from repro.tuning.controller import (DEFAULT_SENSOR_REGIONS,
                                     TuningController)
from repro.tuning.sensors import SpatialSensorGrid
from repro.variation.montecarlo import MonteCarloResult

#: supported population calibration modes
TUNING_MODES = ("model", "spatial")

#: model-mode calibration engines (``tune_population(engine=...)``,
#: ``RunSpec.tuning_engine``): bit-identical records, production first
TUNING_ENGINES = ("batched", "serial")

#: per-die outcome labels used in :class:`DieTuningRecord.status`
DIE_STATUSES = ("ok-unbiased", "recovered", "not-converged", "yield-loss")


@dataclass(frozen=True)
class DieTuningRecord:
    """One die's trip through the calibration loop."""

    index: int
    beta: float
    status: str
    iterations: int
    leakage_nw: float


@dataclass(frozen=True)
class PopulationTuningSummary:
    """Aggregate outcome of tuning a whole population."""

    records: tuple[DieTuningRecord, ...]
    yield_before: float
    yield_after: float
    unbiased_leakage_nw: float
    method: str = "heuristic:row-descent"
    """Solver-registry method the controller allocated with."""
    mode: str = "model"
    """Calibration mode: "model" (scalar beta) or "spatial" (field)."""
    num_regions: int | None = None
    """Sensor-grid resolution of a spatial run (None for model mode)."""

    @property
    def num_dies(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        if status not in DIE_STATUSES:
            raise TuningError(f"unknown die status {status!r}")
        return sum(1 for record in self.records if record.status == status)

    @property
    def recovered(self) -> int:
        return self.count("recovered")

    @property
    def lost(self) -> int:
        """Dies FBB cannot save: beyond range or not converged."""
        return self.count("yield-loss") + self.count("not-converged")

    def mean_recovered_leakage_nw(self) -> float:
        """Average leakage paid on the recovered dies (0 if none)."""
        values = [record.leakage_nw for record in self.records
                  if record.status == "recovered"]
        return float(np.mean(values)) if values else 0.0


def calibrate_die(controller: TuningController, index: int, beta: float,
                  beta_budget: float,
                  unbiased_leakage_nw: float) -> DieTuningRecord:
    """One die's trip through the calibration loop, as a pure function.

    The unit of work of the ``"serial"`` reference engine: the record
    depends only on ``(beta, beta_budget)`` and the controller's
    configuration, never on which dies were calibrated before it, which
    is what makes sharding a population across processes bit-identical
    to the in-process sweep.
    """
    if beta <= beta_budget:
        return DieTuningRecord(
            index=index, beta=beta, status="ok-unbiased",
            iterations=0, leakage_nw=unbiased_leakage_nw)
    effective_beta = (1.0 + beta) / (1.0 + beta_budget) - 1.0
    try:
        outcome = controller.calibrate(effective_beta)
    except TuningError:
        return DieTuningRecord(
            index=index, beta=beta, status="yield-loss",
            iterations=0, leakage_nw=unbiased_leakage_nw)
    status = "recovered" if outcome.converged else "not-converged"
    return DieTuningRecord(
        index=index, beta=beta, status=status,
        iterations=outcome.iterations, leakage_nw=outcome.leakage_nw)


def calibrate_die_spatial(controller: TuningController, index: int,
                          beta: float, scale_row: np.ndarray,
                          gate_names: Sequence[str], beta_budget: float,
                          unbiased_leakage_nw: float,
                          grid: SpatialSensorGrid) -> DieTuningRecord:
    """One die's spatial calibration, as a pure function.

    ``scale_row`` is the die's sampled per-gate delay-scale field in
    ``gate_names`` order (the population's batched-STA column order);
    the budget relaxation divides the field by ``1 + budget`` — the same
    multiplicative identity the model-mode path uses, expressed on the
    field instead of the scalar.  Pure in the same sense as
    :func:`calibrate_die`: the record depends only on the die's field
    and the controller/grid configuration, which is what keeps the
    parallel sharding bit-identical to the in-process sweep.
    """
    if beta <= beta_budget:
        return DieTuningRecord(
            index=index, beta=beta, status="ok-unbiased",
            iterations=0, leakage_nw=unbiased_leakage_nw)
    relaxed = np.asarray(scale_row, dtype=float) / (1.0 + beta_budget)
    field = dict(zip(gate_names, relaxed.tolist()))
    try:
        outcome = controller.calibrate_spatial(field, grid=grid)
    except TuningError:
        return DieTuningRecord(
            index=index, beta=beta, status="yield-loss",
            iterations=0, leakage_nw=unbiased_leakage_nw)
    status = "recovered" if outcome.converged else "not-converged"
    return DieTuningRecord(
        index=index, beta=beta, status=status,
        iterations=outcome.iterations, leakage_nw=outcome.leakage_nw)


def _serial_chunk(controller: TuningController,
                  dies: list[tuple[int, float]], beta_budget: float,
                  unbiased_leakage_nw: float) -> list[DieTuningRecord]:
    """The ``"serial"`` engine: :func:`calibrate_die` over each die."""
    return [calibrate_die(controller, index, beta, beta_budget,
                          unbiased_leakage_nw)
            for index, beta in dies]


def _spatial_chunk(controller: TuningController, dies: list[tuple],
                   beta_budget: float, unbiased_leakage_nw: float,
                   gate_names: Sequence[str], num_regions: int,
                   replica_sensor: bool) -> list[DieTuningRecord]:
    """Spatial mode: :func:`calibrate_die_spatial` over each
    ``(index, beta, scale_row)`` die, on the controller's cached grid."""
    grid = (controller.replica_sensor_grid(num_regions) if replica_sensor
            else controller.sensor_grid(num_regions))
    return [calibrate_die_spatial(controller, index, beta, scale_row,
                                  gate_names, beta_budget,
                                  unbiased_leakage_nw, grid)
            for index, beta, scale_row in dies]


def tune_population(controller: TuningController,
                    population: MonteCarloResult,
                    beta_budget: float = 0.0,
                    workers: int = 1,
                    mode: str = "model",
                    num_regions: int = DEFAULT_SENSOR_REGIONS,
                    replica_sensor: bool = False,
                    engine: str = "batched"
                    ) -> PopulationTuningSummary:
    """Calibrate every die of a population that misses the beta budget.

    Dies within budget are recorded as ``"ok-unbiased"``; the rest run
    the full sense/allocate/apply/verify loop, landing in
    ``"recovered"``, ``"not-converged"``, or ``"yield-loss"`` (beyond
    the FBB recovery range).

    A positive ``beta_budget`` relaxes the tuning target to the same
    budgeted Dcrit that defines ``yield_before``: since bias and derate
    scale every path delay multiplicatively, meeting
    ``Dcrit * (1 + budget)`` at slowdown ``beta`` is exactly meeting
    ``Dcrit`` at the effective slowdown
    ``(1 + beta) / (1 + budget) - 1``, which is what the controller is
    asked to recover.

    ``engine`` picks how model mode executes: ``"batched"`` advances
    all slow dies one sense/allocate/verify step per matrix pass
    (:func:`repro.tuning.batched.calibrate_dies_batched`),
    ``"serial"`` runs the per-die reference loop; the summaries are
    bit-identical.  Populations with no out-of-budget dies run zero
    matrix passes and zero allocations in both engines.

    ``mode="spatial"`` calibrates each slow die against its sampled
    per-gate field through a ``num_regions``-monitor sensor grid (it
    has one engine, so ``engine`` does not apply); the population must
    have been sampled with its scale matrix retained (``sample_dies``
    keeps it by default).  ``replica_sensor=True`` swaps the grid for
    the classic uniform-sensing baseline — a single replica monitor in
    the die's central ``1/num_regions`` band, its reading applied
    die-wide (the comparison arm of the spatial experiments).

    ``workers > 1`` shards the out-of-budget dies into contiguous
    per-process chunks (:func:`repro.flow.parallel.shard`), each run by
    the same chunk calibrator on a rebuilt controller; records are
    reassembled in die order, so the summary is bit-identical to the
    in-process ``workers=1`` path.

    An empty population is a well-defined no-op: zero records and a
    yield of 1.0 on both sides (regression for the old
    ``ZeroDivisionError`` at the ``good_after / len(records)`` step).
    """
    if beta_budget < 0:
        raise TuningError("beta budget cannot be negative")
    if workers < 1:
        raise TuningError(f"workers must be >= 1, got {workers}")
    if mode not in TUNING_MODES:
        raise TuningError(
            f"unknown tuning mode {mode!r}; choose from {TUNING_MODES}")
    if engine not in TUNING_ENGINES:
        raise TuningError(
            f"unknown tuning engine {engine!r}; choose from "
            f"{TUNING_ENGINES}")
    unbiased = controller.clib_leakage_unbiased()
    slow = [(die.index, die.beta) for die in population.samples
            if die.beta > beta_budget]
    regions = None
    if mode == "spatial":
        if population.scale_matrix is None:
            raise TuningError(
                "spatial tuning needs the population's scale matrix "
                "(sample with store_scales or the default sample_dies "
                "path)")
        if num_regions < 1:
            raise TuningError(
                f"need at least one sensor region, got {num_regions}")
        # The summary's resolution, clamped exactly as the grid clamps it.
        regions = (1 if replica_sensor
                   else min(num_regions, controller.placed.num_rows))
        slow = [(index, beta, population.scale_matrix[index])
                for index, beta in slow]
        calibrate = partial(
            _spatial_chunk, beta_budget=beta_budget,
            unbiased_leakage_nw=unbiased,
            gate_names=population.gate_names,
            num_regions=num_regions, replica_sensor=replica_sensor)
    elif engine == "batched":
        # Lazy import: calibrate_dies_batched imports this module's
        # record types.
        from repro.tuning.batched import calibrate_dies_batched
        calibrate = partial(calibrate_dies_batched, beta_budget=beta_budget,
                            unbiased_leakage_nw=unbiased)
    else:
        calibrate = partial(_serial_chunk, beta_budget=beta_budget,
                            unbiased_leakage_nw=unbiased)

    if not slow:
        tuned = []
    elif workers == 1 or len(slow) < 2:
        tuned = calibrate(controller, slow)
    else:
        # Lazy import: the flow layer sits above tuning in the module
        # graph, so the upward reference stays out of import time.
        from repro.flow.parallel import shard, tune_chunk
        blueprint = {f.name: getattr(controller, f.name)
                     for f in fields(controller) if f.init}
        tuned = shard(partial(tune_chunk, blueprint, calibrate), slow,
                      workers)
    by_index = {record.index: record for record in tuned}
    records = [by_index[die.index] if die.beta > beta_budget
               else DieTuningRecord(index=die.index, beta=die.beta,
                                    status="ok-unbiased", iterations=0,
                                    leakage_nw=unbiased)
               for die in population.samples]

    good_after = sum(1 for record in records
                     if record.status in ("ok-unbiased", "recovered"))
    return PopulationTuningSummary(
        records=tuple(records),
        yield_before=population.timing_yield(beta_budget),
        yield_after=good_after / len(records) if records else 1.0,
        unbiased_leakage_nw=unbiased,
        method=controller.method,
        mode=mode,
        num_regions=regions,
    )
