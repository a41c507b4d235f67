"""Tests for the spatial compensation engine (paper Sec. 3.1 sensing
closed over the correlated intra-die field): SpatialSensorGrid,
TuningController.calibrate_spatial, and tune_population's spatial mode.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec
from repro.circuits import multiblock_soc
from repro.errors import TuningError
from repro.flow import ArtifactCache, implement, run_spatial
from repro.placement import place_design
from repro.synth import map_netlist
from repro.tech import characterize_library, reduced_library
from repro.tuning import (SpatialSensorGrid, TuningController,
                          tune_population)
from repro.variation import ProcessModel, sample_dies

LIBRARY = reduced_library()
CLIB = characterize_library(LIBRARY)

#: process model with strong, block-scale spatial structure
MODEL = ProcessModel(sigma_inter_v=0.004, sigma_intra_v=0.03,
                     intra_independent_fraction=0.1,
                     correlation_length_fraction=0.25)


@pytest.fixture(scope="module")
def placed():
    soc = multiblock_soc("soc_test", num_blocks=4, block_gates=130,
                         seed=3)
    return place_design(map_netlist(soc, LIBRARY), LIBRARY)


@pytest.fixture(scope="module")
def controller(placed):
    return TuningController(placed, CLIB, max_clusters=3,
                            sense_guard=0.01)


@pytest.fixture(scope="module")
def population(placed):
    return sample_dies(placed, 30, model=MODEL, seed=9,
                       store_scales=False)


class TestSpatialSensorGrid:
    def test_bands_partition_rows(self, controller, placed):
        grid = controller.sensor_grid(4)
        covered = []
        for lo, hi in grid.row_bands:
            covered.extend(range(lo, hi))
        assert covered == list(range(placed.num_rows))
        assert grid.num_regions == 4

    def test_region_count_clamped_to_rows(self, controller, placed):
        grid = controller.sensor_grid(placed.num_rows + 50)
        assert grid.num_regions == placed.num_rows

    def test_rejects_zero_regions(self, placed):
        with pytest.raises(TuningError, match="region"):
            SpatialSensorGrid(placed, 0, {}, ())

    def test_uniform_field_sensed_uniformly(self, controller):
        grid = controller.sensor_grid(4)
        field = {name: 1.07 for name in grid.gate_names}
        estimates = grid.estimate_region_betas(field)
        assert estimates == pytest.approx(np.full(4, 0.07))

    def test_localized_slowdown_sensed_locally(self, controller, placed):
        grid = controller.sensor_grid(4)
        lo, hi = grid.row_bands[2]
        field = {name: (1.10 if lo <= placed.row_of(name) < hi else 1.0)
                 for name in grid.gate_names}
        estimates = grid.estimate_region_betas(field)
        assert estimates[2] == pytest.approx(0.10)
        others = [estimates[region] for region in (0, 1, 3)]
        assert max(others) < 0.02  # bands share at most boundary rows

    def test_row_betas_expand_and_floor(self, controller, placed):
        grid = controller.sensor_grid(4)
        betas = grid.row_betas(np.array([-0.05, 0.0, 0.08, 0.01]))
        assert betas.shape == (placed.num_rows,)
        assert betas.min() == 0.0  # negative estimates floored
        lo, hi = grid.row_bands[2]
        assert (betas[lo:hi] == pytest.approx(0.08))

    def test_row_betas_shape_checked(self, controller):
        grid = controller.sensor_grid(4)
        with pytest.raises(TuningError, match="region betas"):
            grid.row_betas(np.zeros(3))

    def test_alarm_regions_localize_violations(self, controller, placed):
        grid = controller.sensor_grid(4)
        lo, hi = grid.row_bands[1]
        field = {name: (1.2 if lo <= placed.row_of(name) < hi else 1.0)
                 for name in grid.gate_names}
        mask = grid.alarm_regions(field, controller.dcrit_ps * 1.0001)
        assert mask[1]
        clean = grid.alarm_regions(
            {name: 1.0 for name in grid.gate_names},
            controller.dcrit_ps * 1.0001)
        assert not clean.any()

    def test_replica_grid_is_one_central_monitor(self, controller,
                                                 placed):
        grid = controller.replica_sensor_grid(4)
        assert grid.num_regions == 1
        lo, hi = grid.sense_rows
        assert 0 < lo and hi < placed.num_rows  # central band only
        # Its single reading ignores a slowdown outside its band.
        field = {name: (1.10 if placed.row_of(name) < lo else 1.0)
                 for name in grid.gate_names}
        assert grid.estimate_region_betas(field)[0] < 0.02


class TestCalibrateSpatial:
    def test_clean_die_needs_no_bias(self, controller):
        grid = controller.sensor_grid(4)
        field = {name: 1.0 for name in grid.gate_names}
        outcome = controller.calibrate_spatial(field)
        assert outcome.converged
        assert outcome.iterations == 0
        assert outcome.solution is None
        assert outcome.region_betas == (0.0,) * 4

    def test_recovers_a_localized_slow_band(self, controller, placed):
        grid = controller.sensor_grid(4)
        # Slow only the band hosting the design's critical path (the
        # global Dcrit lives in one block on this workload), so the
        # alarm is real but stays local.
        critical_gate = controller._paths[0].gates[0]
        hot = int(grid.gate_region[grid._index[critical_gate]])
        lo, hi = grid.row_bands[hot]
        field = {name: (1.06 if lo <= placed.row_of(name) < hi else 1.0)
                 for name in grid.gate_names}
        outcome = controller.calibrate_spatial(field)
        assert outcome.converged
        assert outcome.solution is not None
        assert outcome.region_betas[hot] >= 0.05
        # Some far band stayed cold: its estimate never grew past the
        # guard, so allocation is targeted, not uniform.
        cold = [outcome.region_betas[region] for region in range(4)
                if region != hot]
        assert min(cold) <= 0.02

    def test_negative_scales_rejected(self, controller):
        grid = controller.sensor_grid(4)
        field = {name: -1.0 for name in grid.gate_names}
        with pytest.raises(TuningError, match="negative"):
            controller.calibrate_spatial(field)

    def test_unrecoverable_die_raises(self, controller):
        grid = controller.sensor_grid(4)
        field = {name: 1.30 for name in grid.gate_names}
        with pytest.raises(TuningError, match="beyond FBB recovery"):
            controller.calibrate_spatial(field)


class TestTunePopulationSpatial:
    def test_spatial_mode_summary(self, controller, population):
        summary = tune_population(controller, population,
                                  beta_budget=0.02, mode="spatial",
                                  num_regions=4)
        assert summary.mode == "spatial"
        assert summary.num_regions == 4
        assert summary.num_dies == population.num_dies
        assert summary.yield_after >= summary.yield_before

    def test_unknown_mode_rejected(self, controller, population):
        with pytest.raises(TuningError, match="mode"):
            tune_population(controller, population, mode="psychic")

    def test_model_mode_unchanged_defaults(self, controller, population):
        summary = tune_population(controller, population,
                                  beta_budget=0.02)
        assert summary.mode == "model"
        assert summary.num_regions is None

    def test_workers_bit_identical(self, controller, population):
        serial = tune_population(controller, population,
                                 beta_budget=0.02, mode="spatial",
                                 num_regions=4)
        pooled = tune_population(controller, population,
                                 beta_budget=0.02, mode="spatial",
                                 num_regions=4, workers=4)
        assert serial == pooled

    def test_replica_sensor_arm_runs(self, placed, population):
        uniform_controller = TuningController(
            placed, CLIB, method="single_bb", sense_guard=0.01)
        summary = tune_population(uniform_controller, population,
                                  beta_budget=0.02, mode="spatial",
                                  num_regions=4, replica_sensor=True)
        assert summary.mode == "spatial"
        assert summary.num_regions == 1  # one replica monitor

    def test_spatial_needs_scale_matrix(self, controller, population):
        stripped = dataclasses.replace(population, scale_matrix=None)
        with pytest.raises(TuningError, match="scale matrix"):
            tune_population(controller, stripped, mode="spatial")


class TestRunSpatialHarness:
    def test_spatial_arm_dominates_uniform(self):
        soc = multiblock_soc("soc_harness", num_blocks=4,
                             block_gates=130, seed=3)
        flow = implement(soc, cache=ArtifactCache())
        row = run_spatial(flow, RunSpec(
            kind="spatial", num_dies=24, seed=9,
            process=dataclasses.asdict(MODEL), num_regions=4,
            beta_budget=0.02))
        assert row.num_regions == 4
        assert row.correlation_length == 0.25
        assert row.spatial_yield >= row.uniform_yield
        if row.spatial_yield == row.uniform_yield:
            assert row.spatial_leakage_uw <= row.uniform_leakage_uw
