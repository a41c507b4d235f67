"""Tests for the closed-loop lifetime engine (repro/tuning/lifetime.py),
the cross-epoch reuse of the controller's allocations, and the
``scales_out`` contract of the batched calibration engine it builds
on."""

import dataclasses

import numpy as np
import pytest

from repro.circuits import c1355_like
from repro.circuits.industrial import multiblock_soc
from repro.errors import TuningError
from repro.placement import place_design
from repro.synth import map_netlist
from repro.tech import characterize_library, reduced_library
from repro.tuning import (TuningController, calibrate_dies_batched,
                          run_lifetime)
from repro.variation import (DriftModel, MonteCarloResult, NbtiModel,
                             sample_dies)

LIBRARY = reduced_library()
CLIB = characterize_library(LIBRARY)

#: mild enough that re-calibration can actually recover dies instead of
#: saturating the bias rails (the regime the experiment reports on).
MILD = DriftModel(nbti=NbtiModel(prefactor_v=0.012),
                  activity_sigma_v=0.002)


@pytest.fixture(scope="module")
def placed():
    mapped = map_netlist(c1355_like(data_width=8, check_bits=4), LIBRARY)
    return place_design(mapped, LIBRARY)


@pytest.fixture(scope="module")
def population(placed):
    return sample_dies(placed, 25, seed=0)


def _controller(placed) -> TuningController:
    return TuningController(placed, CLIB)


def _without_runtime(summary):
    """A summary's deterministic view: the wall-clock field zeroed."""
    return dataclasses.replace(summary, runtime_s=0.0)


class TestLifetimeLoop:
    def test_summary_bookkeeping(self, placed, population):
        summary = run_lifetime(_controller(placed), population,
                               MILD, epochs=4, cadence=2,
                               beta_budget=0.02, seed=1)
        assert summary.design == placed.netlist.name
        assert summary.mode == "model"
        assert summary.num_regions is None
        assert summary.num_dies == 25
        assert len(summary.outcomes) == 4
        assert [o.recalibrated for o in summary.outcomes] \
            == [True, False, True, False]
        assert summary.recalibrations == 2
        assert [o.age_years for o in summary.outcomes] \
            == [MILD.epoch_years * (e + 1) for e in range(4)]
        curve = summary.yield_curve()
        assert curve == tuple(o.yield_fraction for o in summary.outcomes)
        assert summary.final_yield == curve[-1]
        assert summary.min_yield == min(curve)
        assert summary.mean_yield == pytest.approx(
            sum(curve) / len(curve))
        for outcome in summary.outcomes:
            assert outcome.meets + (outcome.total - outcome.meets) \
                == summary.num_dies
            assert outcome.yield_fraction == pytest.approx(
                outcome.meets / outcome.total)

    def test_deterministic(self, placed, population):
        first = run_lifetime(_controller(placed), population, MILD,
                             epochs=3, cadence=1, beta_budget=0.02,
                             seed=2)
        second = run_lifetime(_controller(placed), population, MILD,
                              epochs=3, cadence=1, beta_budget=0.02,
                              seed=2)
        assert first.outcomes == second.outcomes  # floats and all

    def test_drift_seed_changes_trajectory(self, placed, population):
        base = run_lifetime(_controller(placed), population, MILD,
                            epochs=3, cadence=1, seed=0)
        other = run_lifetime(_controller(placed), population, MILD,
                             epochs=3, cadence=1, seed=9)
        assert [o.mean_row_beta for o in base.outcomes] \
            != [o.mean_row_beta for o in other.outcomes]

    def test_frequent_recalibration_does_not_lose_yield(self, placed,
                                                        population):
        """Re-tuning every epoch must end no worse than tuning once at
        the start of life and coasting."""
        every = run_lifetime(_controller(placed), population, MILD,
                             epochs=4, cadence=1, beta_budget=0.02,
                             seed=1)
        once = run_lifetime(_controller(placed), population, MILD,
                            epochs=4, cadence=4, beta_budget=0.02,
                            seed=1)
        assert every.recalibrations == 4
        assert once.recalibrations == 1
        assert every.final_yield >= once.final_yield

    def test_larger_budget_never_hurts_yield(self, placed, population):
        tight = run_lifetime(_controller(placed), population, MILD,
                             epochs=3, cadence=1, beta_budget=0.0,
                             seed=1)
        loose = run_lifetime(_controller(placed), population, MILD,
                             epochs=3, cadence=1, beta_budget=0.05,
                             seed=1)
        for epoch in range(3):
            assert loose.yield_curve()[epoch] \
                >= tight.yield_curve()[epoch]

    def test_spatial_mode_runs_and_reports_regions(self, placed,
                                                   population):
        summary = run_lifetime(_controller(placed), population, MILD,
                               epochs=2, cadence=1, beta_budget=0.02,
                               mode="spatial", num_regions=4, seed=1)
        assert summary.mode == "spatial"
        assert summary.num_regions == min(4, placed.num_rows)
        assert len(summary.outcomes) == 2

    def test_empty_population_short_circuits(self, placed):
        empty = MonteCarloResult(samples=(), nominal_delay_ps=100.0)
        summary = run_lifetime(_controller(placed), empty, MILD,
                               epochs=3, cadence=1)
        assert summary.num_dies == 0
        assert summary.yield_curve() == (1.0, 1.0, 1.0)
        assert summary.min_yield == 1.0
        assert all(o.mean_leakage_nw == 0.0 for o in summary.outcomes)

    def test_all_dies_dead_epoch_is_well_formed(self, placed,
                                                population):
        """A drift field beyond FBB recovery range must produce a clean
        zero-yield epoch, not a division error or a crash."""
        hopeless = DriftModel(nbti=NbtiModel(prefactor_v=0.5),
                              activity_sigma_v=0.0)
        summary = run_lifetime(_controller(placed), population,
                               hopeless, epochs=2, cadence=1, seed=0)
        assert summary.min_yield == 0.0
        dead = summary.outcomes[-1]
        assert dead.meets == 0
        assert dead.yield_fraction == 0.0
        assert dead.total == summary.num_dies

    def test_validation(self, placed, population):
        controller = _controller(placed)
        with pytest.raises(TuningError, match="epochs"):
            run_lifetime(controller, population, MILD, epochs=0)
        with pytest.raises(TuningError, match="cadence"):
            run_lifetime(controller, population, MILD, epochs=2,
                         cadence=0)
        with pytest.raises(TuningError, match="exceeds"):
            run_lifetime(controller, population, MILD, epochs=2,
                         cadence=3)
        with pytest.raises(TuningError, match="budget"):
            run_lifetime(controller, population, MILD, epochs=2,
                         beta_budget=-0.1)
        with pytest.raises(TuningError, match="mode"):
            run_lifetime(controller, population, MILD, epochs=2,
                         mode="bogus")
        with pytest.raises(TuningError, match="region"):
            run_lifetime(controller, population, MILD, epochs=2,
                         mode="spatial", num_regions=0)

    def test_missing_scale_matrix_rejected(self, placed, population):
        stripped = MonteCarloResult(
            samples=population.samples,
            nominal_delay_ps=population.nominal_delay_ps,
            gate_names=population.gate_names)
        with pytest.raises(TuningError, match="scale matrix"):
            run_lifetime(_controller(placed), stripped, MILD, epochs=2)

    def test_foreign_population_rejected(self, placed):
        soc = place_design(
            map_netlist(multiblock_soc("soc_small", num_blocks=2,
                                       block_gates=220), LIBRARY),
            LIBRARY)
        foreign = sample_dies(soc, 5, seed=0)
        with pytest.raises(TuningError, match="gate order"):
            run_lifetime(_controller(placed), foreign, MILD, epochs=2)


class TestAllocationReuse:
    """Model-mode epochs share the controller's allocations: one
    ``build_problem`` per distinct estimate over the whole lifetime,
    none on a warm re-run, and the same summary as allocating afresh
    at every epoch."""

    RUN = dict(epochs=4, cadence=1, beta_budget=0.02, seed=1)

    def test_one_allocation_per_distinct_estimate(self, placed,
                                                  population,
                                                  monkeypatch):
        import repro.tuning.controller as controller_module
        estimates = []
        build = controller_module.build_problem

        def _counting(*args, **kwargs):
            estimates.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(controller_module, "build_problem", _counting)
        controller = _controller(placed)
        first = run_lifetime(controller, population, MILD, **self.RUN)
        assert first.recalibrations == 4
        assert estimates  # the aging population has dies to allocate for
        assert len(estimates) == len(set(estimates)) \
            == len(controller.allocations)

        calls = len(estimates)
        warm = run_lifetime(controller, population, MILD, **self.RUN)
        assert len(estimates) == calls  # the warm re-run allocates nothing
        assert _without_runtime(warm) == _without_runtime(first)

    def test_reuse_matches_allocating_afresh(self, placed, population,
                                             monkeypatch):
        import repro.tuning.lifetime as lifetime_module
        reused = run_lifetime(_controller(placed), population, MILD,
                              **self.RUN)
        calibrate = lifetime_module.calibrate_dies_batched

        def _afresh(controller, *args, **kwargs):
            controller.allocations.clear()
            return calibrate(controller, *args, **kwargs)

        monkeypatch.setattr(lifetime_module, "calibrate_dies_batched",
                            _afresh)
        afresh = run_lifetime(_controller(placed), population, MILD,
                              **self.RUN)
        assert _without_runtime(afresh) == _without_runtime(reused)


class TestScalesOut:
    """calibrate_dies_batched's scales_out out-param: the lifetime loop
    needs each die's applied bias row, the records must not change."""

    def test_records_unchanged_and_rows_reported(self, placed,
                                                 population):
        controller = _controller(placed)
        dies = [(die.index, float(beta))
                for die, beta in zip(population.samples,
                                     population.betas)]
        unbiased = controller.clib_leakage_unbiased()
        plain = calibrate_dies_batched(controller, dies, 0.0, unbiased)
        scales: dict[int, np.ndarray | None] = {}
        with_out = calibrate_dies_batched(controller, dies, 0.0,
                                          unbiased, scales_out=scales)
        assert with_out == plain  # out-param must not perturb records
        assert sorted(scales) == [index for index, _ in dies]
        num_gates = len(population.gate_names)
        for record in with_out:
            row = scales[record.index]
            if record.status == "recovered" and record.iterations >= 1:
                assert row is not None
                assert row.shape == (num_gates,)
                assert (row <= 1.0).all()  # FBB only speeds gates up
            elif record.status in ("ok-unbiased", "yield-loss"):
                assert row is None

    def test_biased_rows_exist_for_tuned_population(self, placed,
                                                    population):
        controller = _controller(placed)
        dies = [(die.index, float(beta))
                for die, beta in zip(population.samples,
                                     population.betas)]
        scales: dict[int, np.ndarray | None] = {}
        calibrate_dies_batched(controller, dies, 0.0,
                               controller.clib_leakage_unbiased(),
                               scales_out=scales)
        assert any(row is not None for row in scales.values())
