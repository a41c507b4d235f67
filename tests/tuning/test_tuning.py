"""Tests for sensors, bias generator and the closed tuning loop."""

import pytest

from repro.circuits import c1355_like
from repro.errors import TuningError
from repro.placement import place_design
from repro.sta import TimingAnalyzer
from repro.synth import map_netlist
from repro.tech import Technology, characterize_library, reduced_library
from repro.tuning import (BodyBiasGenerator, InSituMonitor,
                          TuningController, tune_population)
from repro.variation import sample_dies

LIBRARY = reduced_library()
CLIB = characterize_library(LIBRARY)


@pytest.fixture(scope="module")
def placed():
    mapped = map_netlist(c1355_like(data_width=10, check_bits=5), LIBRARY)
    return place_design(mapped, LIBRARY)


class TestInSituMonitor:
    def test_counts_alarms(self, placed):
        analyzer = TimingAnalyzer.for_placed(placed)
        monitor = InSituMonitor(analyzer, analyzer.critical_delay_ps())
        assert monitor.check(0.05)
        assert monitor.alarms_raised == 1
        assert not monitor.check(0.0)
        assert monitor.alarms_raised == 1


class TestPopulationTuning:
    def test_yield_recovers(self, placed):
        population = sample_dies(placed, 15, seed=2, store_scales=False)
        controller = TuningController(placed, CLIB)
        summary = tune_population(controller, population)
        assert summary.num_dies == 15
        assert summary.yield_before == population.timing_yield()
        assert summary.yield_after >= summary.yield_before
        assert summary.count("ok-unbiased") + summary.recovered \
            + summary.lost == 15
        statuses = {record.status for record in summary.records}
        assert statuses <= {"ok-unbiased", "recovered", "not-converged",
                            "yield-loss"}

    def test_recovered_dies_pay_leakage(self, placed):
        population = sample_dies(placed, 15, seed=2, store_scales=False)
        controller = TuningController(placed, CLIB)
        summary = tune_population(controller, population)
        if summary.recovered:
            assert summary.mean_recovered_leakage_nw() \
                > summary.unbiased_leakage_nw

    def test_unknown_status_rejected(self, placed):
        population = sample_dies(placed, 3, seed=2, store_scales=False)
        controller = TuningController(placed, CLIB)
        summary = tune_population(controller, population)
        with pytest.raises(TuningError):
            summary.count("vaporised")

    def test_beta_budget_relaxes_target(self, placed):
        """With a budget, dies are tuned to the budgeted Dcrit — never
        more dies lost than when recovering all the way to nominal."""
        population = sample_dies(placed, 15, seed=2, store_scales=False)
        controller = TuningController(placed, CLIB)
        strict = tune_population(controller, population)
        relaxed = tune_population(controller, population,
                                  beta_budget=0.04)
        assert relaxed.lost <= strict.lost
        assert relaxed.yield_after >= strict.yield_after
        assert relaxed.yield_before == population.timing_yield(0.04)
        with pytest.raises(TuningError):
            tune_population(controller, population, beta_budget=-0.1)


class TestGenerator:
    def test_quantizes_up(self):
        generator = BodyBiasGenerator(Technology())
        assert generator.program("vbs1", 0.12) == pytest.approx(0.15)

    def test_rail_budget_enforced(self):
        generator = BodyBiasGenerator(Technology())
        generator.program("vbs1", 0.1)
        generator.program("vbs2", 0.2)
        with pytest.raises(TuningError):
            generator.program("vbs3", 0.3)

    def test_reprogramming_existing_rail_allowed(self):
        generator = BodyBiasGenerator(Technology())
        generator.program("vbs1", 0.1)
        generator.program("vbs2", 0.2)
        assert generator.program("vbs1", 0.3) == pytest.approx(0.3)

    def test_out_of_range_rejected(self):
        generator = BodyBiasGenerator(Technology())
        with pytest.raises(TuningError):
            generator.program("vbs1", 0.7)

    def test_release_frees_rail(self):
        generator = BodyBiasGenerator(Technology())
        generator.program("vbs1", 0.1)
        generator.release("vbs1")
        generator.program("vbsX", 0.2)
        with pytest.raises(TuningError):
            generator.release("vbs1")

    def test_program_solution(self):
        generator = BodyBiasGenerator(Technology())
        mapping = generator.program_solution([0.0, 0.1, 0.1, 0.3])
        assert set(mapping) == {0.1, 0.3}
        assert generator.rail_voltages == {
            "vbs1": 0.1, "vbs2": pytest.approx(0.3)}

    def test_settle_latency(self):
        generator = BodyBiasGenerator(Technology(), settle_time_us=4.0)
        generator.program("vbs1", 0.1)
        generator.program("vbs1", 0.2)
        assert generator.settle_latency_us() == pytest.approx(8.0)


class TestController:
    def test_fast_die_untouched(self, placed):
        controller = TuningController(placed, CLIB)
        outcome = controller.calibrate(0.0)
        assert outcome.converged
        assert outcome.iterations == 0
        assert outcome.solution is None

    def test_slow_die_recovered(self, placed):
        # max_clusters=2 keeps the allocation inside the generator's
        # two-rail budget for any legal placement of the fixture.
        controller = TuningController(placed, CLIB, max_clusters=2)
        outcome = controller.calibrate(0.06)
        assert outcome.converged
        assert outcome.solution is not None
        assert outcome.solution.num_clusters <= 3
        # verify: no alarm at the final setting
        scales = controller._gate_scales(outcome.solution)
        assert not controller.monitor.check(0.06, scales)

    def test_underestimate_forces_iteration(self, placed):
        controller = TuningController(placed, CLIB, max_clusters=2)
        outcome = controller.calibrate(0.06, initial_estimate=0.01)
        assert outcome.converged
        assert outcome.iterations > 1

    def test_unrecoverable_die_raises(self, placed):
        controller = TuningController(placed, CLIB)
        with pytest.raises(TuningError):
            controller.calibrate(0.40)

    def test_negative_beta_rejected(self, placed):
        controller = TuningController(placed, CLIB)
        with pytest.raises(TuningError):
            controller.calibrate(-0.1)

    def test_history_records_iterations(self, placed):
        controller = TuningController(placed, CLIB, max_clusters=2)
        outcome = controller.calibrate(0.05)
        assert outcome.history
        assert any("iter 1" in line for line in outcome.history)
