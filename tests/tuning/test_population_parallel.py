"""Serial-vs-parallel population tuning equivalence and the
empty-population regressions.

``tune_population(workers=1)`` is the reference implementation; the
sharded ``workers > 1`` path must reassemble records in die order and
produce a bit-identical :class:`PopulationTuningSummary` (frozen
dataclass equality, floats and all).  The tests here shard the per-die
``engine="serial"`` reference loop; ``test_batched_equivalence.py``
and ``test_spatial.py`` shard the batched engine and spatial mode.
Also pins the two serial-era crash bugs the parallel engine exposed:
``ZeroDivisionError`` on an empty population and the
NaN/`RuntimeWarning` from ``MonteCarloResult.timing_yield`` on empty
betas.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import c1355_like
from repro.errors import TuningError
from repro.placement import place_design
from repro.synth import map_netlist
from repro.tech import characterize_library, reduced_library
from repro.tuning import TuningController, calibrate_die, tune_population
from repro.variation import MonteCarloResult, sample_dies

LIBRARY = reduced_library()
CLIB = characterize_library(LIBRARY)


@pytest.fixture(scope="module")
def placed():
    mapped = map_netlist(c1355_like(data_width=10, check_bits=5), LIBRARY)
    return place_design(mapped, LIBRARY)


@pytest.fixture(scope="module")
def controller(placed):
    return TuningController(placed, CLIB)


class TestEmptyPopulation:
    """Regression: the serial era crashed on zero dies."""

    def test_timing_yield_of_empty_population_is_one(self):
        empty = MonteCarloResult(samples=(), nominal_delay_ps=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.mean would warn here
            assert empty.timing_yield() == 1.0
            assert empty.timing_yield(0.05) == 1.0

    def test_tune_empty_population_returns_clean_summary(self, controller):
        empty = MonteCarloResult(samples=(), nominal_delay_ps=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = tune_population(controller, empty)  # ZeroDivision!
        assert summary.num_dies == 0
        assert summary.records == ()
        assert summary.yield_before == 1.0
        assert summary.yield_after == 1.0
        assert summary.recovered == 0
        assert summary.lost == 0
        assert summary.mean_recovered_leakage_nw() == 0.0

    def test_tune_empty_population_parallel_request_is_fine(
            self, controller):
        empty = MonteCarloResult(samples=(), nominal_delay_ps=100.0)
        assert tune_population(controller, empty, workers=4) \
            == tune_population(controller, empty)


class TestSerialParallelEquivalence:
    def test_summaries_bit_identical(self, placed, controller):
        population = sample_dies(placed, 16, seed=2, store_scales=False)
        serial = tune_population(controller, population, engine="serial")
        for workers in (2, 4):
            parallel = tune_population(controller, population,
                                       workers=workers, engine="serial")
            assert parallel == serial  # records, yields, floats and all

    def test_records_stay_in_die_order(self, placed, controller):
        population = sample_dies(placed, 12, seed=5, store_scales=False)
        summary = tune_population(controller, population, workers=3,
                                  engine="serial")
        assert [record.index for record in summary.records] \
            == [die.index for die in population.samples]

    def test_more_workers_than_slow_dies(self, placed, controller):
        population = sample_dies(placed, 5, seed=2, store_scales=False)
        assert tune_population(controller, population, workers=16,
                               engine="serial") \
            == tune_population(controller, population, engine="serial")

    def test_beta_budget_respected_in_parallel(self, placed, controller):
        population = sample_dies(placed, 12, seed=2, store_scales=False)
        serial = tune_population(controller, population, beta_budget=0.03,
                                 engine="serial")
        parallel = tune_population(controller, population,
                                   beta_budget=0.03, workers=2,
                                   engine="serial")
        assert parallel == serial
        assert parallel.yield_before == population.timing_yield(0.03)

    def test_workers_validated(self, placed, controller):
        population = sample_dies(placed, 3, seed=2, store_scales=False)
        with pytest.raises(TuningError, match="workers"):
            tune_population(controller, population, workers=0)

    def test_calibrate_die_is_history_independent(self, placed,
                                                  controller):
        """The per-die unit of work must not depend on calibration
        order — the property that makes sharding sound."""
        unbiased = controller.clib_leakage_unbiased()
        first = calibrate_die(controller, 0, 0.05, 0.0, unbiased)
        calibrate_die(controller, 1, 0.09, 0.0, unbiased)  # mutate state
        again = calibrate_die(controller, 0, 0.05, 0.0, unbiased)
        assert again == first

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=50),
           workers=st.integers(min_value=2, max_value=4),
           beta_budget=st.sampled_from([0.0, 0.02]))
    def test_property_serial_equals_parallel(self, placed, controller,
                                             seed, workers, beta_budget):
        population = sample_dies(placed, 8, seed=seed,
                                 store_scales=False)
        serial = tune_population(controller, population,
                                 beta_budget=beta_budget, engine="serial")
        parallel = tune_population(controller, population,
                                   beta_budget=beta_budget,
                                   workers=workers, engine="serial")
        assert parallel == serial
