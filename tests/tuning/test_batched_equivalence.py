"""Batched-vs-serial population calibration equivalence harness.

``tune_population(engine="batched")``, the model-mode production engine,
is an execution engine, not a new experiment: for any population,
budget, grouping and worker count its
:class:`PopulationTuningSummary` must equal the per-die reference path
(``engine="serial"``) bit for bit (frozen dataclass equality — statuses, iteration counts,
leakage floats and all).  This suite drives that contract over
randomized populations (seeds, circuits, beta budgets, groupings
including ``bands:k`` and ``correlation:k``), checks ``workers=N``
sharding of the batched engine against ``workers=1``, checks that
the allocations a controller keeps from one call change nothing in
the next, and pins the short-circuit behaviour: an all-converged or
empty out-of-budget set runs zero matrix passes and zero allocations
in both engines (DESIGN.md, "Batched calibration").
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import c1355_like
from repro.circuits.industrial import multiblock_soc
from repro.errors import TuningError
from repro.placement import place_design
from repro.synth import map_netlist
from repro.tech import characterize_library, reduced_library
from repro.tuning import (TuningController, calibrate_dies_batched,
                          tune_population)
from repro.variation import MonteCarloResult, sample_dies

LIBRARY = reduced_library()
CLIB = characterize_library(LIBRARY)

GROUPINGS = (None, "bands:4", "correlation:4")

_PLACED = {}
_CONTROLLERS = {}


def _placed(design: str):
    if design not in _PLACED:
        netlist = (c1355_like(data_width=10, check_bits=5)
                   if design == "c1355_small"
                   else multiblock_soc("soc_small", num_blocks=2,
                                       block_gates=220))
        _PLACED[design] = place_design(map_netlist(netlist, LIBRARY),
                                       LIBRARY)
    return _PLACED[design]


def _controller(design: str, grouping: str | None) -> TuningController:
    """Module-cached controllers: construction re-runs STA + path
    extraction, which would dominate the property suite's runtime."""
    key = (design, grouping)
    if key not in _CONTROLLERS:
        _CONTROLLERS[key] = TuningController(_placed(design), CLIB,
                                             grouping=grouping)
    return _CONTROLLERS[key]


@pytest.fixture(scope="module")
def placed():
    return _placed("c1355_small")


@pytest.fixture(scope="module")
def controller(placed):
    return TuningController(placed, CLIB)


class TestBatchedEquivalence:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=200),
           design=st.sampled_from(["c1355_small", "soc_small"]),
           beta_budget=st.sampled_from([0.0, 0.02, 0.05]),
           grouping=st.sampled_from(GROUPINGS))
    def test_property_batched_equals_serial(self, seed, design,
                                            beta_budget, grouping):
        population = sample_dies(_placed(design), 12, seed=seed,
                                 store_scales=False)
        ctl = _controller(design, grouping)
        serial = tune_population(ctl, population, beta_budget=beta_budget,
                                 engine="serial")
        batched = tune_population(ctl, population,
                                  beta_budget=beta_budget,
                                  engine="batched")
        assert batched == serial  # bit-identical, floats and all

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=200),
           workers=st.integers(min_value=2, max_value=4),
           beta_budget=st.sampled_from([0.0, 0.02]))
    def test_property_batched_workers_bit_identical(self, placed,
                                                    controller, seed,
                                                    workers, beta_budget):
        population = sample_dies(placed, 10, seed=seed,
                                 store_scales=False)
        reference = tune_population(controller, population,
                                    beta_budget=beta_budget,
                                    engine="batched")
        sharded = tune_population(controller, population,
                                  beta_budget=beta_budget,
                                  engine="batched", workers=workers)
        assert sharded == reference

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=200),
           design=st.sampled_from(["c1355_small", "soc_small"]),
           beta_budget=st.sampled_from([0.0, 0.02, 0.05]),
           grouping=st.sampled_from(GROUPINGS))
    def test_property_reused_allocations_bit_identical(self, seed, design,
                                                       beta_budget,
                                                       grouping):
        """Population B calibrated after population A on one controller
        equals B on a fresh controller and B through the serial
        engine: the allocations kept from A are exact."""
        placed = _placed(design)
        first = sample_dies(placed, 12, seed=seed, store_scales=False)
        second = sample_dies(placed, 12, seed=seed + 1,
                             store_scales=False)
        warm = TuningController(placed, CLIB, grouping=grouping)
        tune_population(warm, first, beta_budget=beta_budget,
                        engine="batched")
        reused = tune_population(warm, second, beta_budget=beta_budget,
                                 engine="batched")
        fresh = tune_population(
            TuningController(placed, CLIB, grouping=grouping), second,
            beta_budget=beta_budget, engine="batched")
        serial = tune_population(_controller(design, grouping), second,
                                 beta_budget=beta_budget, engine="serial")
        assert reused.records == fresh.records == serial.records

    def test_summary_records_model_mode(self, placed, controller):
        """Batched is an execution knob: the summary says "model" so it
        compares equal to (and cache-aliases) the per-die path."""
        population = sample_dies(placed, 6, seed=2, store_scales=False)
        summary = tune_population(controller, population, engine="batched")
        assert summary.mode == "model"

    def test_includes_yield_loss_and_not_converged(self, placed):
        """The equivalence must hold through the failure statuses too:
        a single-iteration controller leaves slow dies not-converged,
        and rail-overflow/infeasible dies yield-loss — pick a seed
        population wide enough to exercise them."""
        ctl_a = TuningController(placed, CLIB, max_iterations=1)
        ctl_b = TuningController(placed, CLIB, max_iterations=1)
        population = sample_dies(placed, 40, seed=3, store_scales=False)
        serial = tune_population(ctl_a, population, engine="serial")
        batched = tune_population(ctl_b, population, engine="batched")
        assert serial == batched
        statuses = {record.status for record in serial.records}
        assert "recovered" in statuses or "not-converged" in statuses

    def test_record_order_and_indices_preserved(self, placed, controller):
        population = sample_dies(placed, 9, seed=4, store_scales=False)
        summary = tune_population(controller, population,
                                  engine="batched", workers=3)
        assert [record.index for record in summary.records] \
            == [die.index for die in population.samples]

    def test_direct_engine_rejects_negative_budget(self, controller):
        with pytest.raises(TuningError):
            calibrate_dies_batched(controller, [(0, 0.05)], -0.1, 100.0)

    def test_unknown_mode_rejected(self, placed, controller):
        population = sample_dies(placed, 3, seed=0, store_scales=False)
        with pytest.raises(TuningError, match="mode"):
            tune_population(controller, population, mode="bogus")

    def test_unknown_engine_rejected(self, placed, controller):
        population = sample_dies(placed, 3, seed=0, store_scales=False)
        with pytest.raises(TuningError, match="engine"):
            tune_population(controller, population, engine="bogus")


class TestShortCircuit:
    """An all-converged or empty out-of-budget set must construct no
    problem, no allocation, no grid and run zero matrix passes."""

    def test_empty_population_batched(self, controller):
        empty = MonteCarloResult(samples=(), nominal_delay_ps=100.0)
        assert tune_population(controller, empty, engine="batched") \
            == tune_population(controller, empty, engine="serial")

    def test_empty_dies_list_is_a_no_op(self, placed):
        ctl = TuningController(placed, CLIB)
        assert calibrate_dies_batched(ctl, [], 0.0, 100.0) == []
        assert ctl._batched is None  # sense pass never compiled

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_all_within_budget_builds_no_problem(self, placed, engine,
                                                 monkeypatch):
        """Regression: every die inside the budget must never reach the
        problem/allocation machinery in either engine."""
        import repro.tuning.controller as controller_module
        population = sample_dies(placed, 10, seed=2, store_scales=False)
        budget = float(population.betas.max()) + 0.01

        def _forbidden(*args, **kwargs):
            raise AssertionError("build_problem called for an "
                                 "all-converged population")

        monkeypatch.setattr(controller_module, "build_problem",
                            _forbidden)
        ctl = TuningController(placed, CLIB)
        summary = tune_population(ctl, population, beta_budget=budget,
                                  engine=engine)
        assert all(record.status == "ok-unbiased"
                   for record in summary.records)
        if engine == "batched":
            assert ctl._batched is None  # zero matrix passes

    def test_all_within_budget_spatial_builds_no_grid(self, placed):
        """Regression: the spatial path used to construct its sensor
        grid (path/incidence matrices) even when no die needed it."""
        population = sample_dies(placed, 8, seed=2)
        budget = float(population.betas.max()) + 0.01
        ctl = TuningController(placed, CLIB)
        summary = tune_population(ctl, population, beta_budget=budget,
                                  mode="spatial", num_regions=4)
        assert ctl._grids == {}
        assert summary.num_regions == min(4, placed.num_rows)
        assert all(record.status == "ok-unbiased"
                   for record in summary.records)

    def test_spatial_region_validation_still_eager(self, placed):
        """Laziness must not swallow the num_regions validation."""
        population = sample_dies(placed, 4, seed=2)
        budget = float(population.betas.max()) + 0.01
        ctl = TuningController(placed, CLIB)
        with pytest.raises(TuningError, match="region"):
            tune_population(ctl, population, beta_budget=budget,
                            mode="spatial", num_regions=0)

    def test_sensed_converged_dies_skip_allocation(self, placed,
                                                   monkeypatch):
        """Out-of-budget dies that already meet spec unbiased converge
        in the sense pass — no allocation in either engine."""
        import repro.tuning.controller as controller_module
        # A beta above 0 but below the alarm threshold: Tcrit carries a
        # 1.0001 margin, so a tiny slowdown sails through unbiased.
        dies = [(0, 5e-6), (1, 3e-6)]

        def _forbidden(*args, **kwargs):
            raise AssertionError("allocation ran for sensed-clean dies")

        monkeypatch.setattr(controller_module, "build_problem",
                            _forbidden)
        ctl = TuningController(placed, CLIB)
        unbiased = ctl.clib_leakage_unbiased()
        records = calibrate_dies_batched(ctl, dies, 0.0, unbiased)
        assert [r.status for r in records] == ["recovered", "recovered"]
        assert [r.iterations for r in records] == [0, 0]


class TestEngineSelection:
    """``tuning_engine="serial"`` stays a distinct reference arm, so a
    serial-vs-batched comparison compares two different engines."""

    def test_serial_engine_never_reaches_batched(self, monkeypatch):
        import repro.tuning.batched as batched_module
        import repro.tuning.population as population_module
        from repro.api import RunSpec, execute_spec
        from repro.flow.cache import ArtifactCache

        def _forbidden(*args, **kwargs):
            raise AssertionError("calibrate_dies_batched reached")

        per_die = []
        calibrate_die = population_module.calibrate_die

        def _counting(controller, index, *args):
            per_die.append(index)
            return calibrate_die(controller, index, *args)

        monkeypatch.setattr(batched_module, "calibrate_dies_batched",
                            _forbidden)
        monkeypatch.setattr(population_module, "calibrate_die", _counting)
        cache = ArtifactCache()
        spec = RunSpec(kind="population", design="c1355", num_dies=30,
                       seed=9, tune=True, tuning_engine="serial")
        payload = execute_spec(spec, cache=cache)
        assert per_die  # the population has slow dies to calibrate
        assert len(per_die) == payload["recovered"] + payload["lost"]
        # The patch is live: the batched arm does reach it.
        with pytest.raises(AssertionError, match="reached"):
            execute_spec(RunSpec(**dict(spec.to_dict(),
                                        tuning_engine="batched")),
                         cache=cache)
