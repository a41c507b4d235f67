"""Tests for the repro.api facade: RunSpec/RunResult serialization,
cache-backed execution, and numerical parity with the direct call paths.
"""

import dataclasses
import json

import pytest

from repro.api import (RunResult, RunSpec, population_row_from_payload,
                       population_row_payload, run, run_many, solver_names,
                       table1_row_from_payload, table1_row_payload)
from repro.core import build_problem, solve_heuristic, solve_single_bb
from repro.errors import SpecError
from repro.flow import (ArtifactCache, ExperimentConfig, PopulationConfig,
                        implement, run_design_beta, run_population)


@pytest.fixture(scope="module")
def cache():
    return ArtifactCache()


@pytest.fixture(scope="module")
def flow(cache):
    return implement("c1355", cache=cache)


class TestRunSpec:
    def test_json_round_trip_bit_identical(self):
        spec = RunSpec(kind="table1", design="c5315", beta=0.10,
                       cluster_budgets=(2, 3, 4), seed=7,
                       tech={"vth0_n": 0.47})
        text = spec.to_json()
        recovered = RunSpec.from_json(text)
        assert recovered == spec
        assert recovered.to_json() == text

    def test_dict_round_trip_restores_tuples(self):
        spec = RunSpec(cluster_budgets=(2, 3))
        data = json.loads(spec.to_json())
        assert data["cluster_budgets"] == [2, 3]
        assert RunSpec.from_dict(data).cluster_budgets == (2, 3)

    def test_spec_hash_is_content_addressed(self):
        assert RunSpec(seed=1).spec_hash() == RunSpec(seed=1).spec_hash()
        assert RunSpec(seed=1).spec_hash() != RunSpec(seed=2).spec_hash()

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            RunSpec(kind="fig7")

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"kind": "allocate", "solver": "ilp"})

    def test_newer_schema_rejected(self):
        with pytest.raises(SpecError, match="schema"):
            RunSpec(schema_version=99)

    def test_validation(self):
        with pytest.raises(SpecError):
            RunSpec(beta=-0.1)
        with pytest.raises(SpecError):
            RunSpec(clusters=0)
        with pytest.raises(SpecError):
            RunSpec(num_dies=0)

    def test_technology_overrides(self):
        tech = RunSpec(tech={"vth0_n": 0.48}).technology()
        assert tech.vth0_n == 0.48
        nested = RunSpec(
            tech={"bias_rules": {"max_bias_rails": 1}}).technology()
        assert nested.bias_rules.max_bias_rails == 1
        with pytest.raises(SpecError, match="bad tech overrides"):
            RunSpec(tech={"not_a_knob": 1}).technology()

    def test_solver_names_exposed(self):
        names = solver_names()
        assert "ilp:highs" in names
        assert "heuristic" in names  # aliases included by default

    def test_workers_is_an_execution_knob_not_key_material(self):
        """workers parallelizes execution without changing the result,
        so it must not participate in the content address."""
        assert RunSpec(workers=1).spec_hash() \
            == RunSpec(workers=4).spec_hash()
        material = RunSpec(workers=4).cache_material()
        assert "workers" not in material
        assert RunSpec(workers=4).to_dict()["workers"] == 4  # serialized

    def test_workers_round_trips_and_validates(self):
        spec = RunSpec(workers=3)
        assert RunSpec.from_json(spec.to_json()) == spec
        with pytest.raises(SpecError, match="workers"):
            RunSpec(workers=0)


#: RunSpec's float-typed fields, read off the dataclass so that a new
#: one is covered without editing this test
FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(RunSpec)
                     if "float" in str(f.type))

#: one numeric leaf per override dict (drift's sits one level down)
OVERRIDE_LEAVES = {
    "tech": lambda value: {"vth0_n": value},
    "process": lambda value: {"sigma_intra_v": value},
    "drift": lambda value: {"nbti": {"prefactor_v": value}},
}


class TestBoundaryValidation:
    """Non-finite numbers and unknown solver names fail when the spec
    is built, not deep inside execution."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")], ids=repr)
    @pytest.mark.parametrize("name", FLOAT_FIELDS + tuple(OVERRIDE_LEAVES))
    def test_non_finite_numbers_rejected(self, name, value):
        wrap = OVERRIDE_LEAVES.get(name, lambda v: v)
        with pytest.raises(SpecError, match="must be finite"):
            RunSpec(**{name: wrap(value)})

    def test_float_fields_found(self):
        assert {"beta", "beta_budget", "utilization",
                "ilp_time_limit_s"} <= set(FLOAT_FIELDS)

    def test_nan_allocate_spec_never_runs(self):
        """Regression: this spec used to run and report timing_ok with
        every level 0 and a 0% saving."""
        with pytest.raises(SpecError, match="beta must be finite"):
            RunSpec(kind="allocate", design="c1355", beta=float("nan"))
        with pytest.raises(SpecError, match="beta must be finite"):
            RunSpec.from_json(
                '{"kind": "allocate", "design": "c1355", "beta": NaN}')

    def test_unknown_method_rejected(self):
        with pytest.raises(SpecError, match="registered methods"):
            RunSpec(method="nope")

    def test_unknown_ilp_backend_rejected(self):
        for backend in ("bogus", "simplex"):
            with pytest.raises(SpecError, match="ilp_backend"):
                RunSpec(kind="table1", ilp_backend=backend)

    def test_solver_aliases_accepted(self):
        assert RunSpec(method="ilp").method == "ilp"
        assert RunSpec(kind="table1", ilp_backend="bnb").ilp_backend \
            == "bnb"


class TestRunResultRoundTrip:
    def test_allocate_result_bit_identical(self, cache):
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05)
        result = run(spec, cache=cache)
        text = result.to_json()
        recovered = RunResult.from_json(text)
        assert recovered == result
        assert recovered.to_json() == text

    def test_malformed_result_rejected(self):
        with pytest.raises(SpecError, match="malformed"):
            RunResult.from_dict({"payload": {}})

    def test_kind_mismatch_decoding_rejected(self, cache):
        result = run(RunSpec(kind="allocate", design="c1355"), cache=cache)
        with pytest.raises(SpecError, match="not a table1"):
            result.to_table1_row()
        with pytest.raises(SpecError, match="not a population"):
            result.to_population_row()


class TestCacheSemantics:
    def test_rerun_hits_cache_with_identical_payload(self, cache):
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05,
                       method="heuristic:level-sweep")
        cold = run(spec, cache=cache)
        warm = run(spec, cache=cache)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.payload == cold.payload
        assert cache.stats()["by_kind"]["run"]["hits"] >= 1

    def test_use_cache_false_reexecutes(self, cache):
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05)
        run(spec, cache=cache)
        fresh = run(spec, cache=cache, use_cache=False)
        assert not fresh.cache_hit

    def test_different_specs_do_not_collide(self, cache):
        a = run(RunSpec(kind="allocate", design="c1355", beta=0.05,
                        clusters=2), cache=cache)
        b = run(RunSpec(kind="allocate", design="c1355", beta=0.05,
                        clusters=3), cache=cache)
        assert a.payload["savings_pct"] <= b.payload["savings_pct"] + 1e-9

    def test_payloads_are_isolated_from_the_cache(self, cache):
        """Mutating a returned payload must not corrupt later hits."""
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05,
                       clusters=2, method="single_bb")
        first = run(spec, cache=cache)
        pristine = first.payload["savings_pct"]
        first.payload["savings_pct"] = -999.0
        second = run(spec, cache=cache)
        assert second.cache_hit
        assert second.payload["savings_pct"] == pristine
        second.payload["levels"].append(42)
        third = run(spec, cache=cache)
        assert third.payload["levels"] == second.payload["levels"][:-1]

    def test_run_cache_is_keyed_on_spec_hash(self, cache):
        """spec_hash() is the documented run-cache key: the cached
        artifact must be addressable by it directly."""
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05,
                       method="heuristic:level-sweep", clusters=2)
        result = run(spec, cache=cache)
        found, payload = cache.lookup("run", spec.spec_hash())
        assert found
        assert payload == result.payload

    def test_run_many_shares_cache(self, cache):
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05,
                       method="single_bb")
        results = run_many([spec, spec], cache=cache)
        assert [r.cache_hit for r in results] == [False, True]
        assert results[0].payload == results[1].payload

    def test_workers_variants_share_one_cache_entry(self, cache):
        """A serial run's artifact must serve a workers=N spec."""
        base = RunSpec(kind="allocate", design="c1355", beta=0.05,
                       method="single_bb")
        cold = run(base, cache=cache)
        warm = run(RunSpec(kind="allocate", design="c1355", beta=0.05,
                           method="single_bb", workers=4), cache=cache)
        assert warm.cache_hit
        assert warm.payload == cold.payload


class TestParityWithDirectPaths:
    """The facade must reproduce the pre-refactor numbers exactly."""

    def test_allocate_matches_direct_solve(self, cache, flow):
        spec = RunSpec(kind="allocate", design="c1355", beta=0.05,
                       method="heuristic:row-descent", clusters=3)
        payload = run(spec, cache=cache).payload
        problem = build_problem(flow.placed, flow.clib, 0.05,
                                analyzer=flow.analyzer,
                                paths=list(flow.paths),
                                dcrit_ps=flow.dcrit_ps)
        baseline = solve_single_bb(problem)
        direct = solve_heuristic(problem, 3, strategy="row-descent")
        assert payload["levels"] == list(direct.levels)
        assert payload["savings_pct"] \
            == direct.savings_vs(baseline.leakage_nw)
        assert payload["baseline_uw"] == baseline.leakage_uw

    def test_table1_matches_run_design_beta(self, cache, flow):
        spec = RunSpec(kind="table1", design="c1355", beta=0.05,
                       ilp_time_limit_s=60.0)
        row = run(spec, cache=cache).to_table1_row()
        config = ExperimentConfig(betas=(0.05,), ilp_time_limit_s=60.0)
        direct = run_design_beta(flow, 0.05, config)
        assert row.design == direct.design
        assert row.single_bb_uw == direct.single_bb_uw
        assert row.ilp_savings == direct.ilp_savings
        assert row.heuristic_savings == direct.heuristic_savings
        assert row.num_constraints == direct.num_constraints

    def test_population_matches_run_population(self, cache, flow):
        spec = RunSpec(kind="population", design="c1355", num_dies=25,
                       seed=11)
        row = run(spec, cache=cache).to_population_row()
        direct = run_population(flow, PopulationConfig(num_dies=25,
                                                       seed=11))
        assert row.beta_mean == direct.beta_mean
        assert row.beta_std == direct.beta_std
        assert row.beta_max == direct.beta_max
        assert row.timing_yield == direct.timing_yield
        assert row.seed == direct.seed == 11

    def test_table1_payload_codec_inverts(self, cache):
        spec = RunSpec(kind="table1", design="c1355", beta=0.05,
                       ilp_time_limit_s=60.0, skip_ilp_above_rows=1)
        row = run(spec, cache=cache).to_table1_row()
        assert row.ilp_savings[2] is None  # skip threshold -> '-' cell
        assert table1_row_from_payload(table1_row_payload(row)) == row

    def test_population_payload_codec_inverts(self, cache, flow):
        row = run_population(flow, PopulationConfig(num_dies=10, seed=2))
        assert population_row_from_payload(
            population_row_payload(row)) == row


class TestSpatialKind:
    """The spatial RunSpec kind: serialization, hashing, execution."""

    SPEC = dict(kind="spatial", design="soc_quad", num_dies=12, seed=9,
                beta_budget=0.02, num_regions=4,
                process={"sigma_intra_v": 0.03,
                         "correlation_length_fraction": 0.5})

    def test_json_round_trip_bit_identical(self):
        spec = RunSpec(**self.SPEC)
        text = spec.to_json()
        recovered = RunSpec.from_json(text)
        assert recovered == spec
        assert recovered.to_json() == text

    def test_hash_stable_across_round_trips(self):
        spec = RunSpec(**self.SPEC)
        assert RunSpec.from_json(spec.to_json()).spec_hash() \
            == spec.spec_hash()
        assert RunSpec(**self.SPEC).spec_hash() == spec.spec_hash()

    def test_workers_stays_an_execution_knob(self):
        """PR 3 semantics carry over: a spatial spec's content address
        must not depend on workers, so serial artifacts serve pooled
        runs and vice versa."""
        serial = RunSpec(**self.SPEC)
        pooled = RunSpec(**dict(self.SPEC, workers=4))
        assert serial.spec_hash() == pooled.spec_hash()
        assert "workers" not in pooled.cache_material()
        assert pooled.to_dict()["workers"] == 4

    def test_experiment_knobs_are_key_material(self):
        base = RunSpec(**self.SPEC)
        assert RunSpec(**dict(self.SPEC, num_regions=8)).spec_hash() \
            != base.spec_hash()
        other = dict(self.SPEC,
                     process={"sigma_intra_v": 0.03,
                              "correlation_length_fraction": 0.25})
        assert RunSpec(**other).spec_hash() != base.spec_hash()

    def test_num_regions_validated(self):
        with pytest.raises(SpecError, match="num_regions"):
            RunSpec(kind="spatial", num_regions=0)

    def test_process_model_materializes(self):
        model = RunSpec(**self.SPEC).process_model()
        assert model.sigma_intra_v == 0.03
        assert model.correlation_length_fraction == 0.5
        assert RunSpec(kind="spatial").process_model() is None
        with pytest.raises(SpecError, match="bad process overrides"):
            RunSpec(kind="spatial",
                    process={"not_a_knob": 1}).process_model()

    def test_executes_matches_run_spatial_and_caches(self, cache):
        from repro.flow import SpatialConfig, implement, run_spatial
        result = run(RunSpec(**self.SPEC), cache=cache)
        row = result.to_spatial_row()
        flow = implement("soc_quad", cache=cache)
        direct = run_spatial(flow, SpatialConfig(
            num_dies=12, seed=9, beta_budget=0.02, num_regions=4,
            model=RunSpec(**self.SPEC).process_model()))
        assert row.spatial_yield == direct.spatial_yield
        assert row.uniform_yield == direct.uniform_yield
        assert row.spatial_leakage_uw == direct.spatial_leakage_uw
        warm = run(RunSpec(**self.SPEC), cache=cache)
        assert warm.cache_hit
        assert warm.payload == result.payload

    def test_decoder_guards_kind(self, cache):
        result = run(RunSpec(kind="allocate", design="c1355"),
                     cache=cache)
        with pytest.raises(SpecError, match="not a spatial"):
            result.to_spatial_row()


class TestGroupingSpecAxis:
    """RunSpec.grouping: validated, hash-stable at the default, and a
    real content-address axis at non-default values."""

    #: pre-grouping-layer spec hashes, pinned: the "identity" default
    #: must keep producing exactly these (cache compatibility contract)
    PINNED_HASHES = {
        "allocate": ("063de3e769689a42551908e93d94d914"
                     "3c0b13635c8ec033d2916e017cc5ec55"),
        "table1": ("df4a54b909a0e30109447494e1fe772a"
                   "a13372f6f2c273bb88de80880d62137f"),
        "population": ("dea35a2504697a6c0ccf4d2257f9a9c8"
                       "1402eec33519a5e62dc026444ec2cc9b"),
        "spatial": ("88c5ba6b0d4fd03502415f9035e4e445"
                    "c4eb5069f1041082311efa6c899dee82"),
    }

    def test_default_hashes_pinned_to_pre_grouping_values(self):
        for kind, expected in self.PINNED_HASHES.items():
            assert RunSpec(kind=kind, design="c1355").spec_hash() == \
                expected, f"{kind} spec hash drifted"

    def test_identity_grouping_not_key_material(self):
        spec = RunSpec(kind="allocate", design="c1355")
        assert "grouping" not in spec.cache_material()
        assert spec.to_dict()["grouping"] == "identity"

    def test_non_default_grouping_is_key_material(self):
        plain = RunSpec(kind="allocate", design="c1355")
        banded = RunSpec(kind="allocate", design="c1355",
                         grouping="bands:4")
        assert banded.cache_material()["grouping"] == "bands:4"
        assert banded.spec_hash() != plain.spec_hash()
        assert RunSpec(kind="allocate", design="c1355",
                       grouping="bands:8").spec_hash() != \
            banded.spec_hash()

    def test_pre_grouping_json_still_parses(self):
        spec = RunSpec.from_json(
            '{"kind": "allocate", "design": "c1355", "beta": 0.05}')
        assert spec.grouping == "identity"

    def test_grouping_round_trips(self):
        spec = RunSpec(kind="allocate", design="c1355",
                       grouping="correlation:4")
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_bad_grouping_spec_rejected(self):
        with pytest.raises(SpecError, match="grouping"):
            RunSpec(kind="allocate", design="c1355", grouping="bands:-2")
        with pytest.raises(SpecError, match="grouping"):
            RunSpec(kind="allocate", design="c1355", grouping="mystery:3")

    def test_identity_payload_has_no_grouping_keys(self, cache):
        result = run(RunSpec(kind="allocate", design="c1355"),
                     cache=cache)
        for key in ("grouping", "num_groups", "num_domains"):
            assert key not in result.payload

    def test_grouped_allocate_payload(self, cache, flow):
        result = run(RunSpec(kind="allocate", design="c1355",
                             grouping="bands:4"), cache=cache)
        payload = result.payload
        assert payload["grouping"] == "bands:4"
        assert payload["num_groups"] == 4
        assert payload["num_domains"] <= 4
        assert payload["timing_ok"]
        # the expanded assignment is constant within each band
        from repro.grouping import RowGrouping
        grouping = RowGrouping.contiguous_bands(payload["rows"], 4)
        for rows in grouping.rows_of_groups():
            assert len({payload["levels"][row] for row in rows}) == 1

    def test_grouped_and_identity_results_cached_separately(self, cache):
        plain = run(RunSpec(kind="allocate", design="c1355"), cache=cache)
        banded = run(RunSpec(kind="allocate", design="c1355",
                             grouping="bands:4"), cache=cache)
        assert plain.payload["levels"] != banded.payload["levels"] or \
            plain.payload.keys() != banded.payload.keys()

    def test_grouped_table1_runs(self, cache):
        result = run(RunSpec(kind="table1", design="c1355",
                             grouping="bands:4",
                             skip_ilp_above_rows=1), cache=cache)
        row = result.to_table1_row()
        assert row.heuristic_savings  # solved at domain granularity

    def test_grouped_population_spec_runs(self, cache):
        result = run(RunSpec(kind="population", design="c1355",
                             num_dies=10, tune=True, grouping="bands:3",
                             beta_budget=0.02), cache=cache)
        row = result.to_population_row()
        assert row.tuned_yield is not None


class TestLifetimeKind:
    """The lifetime RunSpec kind: serialization, hash-stable defaults,
    drift materialization, execution parity with run_lifetime_study."""

    SPEC = dict(kind="lifetime", design="c1355", num_dies=12, seed=5,
                epochs=3, cadence=1, beta_budget=0.02,
                drift={"activity_sigma_v": 0.002,
                       "nbti": {"prefactor_v": 0.012}})

    def test_json_round_trip_bit_identical(self):
        spec = RunSpec(**self.SPEC)
        text = spec.to_json()
        recovered = RunSpec.from_json(text)
        assert recovered == spec
        assert recovered.to_json() == text
        assert recovered.spec_hash() == spec.spec_hash()

    def test_default_lifetime_fields_not_key_material(self):
        """Pre-lifetime specs must keep their content addresses: the
        new fields elide at their defaults for every kind."""
        material = RunSpec(kind="allocate", design="c1355").cache_material()
        for fieldname in ("epochs", "cadence", "drift", "mode"):
            assert fieldname not in material
        assert RunSpec(kind="allocate", design="c1355").spec_hash() == \
            TestGroupingSpecAxis.PINNED_HASHES["allocate"]

    def test_lifetime_knobs_are_key_material(self):
        base = RunSpec(**self.SPEC)
        assert RunSpec(**dict(self.SPEC, epochs=6)).spec_hash() \
            != base.spec_hash()
        assert RunSpec(**dict(self.SPEC, cadence=3)).spec_hash() \
            != base.spec_hash()
        assert RunSpec(**dict(self.SPEC, mode="spatial")).spec_hash() \
            != base.spec_hash()
        assert RunSpec(**dict(self.SPEC, drift={})).spec_hash() \
            != base.spec_hash()

    def test_pre_lifetime_json_still_parses(self):
        spec = RunSpec.from_json(
            '{"kind": "population", "design": "c1355", "num_dies": 10}')
        assert spec.epochs == 8
        assert spec.cadence == 1
        assert spec.drift == {}
        assert spec.mode == "model"

    def test_validation(self):
        with pytest.raises(SpecError, match="epochs"):
            RunSpec(kind="lifetime", epochs=0)
        with pytest.raises(SpecError, match="cadence"):
            RunSpec(kind="lifetime", cadence=0)
        with pytest.raises(SpecError, match="never re-calibrate"):
            RunSpec(kind="lifetime", epochs=2, cadence=5)
        with pytest.raises(SpecError, match="mode"):
            RunSpec(kind="lifetime", mode="bogus")

    def test_drift_model_materializes(self):
        drift = RunSpec(**self.SPEC).drift_model()
        assert drift.activity_sigma_v == 0.002
        assert drift.nbti.prefactor_v == 0.012
        assert RunSpec(kind="lifetime").drift_model() is None
        with pytest.raises(SpecError, match="bad drift overrides"):
            RunSpec(kind="lifetime",
                    drift={"not_a_knob": 1}).drift_model()
        with pytest.raises(SpecError, match="bad nbti overrides"):
            RunSpec(kind="lifetime",
                    drift={"nbti": {"not_a_knob": 1}}).drift_model()

    def test_executes_matches_run_lifetime_study_and_caches(self, cache,
                                                            flow):
        from repro.flow import LifetimeConfig, run_lifetime_study
        result = run(RunSpec(**self.SPEC), cache=cache)
        row = result.to_lifetime_row()
        direct = run_lifetime_study(flow, LifetimeConfig(
            num_dies=12, seed=5, epochs=3, cadence=1, beta_budget=0.02,
            drift=RunSpec(**self.SPEC).drift_model()))
        assert row.yield_curve == direct.yield_curve
        assert row.final_yield == direct.final_yield
        assert row.mean_leakage_uw == direct.mean_leakage_uw
        assert row.recalibrations == direct.recalibrations
        warm = run(RunSpec(**self.SPEC), cache=cache)
        assert warm.cache_hit
        assert warm.payload == result.payload

    def test_payload_codec_inverts(self, cache):
        from repro.api import (lifetime_row_from_payload,
                               lifetime_row_payload)
        result = run(RunSpec(**self.SPEC), cache=cache)
        row = result.to_lifetime_row()
        assert lifetime_row_from_payload(lifetime_row_payload(row)) == row
        assert isinstance(row.yield_curve, tuple)

    def test_decoder_guards_kind(self, cache):
        result = run(RunSpec(kind="allocate", design="c1355"),
                     cache=cache)
        with pytest.raises(SpecError, match="not a lifetime"):
            result.to_lifetime_row()


class TestPlacerSpecAxis:
    """RunSpec.placer: validated against the registry, hash-stable at
    the "bfs" default, and a real content-address axis otherwise."""

    def test_placer_is_hashed_field(self):
        from repro.api import HASHED_FIELDS
        assert "placer" in HASHED_FIELDS

    def test_default_placer_not_key_material(self):
        spec = RunSpec(kind="allocate", design="c1355")
        assert "placer" not in spec.cache_material()
        assert spec.to_dict()["placer"] == "bfs"

    def test_default_hashes_unchanged_by_placer_field(self):
        """The bfs default elides, so every pre-placer spec hash from
        TestGroupingSpecAxis.PINNED_HASHES must still hold."""
        for kind, expected in TestGroupingSpecAxis.PINNED_HASHES.items():
            assert RunSpec(kind=kind, design="c1355").spec_hash() == \
                expected, f"{kind} spec hash drifted with placer field"

    def test_non_default_placer_is_key_material(self):
        plain = RunSpec(kind="allocate", design="c1355")
        annealed = RunSpec(kind="allocate", design="c1355",
                           placer="anneal:quick")
        assert annealed.cache_material()["placer"] == "anneal:quick"
        assert annealed.spec_hash() != plain.spec_hash()
        assert RunSpec(kind="allocate", design="c1355",
                       placer="anneal:deep").spec_hash() != \
            annealed.spec_hash()

    def test_pre_placer_json_still_parses(self):
        spec = RunSpec.from_json(
            '{"kind": "allocate", "design": "c1355", "beta": 0.05}')
        assert spec.placer == "bfs"

    def test_placer_round_trips(self):
        spec = RunSpec(kind="allocate", design="c1355",
                       placer="anneal:default")
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_bad_placer_spec_rejected(self):
        with pytest.raises(SpecError, match="placer"):
            RunSpec(kind="allocate", design="c1355", placer="mystery")
        with pytest.raises(SpecError, match="placer"):
            RunSpec(kind="allocate", design="c1355", placer="")

    def test_alias_accepted(self):
        spec = RunSpec(kind="allocate", design="c1355", placer="anneal")
        assert spec.placer == "anneal"
        assert spec.cache_material()["placer"] == "anneal"

    def test_annealed_allocate_runs_and_caches(self, cache):
        spec = RunSpec(kind="allocate", design="c1355",
                       placer="anneal:quick")
        cold = run(spec, cache=cache)
        warm = run(spec, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.payload == cold.payload
        # distinct content address from the bfs baseline run
        assert spec.spec_hash() != RunSpec(
            kind="allocate", design="c1355").spec_hash()
