"""Tests for the end-to-end flow and the experiment harnesses."""

import pytest

from repro.flow import (ExperimentConfig, PopulationConfig, format_population,
                        format_sweep, format_table1, implement,
                        run_design_beta, run_population)


@pytest.fixture(scope="module")
def flow():
    return implement("c1355")


class TestImplement:
    def test_produces_consistent_result(self, flow):
        assert flow.name == "c1355"
        assert flow.num_gates > 300
        assert flow.num_rows > 5
        assert flow.dcrit_ps == pytest.approx(
            flow.analyzer.critical_delay_ps())

    def test_paths_cover_design(self, flow):
        covered = set()
        for path in flow.paths:
            covered.update(path.gates)
        assert len(covered) == flow.num_gates

    def test_accepts_custom_netlist(self):
        from repro.circuits import c3540_like
        result = implement(c3540_like(width=6))
        assert result.name == "c3540"

    def test_unknown_benchmark_rejected(self):
        from repro.errors import NetlistError
        with pytest.raises(NetlistError):
            implement("c17")


class TestTable1Harness:
    def test_single_row(self, flow):
        config = ExperimentConfig(betas=(0.05,), ilp_time_limit_s=60)
        row = run_design_beta(flow, 0.05, config)
        assert row.design == "c1355"
        assert row.single_bb_uw > 0
        assert row.num_constraints > 0
        for clusters in (2, 3):
            assert row.ilp_savings[clusters] is not None
            assert row.heuristic_savings[clusters] >= 0
            # the exact method dominates the greedy one
            assert (row.ilp_savings[clusters]
                    >= row.heuristic_savings[clusters] - 1e-6)

    def test_skip_ilp_threshold(self, flow):
        config = ExperimentConfig(betas=(0.05,), skip_ilp_above_rows=1)
        row = run_design_beta(flow, 0.05, config)
        assert row.ilp_savings[2] is None
        assert row.ilp_cell(2) == "-"

    def test_savings_grow_with_beta(self, flow):
        config = ExperimentConfig(betas=(0.05, 0.10))
        rows = [run_design_beta(flow, beta, config) for beta in config.betas]
        assert rows[1].heuristic_savings[3] > rows[0].heuristic_savings[3]
        assert rows[1].num_constraints > rows[0].num_constraints

    def test_formatting(self, flow):
        config = ExperimentConfig(betas=(0.05,))
        rows = [run_design_beta(flow, 0.05, config)]
        table = format_table1(rows)
        assert "c1355" in table
        assert "No.Constr" in table

    def test_sweep_formatting(self):
        text = format_sweep("c5315", 0.05, [2, 3, 4], [10.0, 11.0, 11.5])
        assert "c5315" in text
        assert "+1.00" in text


class TestPopulationHarness:
    def test_sample_only_row(self, flow):
        config = PopulationConfig(num_dies=30, seed=3)
        row = run_population(flow, config)
        assert row.design == "c1355"
        assert row.num_dies == 30
        assert row.beta_std > 0
        assert 0 <= row.timing_yield <= 1
        assert row.tuned_yield is None
        assert row.sta_engine == "batched"

    def test_tuned_row_improves_yield(self, flow):
        config = PopulationConfig(num_dies=12, seed=3, tune=True)
        row = run_population(flow, config)
        assert row.tuned_yield is not None
        assert row.tuned_yield >= row.timing_yield
        assert row.recovered + row.lost \
            == round((1 - row.timing_yield) * row.num_dies)

    def test_study_and_formatting(self, flow):
        config = PopulationConfig(num_dies=20, seed=1)
        rows = [run_population(flow, config)]
        text = format_population(rows)
        assert "c1355" in text
        assert "STA engine: batched" in text
