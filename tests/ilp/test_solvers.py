"""Tests for the MILP substrate: model, branch & bound, HiGHS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.ilp import (MilpModel, Sense, Status, solve_branch_bound,
                       solve_highs)


def knapsack_model() -> MilpModel:
    """max 10x0 + 6x1 + 4x2  s.t. x0+x1+x2<=2 (as minimisation)."""
    model = MilpModel("knapsack")
    items = [model.add_binary(f"item{i}") for i in range(3)]
    model.set_objective({items[0]: -10, items[1]: -6, items[2]: -4})
    model.add_constraint({i: 1 for i in items}, Sense.LE, 2)
    return model


def infeasible_model() -> MilpModel:
    model = MilpModel("bad")
    x = model.add_binary()
    y = model.add_binary()
    model.set_objective({x: 1, y: 1})
    model.add_constraint({x: 1, y: 1}, Sense.GE, 3)
    return model


class TestBranchBound:
    def test_knapsack_optimal(self):
        solution = solve_branch_bound(knapsack_model())
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(-16)
        assert solution.values[:2] == pytest.approx([1, 1])

    def test_infeasible(self):
        solution = solve_branch_bound(infeasible_model())
        assert solution.status is Status.INFEASIBLE

    def test_node_limit_gives_timeout(self):
        model = MilpModel("hard")
        n = 14
        xs = [model.add_binary() for _ in range(n)]
        rng = np.random.default_rng(7)
        weights = rng.integers(3, 17, n)
        model.set_objective({x: -float(w) for x, w in zip(xs, weights)})
        model.add_constraint(
            {x: float(w) + 0.5 for x, w in zip(xs, weights)},
            Sense.LE, float(weights.sum()) / 2)
        solution = solve_branch_bound(model, max_nodes=2)
        assert solution.status in (Status.TIMEOUT, Status.OPTIMAL)

    def test_solution_checker(self):
        model = knapsack_model()
        solution = solve_branch_bound(model)
        assert model.check_solution(solution.values)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10 ** 6))
    def test_matches_highs_on_random_knapsacks(self, num_items, seed):
        rng = np.random.default_rng(seed)
        model = MilpModel("rand")
        xs = [model.add_binary() for _ in range(num_items)]
        values = rng.integers(1, 20, num_items)
        weights = rng.integers(1, 10, num_items)
        model.set_objective({x: -float(v) for x, v in zip(xs, values)})
        model.add_constraint({x: float(w) for x, w in zip(xs, weights)},
                             Sense.LE, float(weights.sum()) * 0.4)
        mine = solve_branch_bound(model)
        ref = solve_highs(model)
        assert mine.status is Status.OPTIMAL
        assert ref.status is Status.OPTIMAL
        assert mine.objective == pytest.approx(ref.objective, abs=1e-6)


class TestHighs:
    def test_knapsack(self):
        solution = solve_highs(knapsack_model())
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(-16)

    def test_infeasible(self):
        assert solve_highs(infeasible_model()).status is Status.INFEASIBLE

    def test_empty_model_rejected(self):
        with pytest.raises(SolverError):
            solve_highs(MilpModel("empty"))


class TestModel:
    def test_variable_bookkeeping(self):
        model = MilpModel()
        x = model.add_binary("flag")
        y = model.add_continuous(0, 5, "level")
        assert model.num_vars == 2
        assert model.variable_name(x) == "flag"
        assert model.variable_name(y) == "level"
        assert list(model.integer_mask) == [True, False]

    def test_bad_bounds_rejected(self):
        model = MilpModel()
        with pytest.raises(SolverError):
            model.add_continuous(3, 1)

    def test_unknown_index_rejected(self):
        model = MilpModel()
        model.add_binary()
        with pytest.raises(SolverError):
            model.set_objective({5: 1.0})
        with pytest.raises(SolverError):
            model.add_constraint({5: 1.0}, Sense.LE, 1)

    def test_empty_constraint_rejected(self):
        model = MilpModel()
        model.add_binary()
        with pytest.raises(SolverError):
            model.add_constraint({}, Sense.LE, 1)

    def test_matrix_form_flips_ge(self):
        model = MilpModel()
        x = model.add_binary()
        model.set_objective({x: 1})
        model.add_constraint({x: 2.0}, Sense.GE, 1.0)
        _c, a_ub, b_ub, _a_eq, _b_eq = model.to_matrix_form()
        assert a_ub[0, 0] == -2.0
        assert b_ub[0] == -1.0

    def test_check_solution_detects_violations(self):
        model = knapsack_model()
        bad = np.array([1.0, 1.0, 1.0])
        assert not model.check_solution(bad)
        good = np.array([1.0, 1.0, 0.0])
        assert model.check_solution(good)

    def test_check_solution_detects_fractional(self):
        model = knapsack_model()
        assert not model.check_solution(np.array([0.5, 0.0, 0.0]))
