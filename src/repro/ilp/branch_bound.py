"""Pure-Python branch & bound MILP solver.

Our lp_solve substitute's back half: LP-relaxation-based branch & bound
with best-bound node selection and most-fractional branching.  The LP
relaxations are solved by scipy's HiGHS ``linprog``.

A wall-clock time limit reproduces the paper's observation that the
exact ILP "did not converge in a specified amount of time" on the two
largest industrial designs.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.ilp.model import MilpModel, Solution, Status

_INTEGER_TOL = 1e-6


def _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    """Solve one LP relaxation; returns (status, objective, x)."""
    result = linprog(
        c, A_ub=a_ub if len(a_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq if len(a_eq) else None,
        b_eq=b_eq if len(b_eq) else None,
        bounds=list(zip(lower, upper)), method="highs")
    if result.status == 2:
        return "infeasible", None, None
    if result.status == 3:
        return "unbounded", None, None
    if not result.success:
        raise SolverError(f"linprog failed: {result.message}")
    return "optimal", float(result.fun), np.asarray(result.x)


def solve_branch_bound(model: MilpModel,
                       time_limit_s: float | None = None,
                       max_nodes: int = 200_000) -> Solution:
    """Solve a MILP by LP-based branch & bound.

    Returns a :class:`Solution` whose status is OPTIMAL, INFEASIBLE or
    TIMEOUT.  On TIMEOUT the best incumbent found so far (if any) is
    returned with ``incumbent_is_feasible=True``.
    """
    c, a_ub, b_ub, a_eq, b_eq = model.to_matrix_form()
    lower0, upper0 = model.bounds
    integer_mask = model.integer_mask
    start = time.monotonic()

    def out_of_time() -> bool:
        return (time_limit_s is not None
                and time.monotonic() - start > time_limit_s)

    status, objective, x = _solve_relaxation(
        c, a_ub, b_ub, a_eq, b_eq, lower0, upper0)
    if status == "infeasible":
        return Solution(Status.INFEASIBLE, None, None)
    if status == "unbounded":
        return Solution(Status.UNBOUNDED, None, None)

    best_obj: float | None = None
    best_x: np.ndarray | None = None
    nodes = 0
    counter = 0  # heap tiebreaker
    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    heapq.heappush(heap, (objective, counter, lower0.copy(), upper0.copy()))

    while heap:
        if nodes >= max_nodes or out_of_time():
            return Solution(
                Status.TIMEOUT, best_obj, best_x, nodes_explored=nodes,
                incumbent_is_feasible=best_x is not None)
        bound, _tie, lower, upper = heapq.heappop(heap)
        if best_obj is not None and bound >= best_obj - 1e-9:
            continue
        status, objective, x = _solve_relaxation(
            c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        nodes += 1
        if status != "optimal":
            continue
        if best_obj is not None and objective >= best_obj - 1e-9:
            continue

        fractional = [
            (abs(x[i] - round(x[i])), i)
            for i in np.nonzero(integer_mask)[0]
            if abs(x[i] - round(x[i])) > _INTEGER_TOL]
        if not fractional:
            rounded = x.copy()
            rounded[integer_mask] = np.round(rounded[integer_mask])
            if best_obj is None or objective < best_obj - 1e-9:
                best_obj = objective
                best_x = rounded
            continue

        # Branch on the most fractional variable.
        _frac, branch_var = max(fractional)
        floor_val = np.floor(x[branch_var])

        lower_child = (lower.copy(), upper.copy())
        lower_child[1][branch_var] = floor_val
        upper_child = (lower.copy(), upper.copy())
        upper_child[0][branch_var] = floor_val + 1.0

        for child_lower, child_upper in (lower_child, upper_child):
            if child_lower[branch_var] > child_upper[branch_var] + 1e-12:
                continue
            counter += 1
            heapq.heappush(
                heap, (objective, counter, child_lower, child_upper))

    if best_x is None:
        return Solution(Status.INFEASIBLE, None, None, nodes_explored=nodes)
    return Solution(Status.OPTIMAL, best_obj, best_x, nodes_explored=nodes,
                    incumbent_is_feasible=True)
