"""Exact ILP formulation of FBB allocation (paper Sec. 4.2).

Binary variables ``x[i,j]`` (row ``i`` gets voltage ``j``) and auxiliary
``y[j]`` (voltage ``j`` is used anywhere):

* objective (Eq. 1):  minimise ``sum_ij L[i,j] x[i,j]``;
* timing (Eq. 2):     per path ``k``:
  ``sum_ij a[i,j,k] x[i,j] >= req[k]`` with
  ``a[i,j,k] = D[k,i] * speedup_j`` (recovery form; the paper's
  inequality direction contains a sign typo, see problem.py);
* assignment (Eq. 3): ``sum_j x[i,j] == 1`` per row;
* clusters (Eq. 4):   ``sum_i x[i,j] <= F y[j]`` with ``F = N``, and
  ``sum_j y[j] <= C``;
* bounds (Eq. 5):     all variables binary.

Backends: scipy HiGHS (fast, default) or the from-scratch pure-Python
branch & bound (the lp_solve stand-in; use on small designs).  A time
limit reproduces the paper's non-convergence on Industrial2/3.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.problem import FBBProblem
from repro.core.solution import BiasSolution
from repro.errors import AllocationError, InfeasibleError, TimeoutError_
from repro.ilp.branch_bound import solve_branch_bound
from repro.ilp.highs import solve_highs
from repro.ilp.model import MilpModel, Sense, Status


def build_ilp(problem: FBBProblem, max_clusters: int) -> MilpModel:
    """Assemble the Sec. 4.2 MILP for a problem instance."""
    if max_clusters < 1:
        raise AllocationError(
            f"max_clusters must be >= 1, got {max_clusters}")
    num_rows = problem.num_rows
    num_levels = problem.num_levels
    model = MilpModel(f"fbb_{problem.design_name}_c{max_clusters}")

    x = [[model.add_binary(f"x_{i}_{j}") for j in range(num_levels)]
         for i in range(num_rows)]
    y = [model.add_binary(f"y_{j}") for j in range(num_levels)]

    # Eq. 1: minimise total leakage.
    model.set_objective({
        x[i][j]: float(problem.leakage_nw[i, j])
        for i in range(num_rows) for j in range(num_levels)})

    # Eq. 2: per-path recovery constraints.
    recovery = problem.recovery.tocsr()
    for k in range(problem.num_constraints):
        start, stop = recovery.indptr[k], recovery.indptr[k + 1]
        coeffs: dict[int, float] = {}
        for col, delay in zip(recovery.indices[start:stop],
                              recovery.data[start:stop]):
            for j in range(1, num_levels):  # speedup at j=0 is zero
                coeffs[x[col][j]] = float(delay * problem.speedups[j])
        if not coeffs:
            raise InfeasibleError(
                f"path {k} has no biasable gates but needs recovery")
        model.add_constraint(coeffs, Sense.GE,
                             float(problem.required_ps[k]), f"path_{k}")

    # Eq. 3: every row picks exactly one voltage.
    for i in range(num_rows):
        model.add_constraint({x[i][j]: 1.0 for j in range(num_levels)},
                             Sense.EQ, 1.0, f"assign_{i}")

    # Eq. 4: cluster budget via indicator variables (F = N).
    big_f = float(num_rows)
    for j in range(num_levels):
        coeffs = {x[i][j]: 1.0 for i in range(num_rows)}
        coeffs[y[j]] = -big_f
        model.add_constraint(coeffs, Sense.LE, 0.0, f"use_{j}")
    model.add_constraint({y[j]: 1.0 for j in range(num_levels)},
                         Sense.LE, float(max_clusters), "budget")
    return model


def decode_solution(problem: FBBProblem, values: np.ndarray) -> list[int]:
    """Recover per-row levels from the flat x/y variable vector."""
    num_levels = problem.num_levels
    levels = []
    for i in range(problem.num_rows):
        block = values[i * num_levels:(i + 1) * num_levels]
        levels.append(int(np.argmax(block)))
    return levels


def solve_ilp(problem: FBBProblem, max_clusters: int = 3,
              backend: str = "highs",
              time_limit_s: float | None = 120.0) -> BiasSolution:
    """Solve the exact ILP; raises on infeasibility or timeout.

    ``backend`` is ``"highs"`` (production) or ``"bnb"``/``"branch_bound"``
    (the from-scratch branch & bound over scipy LP relaxations, which
    reproduces the paper's lp_solve non-convergence).
    :class:`TimeoutError_` mirrors the paper's "ILP did not converge in
    the specified amount of time" for the largest designs.
    """
    start = time.perf_counter()
    model = build_ilp(problem, max_clusters)
    if backend == "highs":
        result = solve_highs(model, time_limit_s=time_limit_s)
    elif backend in ("bnb", "branch_bound"):
        result = solve_branch_bound(model, time_limit_s=time_limit_s)
    else:
        raise AllocationError(f"unknown ILP backend {backend!r}")

    if result.status is Status.INFEASIBLE:
        raise InfeasibleError(
            f"{problem.design_name}: ILP infeasible for beta="
            f"{problem.beta:.0%}, C={max_clusters}")
    if result.status is Status.TIMEOUT:
        raise TimeoutError_(
            f"{problem.design_name}: ILP did not converge within "
            f"{time_limit_s} s (paper reports the same for its largest "
            "benchmarks)")
    if result.values is None:
        raise AllocationError("solver returned no solution vector")

    levels = decode_solution(problem, result.values)
    solution = BiasSolution(
        problem=problem,
        levels=tuple(levels),
        method=f"ilp-{backend}",
        runtime_s=time.perf_counter() - start,
        optimal=result.status is Status.OPTIMAL,
        extras={"objective_nw": result.objective,
                "nodes": result.nodes_explored},
    )
    if not solution.is_timing_feasible:
        raise AllocationError(
            f"{problem.design_name}: ILP solution fails CheckTiming — "
            "formulation bug")
    if solution.num_clusters > max_clusters:
        raise AllocationError(
            f"{problem.design_name}: ILP used {solution.num_clusters} "
            f"clusters (budget {max_clusters})")
    return solution
