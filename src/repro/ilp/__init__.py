"""MILP substrate for the paper's exact Sec. 4.2 ILP: model container,
branch & bound, HiGHS."""

from repro.ilp.branch_bound import solve_branch_bound
from repro.ilp.highs import solve_highs
from repro.ilp.model import MilpModel, Sense, Solution, Status

__all__ = [
    "MilpModel",
    "Sense",
    "Solution",
    "Status",
    "solve_branch_bound",
    "solve_highs",
]
