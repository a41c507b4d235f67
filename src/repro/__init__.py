"""repro — physically clustered forward body biasing (DATE 2009).

Reproduction of Sathanur et al., *"Physically Clustered Forward Body
Biasing for Variability Compensation in Nanometer CMOS design"*,
DATE 2009.

The package implements the paper's contribution — row-level clustered
FBB allocation (exact ILP + two-pass linear heuristic) — and every
substrate it stands on: a 45 nm-like device/cell model, netlist and
benchmark generators, a row placer, LEF/DEF I/O, static timing analysis,
leakage accounting, an MILP solver, the physical bias-implementation
rules, variability models and a closed-loop tuning controller.

Quickstart (the :mod:`repro.api` facade)::

    from repro.api import RunSpec, run

    result = run(RunSpec(kind="allocate", design="c5315", beta=0.05,
                         method="heuristic:row-descent", clusters=3))
    print(result.payload["savings_pct"], "% leakage saved")

or, driving the layers directly::

    from repro import implement, build_problem, solve

    flow = implement("c5315")                       # synth+place+STA
    problem = build_problem(flow.placed, flow.clib, beta=0.05)
    baseline = solve(problem, "single_bb")          # block-level FBB
    clustered = solve(problem, "heuristic", clusters=3)
    print(clustered.savings_vs(baseline.leakage_nw), "% leakage saved")
"""

from repro.api import RunResult, RunSpec, run, run_many, solver_names
from repro.core import (BiasSolution, FBBProblem, build_problem, pass_one,
                        pass_two, registry, solve, solve_heuristic,
                        solve_ilp, solve_single_bb, uniform_solution)
from repro.flow import (ArtifactCache, FlowResult, PopulationRow,
                        SpatialRow, Table1Row, characterized_library,
                        default_cache, format_cache_stats,
                        format_population, format_spatial, format_table1,
                        implement, run_design_beta, run_population,
                        run_spatial)
from repro.grouping import (RowGrouping, grouping_registry, make_grouping,
                            reduce_problem, solve_grouped)
from repro.tech import (CellLibrary, CharacterizedLibrary, Technology,
                        characterize_library, reduced_library,
                        sweep_inverter)

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "BiasSolution",
    "CellLibrary",
    "CharacterizedLibrary",
    "FBBProblem",
    "FlowResult",
    "PopulationRow",
    "RowGrouping",
    "RunResult",
    "RunSpec",
    "SpatialRow",
    "Table1Row",
    "Technology",
    "__version__",
    "build_problem",
    "characterize_library",
    "characterized_library",
    "default_cache",
    "format_cache_stats",
    "format_population",
    "format_spatial",
    "format_table1",
    "grouping_registry",
    "implement",
    "make_grouping",
    "pass_one",
    "pass_two",
    "reduce_problem",
    "reduced_library",
    "registry",
    "run",
    "run_design_beta",
    "run_many",
    "run_population",
    "run_spatial",
    "solve",
    "solve_grouped",
    "solve_heuristic",
    "solve_ilp",
    "solve_single_bb",
    "solver_names",
    "sweep_inverter",
    "uniform_solution",
]
