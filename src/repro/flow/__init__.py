"""End-to-end flow orchestration and experiment harness (the paper's
Sec. 5 evaluation flow: Table 1, populations, spatial and lifetime
studies)."""

from repro.flow.cache import (ArtifactCache, canonical_json, content_hash,
                              default_cache, set_default_cache)
from repro.flow.design_flow import (FlowResult, characterized_library,
                                    implement)
from repro.flow.executor import (ExecutionEngine, InlineBackend,
                                 ProcessPoolBackend, create_backend)
from repro.flow.experiment import (LifetimeRow, PopulationRow, SpatialRow,
                                   Table1Row, run_design_beta,
                                   run_lifetime_study, run_population,
                                   run_spatial)
from repro.flow.parallel import SpecFailure, resolve_workers, stable_payload
from repro.flow.reports import (format_cache_inventory,
                                format_cache_stats,
                                format_grouping_tradeoff,
                                format_lifetime, format_placer_sweep,
                                format_population, format_serve_stats,
                                format_spatial, format_spec_failures,
                                format_sweep, format_table1)

__all__ = [
    "ArtifactCache",
    "ExecutionEngine",
    "FlowResult",
    "InlineBackend",
    "LifetimeRow",
    "PopulationRow",
    "ProcessPoolBackend",
    "SpatialRow",
    "SpecFailure",
    "Table1Row",
    "canonical_json",
    "characterized_library",
    "content_hash",
    "create_backend",
    "default_cache",
    "format_cache_inventory",
    "format_cache_stats",
    "format_serve_stats",
    "format_grouping_tradeoff",
    "format_lifetime",
    "format_placer_sweep",
    "format_population",
    "format_spatial",
    "format_spec_failures",
    "format_sweep",
    "format_table1",
    "implement",
    "resolve_workers",
    "run_design_beta",
    "run_lifetime_study",
    "run_population",
    "run_spatial",
    "set_default_cache",
    "stable_payload",
]
