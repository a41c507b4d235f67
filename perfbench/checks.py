"""Correctness checks the benchmark applies to the program's outputs.

Each check recomputes a result independently, or tests a property the
paper's method must have; none compares against a stored copy of an
earlier output.  A failing check raises :class:`CheckError`.
"""

from __future__ import annotations

import math

#: slack tolerance of the re-timing check, picoseconds (the allocators'
#: own CheckTiming tolerance)
TIMING_TOL_PS = 1e-6

#: HiGHS stops at a relative MIP gap of 1e-4, so an "optimal" ILP
#: leakage may exceed the true optimum by that share.  Savings are
#: percentages of the Single BB leakage, so the gap is at most 0.01
#: percentage points of saving.
ILP_GAP_PCT = 0.01

#: payload fields that hold wall-clock durations, outside the
#: bit-identity contract of the program
RUNTIME_SUFFIX = "runtime_s"


class CheckError(AssertionError):
    """A program output failed one of the benchmark's checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) / 100.0)
    return ordered[rank - 1]


def without_runtimes(payload: dict) -> dict:
    """The payload minus its wall-clock fields."""
    return {key: value for key, value in payload.items()
            if not key.endswith(RUNTIME_SUFFIX)}


# -- flow-cold ----------------------------------------------------------------

def retimed_delay_ps(flow, levels, beta: float) -> float:
    """Critical delay of the implemented design with each row at its
    bias level, every gate derated by ``1 + beta`` (the public scalar
    STA, not the allocator's path matrix)."""
    placed = flow.placed
    _require(len(levels) == placed.num_rows,
             f"{flow.name}: {len(levels)} levels for "
             f"{placed.num_rows} rows")
    bias_scales = flow.clib.delay_scales
    scales = {name: bias_scales[levels[placed.row_of(name)]]
              for name in placed.netlist.gates}
    return flow.analyzer.critical_delay_ps(scales, derate=1.0 + beta)


def check_allocation(flow, spec, payload: dict) -> None:
    """One allocate result: re-timed delay within Dcrit, leakage no
    worse than Single BB, cluster budget kept."""
    levels = payload["levels"]
    delay_ps = retimed_delay_ps(flow, levels, spec.beta)
    _require(delay_ps <= flow.dcrit_ps + TIMING_TOL_PS,
             f"{spec.design} beta={spec.beta}: re-timed delay "
             f"{delay_ps:.6f} ps exceeds Dcrit {flow.dcrit_ps:.6f} ps")
    _require(payload["timing_ok"] is True,
             f"{spec.design}: payload reports timing_ok="
             f"{payload['timing_ok']}")
    _require(payload["leakage_uw"] <= payload["baseline_uw"] * (1 + 1e-12),
             f"{spec.design}: leakage {payload['leakage_uw']} uW above "
             f"Single BB {payload['baseline_uw']} uW")
    used = len(set(levels))
    _require(used <= spec.clusters,
             f"{spec.design}: {used} bias levels used, budget "
             f"{spec.clusters}")
    _require(payload["num_clusters"] == used,
             f"{spec.design}: payload counts {payload['num_clusters']} "
             f"clusters, its levels use {used}")


# -- table1 -------------------------------------------------------------------

def check_table1_row(payload: dict) -> None:
    """One Table 1 row: an optimal ILP saves at least what the
    heuristic saves, a larger cluster budget never saves less, and no
    method leaks more than Single BB."""
    design = payload["design"]
    ilp = {int(c): v for c, v in payload["ilp_savings"].items()}
    heuristic = {int(c): v
                 for c, v in payload["heuristic_savings"].items()}
    for clusters, saving in heuristic.items():
        _require(saving >= -ILP_GAP_PCT,
                 f"{design}: heuristic C={clusters} saves {saving}%")
    for clusters, saving in ilp.items():
        if saving is None:  # the ILP hit its time limit: no optimum
            continue
        _require(saving >= -ILP_GAP_PCT,
                 f"{design}: ILP C={clusters} saves {saving}%")
        _require(saving >= heuristic[clusters] - ILP_GAP_PCT,
                 f"{design}: optimal ILP C={clusters} saves {saving}%, "
                 f"below the heuristic's {heuristic[clusters]}%")
    budgets = sorted(c for c, v in ilp.items() if v is not None)
    for smaller, larger in zip(budgets, budgets[1:]):
        _require(ilp[larger] >= ilp[smaller] - ILP_GAP_PCT,
                 f"{design}: ILP saves {ilp[larger]}% at C={larger}, "
                 f"less than {ilp[smaller]}% at C={smaller}")


# -- population ---------------------------------------------------------------

def check_population_row(payload: dict) -> None:
    """Tuning never lowers yield, and only out-of-budget dies are
    recovered or lost."""
    design = payload["design"]
    before = payload["timing_yield"]
    _require(payload["tuned_yield"] >= before,
             f"{design}: tuned yield {payload['tuned_yield']} below "
             f"{before} before tuning")
    out_of_budget = payload["num_dies"] - round(before * payload["num_dies"])
    touched = payload["recovered"] + payload["lost"]
    _require(touched <= out_of_budget,
             f"{design}: {touched} dies recovered or lost, only "
             f"{out_of_budget} out of budget")


def check_spatial_row(payload: dict) -> None:
    """Both compensation arms keep at least the untuned yield."""
    before = payload["yield_before"]
    for arm in ("spatial_yield", "uniform_yield"):
        _require(payload[arm] >= before,
                 f"{payload['design']}: {arm} {payload[arm]} below "
                 f"{before} before tuning")


def check_lifetime_row(payload: dict) -> None:
    """The controller re-calibrates at every ``cadence``-th epoch."""
    epochs, cadence = payload["epochs"], payload["cadence"]
    expected = len(range(0, epochs, cadence))
    _require(payload["recalibrations"] == expected,
             f"{payload['design']}: {payload['recalibrations']} "
             f"re-calibrations over {epochs} epochs at cadence "
             f"{cadence}, expected {expected}")
    _require(len(payload["yield_curve"]) == epochs,
             f"{payload['design']}: yield curve has "
             f"{len(payload['yield_curve'])} points for {epochs} epochs")


def check_same_payload(label: str, expected: dict, actual: dict) -> None:
    """Two runs of one spec agree on every field but wall-clock ones."""
    _require(without_runtimes(expected) == without_runtimes(actual),
             f"{label}: payloads differ outside runtime fields")


# -- serve --------------------------------------------------------------------

def check_cache_flag(spec_hash: str, expect_hit: bool, cache_hit) -> None:
    """A spec's first request is a miss and every later one a hit."""
    _require(cache_hit is expect_hit,
             f"spec {spec_hash[:12]}: cache_hit={cache_hit}, expected "
             f"{expect_hit}")


def check_hit_payload(spec_hash: str, miss_text: str, hit_text: str) -> None:
    """A cache hit serves exactly the bytes its miss computed."""
    _require(hit_text == miss_text,
             f"spec {spec_hash[:12]}: hit payload differs from the "
             "payload of its miss")


def check_server_counts(requests: int, distinct: int, stats: dict) -> None:
    """The server counted exactly the requests the client sent: one
    miss per distinct spec, every other request a hit."""
    run = stats["endpoints"]["run"]
    expected = {"requests": requests, "errors": 0,
                "cache_misses": distinct,
                "cache_hits": requests - distinct, "coalesced": 0}
    seen = {key: run[key] for key in expected}
    _require(seen == expected,
             f"server /stats run counters {seen}, client expected "
             f"{expected}")
