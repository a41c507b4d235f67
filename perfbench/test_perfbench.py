"""The benchmark's checks fail on corrupted outputs; its helpers compute
what they claim.

Run with ``python -m pytest perfbench``.
"""

import pytest

from perfbench import checks, tracing
from perfbench.checks import CheckError
from repro import api
from repro.flow import design_flow
from repro.flow.cache import ArtifactCache, canonical_json
from repro.sta import paths


@pytest.fixture(scope="module")
def allocation():
    cache = ArtifactCache()
    spec = api.RunSpec(kind="allocate", design="c1355", beta=0.10)
    payload = api.run(spec, cache=cache).payload
    return design_flow.implement("c1355", cache=cache), spec, payload


def test_allocation_passes_retiming(allocation):
    checks.check_allocation(*allocation)


def test_unbiased_rows_fail_retiming(allocation):
    flow, spec, payload = allocation
    unbiased = dict(payload, levels=[0] * len(payload["levels"]))
    with pytest.raises(CheckError, match="exceeds Dcrit"):
        checks.check_allocation(flow, spec, unbiased)


def table1_row(ilp, heuristic):
    return {"design": "c1355",
            "ilp_savings": {"2": ilp[0], "3": ilp[1]},
            "heuristic_savings": {"2": heuristic[0], "3": heuristic[1]}}


def test_table1_row_properties_hold():
    checks.check_table1_row(table1_row((15.4, 17.9), (13.3, 14.7)))
    checks.check_table1_row(table1_row((None, 17.9), (18.0, 14.7)))


def test_ilp_below_heuristic_fails():
    with pytest.raises(CheckError, match="below the heuristic"):
        checks.check_table1_row(table1_row((15.4, 14.0), (13.3, 14.7)))


def test_ilp_saving_falling_with_budget_fails():
    with pytest.raises(CheckError, match="less than"):
        checks.check_table1_row(table1_row((15.4, 15.0), (13.3, 14.7)))


def test_altered_hit_payload_fails():
    payload = {"levels": [0, 2, 2], "leakage_uw": 1.25, "runtime_s": 0.01}
    miss_text = canonical_json(payload)
    checks.check_hit_payload("ab" * 32, miss_text, canonical_json(payload))
    altered = canonical_json(dict(payload, leakage_uw=1.2500001))
    with pytest.raises(CheckError, match="differs"):
        checks.check_hit_payload("ab" * 32, miss_text, altered)


def test_server_count_mismatch_fails():
    stats = {"endpoints": {"run": {"requests": 10, "errors": 0,
                                   "cache_misses": 3, "cache_hits": 7,
                                   "coalesced": 0}}}
    checks.check_server_counts(10, 3, stats)
    for requests, distinct in ((11, 3), (10, 4)):
        with pytest.raises(CheckError, match="client expected"):
            checks.check_server_counts(requests, distinct, stats)


def test_percentile_is_nearest_rank():
    values = [35, 20, 50, 15, 40]
    assert [checks.percentile(values, pct) for pct in (5, 30, 40, 50, 100)] \
        == [15, 20, 20, 35, 50]
    assert checks.percentile(list(range(1, 101)), 90) == 90
    assert checks.percentile(list(range(1, 11)), 30) == 3
    with pytest.raises(ValueError):
        checks.percentile([], 50)


def test_install_wraps_references_by_name_and_undoes():
    original = paths.extract_paths
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert design_flow.extract_paths is paths.extract_paths
        assert design_flow.extract_paths is not original
        design_flow.implement("c1355", cache=ArtifactCache())
    finally:
        uninstall()
    assert design_flow.extract_paths is original
    assert paths.extract_paths is original
    by_id = {span.span_id: span for span in tracer.spans}
    extract = [span for span in tracer.spans
               if span.name == "sta.extract_paths"]
    assert len(extract) == 1 and extract[0].value > 0
    assert by_id[extract[0].parent_id].name == "flow.implement"


def span(span_id, parent_id, name, start_s, end_s):
    return tracing.Span(span_id, parent_id, name, start_s, end_s, 0)


def test_self_inclusive_and_untracked_times():
    spans = [span(1, 0, "b", 1.0, 2.0), span(2, 1, "b", 1.2, 1.7),
             span(0, None, "a", 0.0, 4.0), span(3, None, "c", 5.0, 6.0),
             span(4, None, "c", 5.5, 6.5)]
    assert tracing.self_time_s(spans, "a") == pytest.approx(3.0)
    assert tracing.inclusive_times_s(spans)["b"] == pytest.approx(1.0)
    assert tracing.untracked_s(spans, [(0.0, 10.0)]) == pytest.approx(4.5)
    assert tracing.untracked_s(spans, [(3.0, 5.8)]) == pytest.approx(1.0)
