"""End-to-end tests for the allocation service (``repro.serve``).

Every test drives the real socket path through
:class:`repro.serve.client.ServerThread`; spec *execution* is
monkeypatched to a counting stub so the contracts under test —
single-flight collapse, cache-hit accounting, graceful drain —
are observable without paying for real allocations.

The acceptance scenario lives in
:meth:`TestSingleFlightService.test_concurrent_identical_specs_execute_once`:
N concurrent identical specs produce exactly one ``execute_spec``
call and N identical responses.
"""

import threading
import time

import pytest

from repro.api import RunSpec
from repro.errors import ServeError
from repro.flow.cache import ArtifactCache
from repro.serve import (ServerThread, fetch_stats, request_shutdown,
                         submit_spec)

SPEC = RunSpec(kind="allocate", design="c1355", beta=0.05)


@pytest.fixture
def stub_execute(monkeypatch):
    """Replace ``repro.api.execute_spec`` with a fast counting stub.

    Returns a namespace with ``calls`` (one entry per execution),
    ``started`` (set when an execution begins) and ``release`` (the
    stub blocks on it when ``slow`` is enabled) so tests can hold an
    execution open while concurrent requests pile up.
    """
    class Stub:
        def __init__(self):
            self.calls = []
            self.started = threading.Event()
            self.release = threading.Event()
            self.slow = False
            self.lock = threading.Lock()

        def __call__(self, spec, cache=None):
            with self.lock:
                self.calls.append(spec.spec_hash())
            self.started.set()
            if self.slow:
                assert self.release.wait(timeout=30.0)
            return {"value": spec.beta}

    stub = Stub()
    monkeypatch.setattr("repro.api.execute_spec", stub)
    yield stub
    stub.release.set()  # never leave a bridge thread blocked


class TestServiceEndpoints:
    def test_miss_then_hit_roundtrip(self, stub_execute):
        with ServerThread(cache=ArtifactCache()) as srv:
            first = submit_spec(srv.url, SPEC)
            second = submit_spec(srv.url, SPEC)
            stats = fetch_stats(srv.url)
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert first.payload == second.payload == {"value": 0.05}
        assert first.spec == SPEC
        assert len(stub_execute.calls) == 1
        run_stats = stats["endpoints"]["run"]
        assert run_stats["requests"] == 2
        assert run_stats["cache_misses"] == 1
        assert run_stats["cache_hits"] == 1
        assert run_stats["coalesced"] == 0
        assert run_stats["errors"] == 0
        assert run_stats["latency"]["count"] == 2

    def test_stats_document_shape(self, stub_execute):
        with ServerThread(cache=ArtifactCache()) as srv:
            stats = fetch_stats(srv.url)
        assert stats["schema_version"] == 1
        assert stats["backend"] == {"name": "inline", "workers": 1}
        assert stats["single_flight"] == {"leaders": 0, "coalesced": 0,
                                          "in_flight": 0}
        assert stats["draining"] is False
        assert "by_kind" in stats["cache"]

    def test_bad_spec_is_400(self, stub_execute):
        from repro.serve.client import _request
        with ServerThread(cache=ArtifactCache()) as srv:
            with pytest.raises(ServeError, match="HTTP 400"):
                _request(f"{srv.url}/run", data=b"this is not a spec",
                         method="POST")
            stats = fetch_stats(srv.url)
        assert not stub_execute.calls
        assert stats["endpoints"]["run"]["errors"] == 1

    def test_unknown_solver_method_is_400(self, stub_execute):
        """Solver names are checked when the spec is built, so a bad
        method never reaches execution."""
        import json

        from repro.serve.client import _request
        body = json.dumps(dict(SPEC.to_dict(), method="nope")).encode()
        with ServerThread(cache=ArtifactCache()) as srv:
            with pytest.raises(ServeError, match="HTTP 400.*nope"):
                _request(f"{srv.url}/run", data=body, method="POST")
        assert not stub_execute.calls

    def test_unsatisfiable_spec_is_422(self):
        """A well-formed spec the library cannot satisfy (no bias level
        recovers a 50% slowdown) gets 422 with the domain error, and
        still counts as a failed request."""
        spec = RunSpec(kind="allocate", design="c1355", beta=0.5)
        with ServerThread(cache=ArtifactCache()) as srv:
            with pytest.raises(ServeError, match="HTTP 422") as caught:
                submit_spec(srv.url, spec)
            stats = fetch_stats(srv.url)
        assert "InfeasibleError" in str(caught.value)
        assert stats["endpoints"]["run"]["errors"] == 1

    def test_unexpected_failure_is_still_500(self, monkeypatch):
        def _broken(spec, cache=None):
            raise RuntimeError("not a domain error")

        monkeypatch.setattr("repro.api.execute_spec", _broken)
        with ServerThread(cache=ArtifactCache()) as srv:
            with pytest.raises(ServeError, match="HTTP 500"):
                submit_spec(srv.url, SPEC)
            stats = fetch_stats(srv.url)
        assert stats["endpoints"]["run"]["errors"] == 1

    def test_unknown_endpoint_is_404_and_wrong_method_is_405(
            self, stub_execute):
        from repro.serve.client import _request
        with ServerThread(cache=ArtifactCache()) as srv:
            with pytest.raises(ServeError, match="HTTP 404"):
                _request(f"{srv.url}/nope")
            with pytest.raises(ServeError, match="HTTP 405"):
                _request(f"{srv.url}/run")  # GET on a POST endpoint

    def test_healthz_reports_liveness(self, stub_execute):
        import json

        from repro.serve.client import _request
        with ServerThread(cache=ArtifactCache()) as srv:
            body = json.loads(_request(f"{srv.url}/healthz"))
        assert body == {"status": "ok", "draining": False}


class TestSingleFlightService:
    def test_concurrent_identical_specs_execute_once(self, stub_execute):
        """N concurrent identical specs -> one execute_spec call and
        N identical responses (the issue's acceptance scenario)."""
        total = 4
        stub_execute.slow = True
        results = []
        results_lock = threading.Lock()

        def client():
            result = submit_spec(srv.url, SPEC)
            with results_lock:
                results.append(result)

        with ServerThread(cache=ArtifactCache()) as srv:
            leader = threading.Thread(target=client)
            leader.start()
            assert stub_execute.started.wait(timeout=30.0)
            followers = [threading.Thread(target=client)
                         for _ in range(total - 1)]
            for thread in followers:
                thread.start()
            deadline = time.monotonic() + 30.0
            while (srv.server.single_flight.coalesced < total - 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert srv.server.single_flight.coalesced == total - 1
            stub_execute.release.set()
            for thread in [leader, *followers]:
                thread.join(timeout=30.0)
            stats = fetch_stats(srv.url)

        assert len(stub_execute.calls) == 1
        assert len(results) == total
        payloads = [result.to_json() for result in results]
        leader_json = min(payloads)  # all identical, order irrelevant
        assert all(payload == leader_json for payload in payloads)
        run_stats = stats["endpoints"]["run"]
        assert run_stats["requests"] == total
        assert run_stats["cache_misses"] == 1
        assert run_stats["coalesced"] == total - 1
        assert run_stats["cache_hits"] == 0
        assert stats["single_flight"]["leaders"] == 1
        assert stats["single_flight"]["coalesced"] == total - 1
        assert stats["single_flight"]["in_flight"] == 0

    def test_distinct_specs_do_not_coalesce(self, stub_execute):
        other = RunSpec(kind="allocate", design="c1355", beta=0.10)
        with ServerThread(cache=ArtifactCache()) as srv:
            submit_spec(srv.url, SPEC)
            submit_spec(srv.url, other)
            stats = fetch_stats(srv.url)
        assert len(stub_execute.calls) == 2
        assert stats["single_flight"]["coalesced"] == 0
        assert stats["endpoints"]["run"]["cache_misses"] == 2


class TestGracefulDrain:
    def test_shutdown_drains_in_flight_work(self, stub_execute):
        """POST /shutdown: in-flight requests complete and deliver
        their responses; new connections are refused; the server
        thread exits."""
        stub_execute.slow = True
        outcome = {}

        srv = ServerThread(cache=ArtifactCache()).start()
        try:
            def client():
                outcome["result"] = submit_spec(srv.url, SPEC)

            in_flight = threading.Thread(target=client)
            in_flight.start()
            assert stub_execute.started.wait(timeout=30.0)

            reply = request_shutdown(srv.url)
            assert reply == {"status": "draining"}

            # the listener closes once drain begins
            deadline = time.monotonic() + 30.0
            refused = False
            while time.monotonic() < deadline and not refused:
                try:
                    fetch_stats(srv.url, timeout_s=1.0)
                    time.sleep(0.01)
                except ServeError:
                    refused = True
            assert refused

            stub_execute.release.set()
            in_flight.join(timeout=30.0)
            assert not in_flight.is_alive()
            assert outcome["result"].cache_hit is False
            assert outcome["result"].payload == {"value": 0.05}

            srv._thread.join(timeout=30.0)
            assert not srv._thread.is_alive()
        finally:
            stub_execute.release.set()
            srv.stop()

    def test_stop_is_idempotent_and_joins(self, stub_execute):
        srv = ServerThread(cache=ArtifactCache()).start()
        srv.stop()
        srv.stop()
        assert not srv._thread.is_alive()
