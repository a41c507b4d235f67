"""The always-on allocation server (repro.serve; ROADMAP item 2).

The deployment form of the paper's clustered-FBB allocator: an
asyncio socket server that accepts RunSpec JSON over HTTP and answers
with RunResult JSON, the software twin of an on-chip body-bias
regulator continuously deciding "what bias settings for this die".
One event loop multiplexes every connection; actual spec execution is
bridged to a small thread pool driving the shared
:class:`repro.flow.executor.ExecutionEngine` (whose backend may itself
be a warm process pool), so the loop never blocks on an allocation.

Endpoints::

    POST /run       RunSpec JSON -> RunResult JSON (200; 400 for a
                    malformed spec, 422 for one the library cannot
                    satisfy, e.g. an infeasible allocation)
    GET  /stats     counters: endpoints, single-flight, tiered cache
    GET  /healthz   liveness probe
    POST /shutdown  begin graceful drain (202)

Contracts: concurrent identical specs collapse to one execution
(:class:`~repro.serve.singleflight.SingleFlight` by ``spec_hash``);
shutdown — via ``POST /shutdown``, SIGINT or SIGTERM — stops accepting
connections, lets every in-flight request finish, then exits 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.flow.executor import ExecutionEngine
from repro.serve.http import (MAX_REQUEST_BYTES, HttpError, HttpRequest,
                              read_request, response_bytes)
from repro.serve.metrics import ServeMetrics
from repro.serve.singleflight import SingleFlight

#: schema of the /stats JSON document; bumped on breaking change
STATS_SCHEMA_VERSION = 1


class AllocationServer:
    """One serving instance: listener + router + metrics + drain logic.

    ``engine`` is the shared :class:`ExecutionEngine`; the server never
    executes specs itself, it resolves requests through
    ``engine.run_spec`` on a bridge thread pool.  ``port=0`` binds an
    ephemeral port (read ``self.port`` after :meth:`start` — the CI
    smoke job does exactly that via ``--port-file``).
    """

    def __init__(self, engine: ExecutionEngine,
                 host: str = "127.0.0.1", port: int = 0,
                 bridge_threads: int = 8,
                 max_request_bytes: int = MAX_REQUEST_BYTES) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.max_request_bytes = max_request_bytes
        self.metrics = ServeMetrics()
        self.single_flight = SingleFlight()
        self._bridge = ThreadPoolExecutor(max_workers=bridge_threads)
        self._server: asyncio.base_events.Server | None = None
        self._shutdown: asyncio.Event | None = None
        self._drained: asyncio.Event | None = None
        self._draining = False
        self._connections = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves the ephemeral port."""
        self._shutdown = asyncio.Event()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin graceful drain (idempotent; signal-handler safe)."""
        self._draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Drain on SIGINT/SIGTERM where the platform supports it."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_shutdown)

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown request arrives, then drain."""
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work.

        New connections are refused (listener closed) and any request
        arriving on an already-open connection gets 503; requests
        already executing run to completion and deliver their
        responses before the bridge pool is released.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections and self._drained is not None:
            await self._drained.wait()
        self._bridge.shutdown(wait=True)

    # -- connection handling ----------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._connections -= 1
            if (self._connections == 0 and self._draining
                    and self._drained is not None):
                self._drained.set()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader,
                                             self.max_request_bytes)
                if request is None:
                    return
                status, body = await self._dispatch(request)
            except HttpError as exc:
                status, body = exc.status, _error_body(exc)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request
            except Exception as exc:  # never kill the loop on one request
                status, body = 500, _error_body(exc)
            writer.write(response_bytes(status, body))
            await writer.drain()
        except ConnectionError:
            pass  # response undeliverable; nothing left to do
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest) -> tuple[int, str]:
        routes = {
            ("POST", "/run"): ("run", self._handle_run),
            ("GET", "/stats"): ("stats", self._handle_stats),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("POST", "/shutdown"): ("shutdown", self._handle_shutdown),
        }
        route = routes.get((request.method, request.path))
        if route is None:
            known = {path for _method, path in routes}
            if request.path in known:
                raise HttpError(405,
                                f"method {request.method} not allowed "
                                f"for {request.path}")
            raise HttpError(404, f"no such endpoint {request.path}")
        name, handler = route
        endpoint = self.metrics.endpoint(name)
        endpoint.requests += 1
        endpoint.in_flight += 1
        started = time.perf_counter()
        try:
            return await handler(request, endpoint)
        except Exception:
            endpoint.errors += 1
            raise
        finally:
            endpoint.in_flight -= 1
            endpoint.latency.observe(time.perf_counter() - started)

    # -- endpoints --------------------------------------------------------

    async def _handle_run(self, request: HttpRequest,
                          endpoint: Any) -> tuple[int, str]:
        if self._draining:
            raise HttpError(503, "server is draining")
        from repro.api import RunSpec
        try:
            spec = RunSpec.from_json(request.body.decode())
            key = spec.spec_hash()
        except (ReproError, ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"bad RunSpec: {exc}") from exc
        loop = asyncio.get_running_loop()

        async def execute() -> Any:
            return await loop.run_in_executor(
                self._bridge, self.engine.run_spec, spec)

        try:
            result, coalesced = await self.single_flight.run(key, execute)
        except ReproError as exc:
            # A well-formed spec the library cannot satisfy, such as an
            # infeasible allocation: the request's fault, not the server's.
            endpoint.errors += 1
            return 422, _error_body(exc)
        if coalesced:
            endpoint.coalesced += 1
        elif result.cache_hit:
            endpoint.cache_hits += 1
        else:
            endpoint.cache_misses += 1
        return 200, result.to_json()

    async def _handle_stats(self, request: HttpRequest,
                            endpoint: Any) -> tuple[int, str]:
        return 200, json.dumps(self.stats())

    async def _handle_healthz(self, request: HttpRequest,
                              endpoint: Any) -> tuple[int, str]:
        return 200, json.dumps({"status": "ok",
                                "draining": self._draining})

    async def _handle_shutdown(self, request: HttpRequest,
                               endpoint: Any) -> tuple[int, str]:
        self.request_shutdown()
        return 202, json.dumps({"status": "draining"})

    def stats(self) -> dict:
        """The ``/stats`` document: endpoint counters, single-flight
        state, the engine's tiered cache counters and backend identity."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "endpoints": self.metrics.snapshot(),
            "single_flight": self.single_flight.snapshot(),
            "cache": self.engine.cache.stats(),
            "backend": self.engine.describe(),
            "draining": self._draining,
        }


def _error_body(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__,
                       "message": str(exc)})


async def serve_forever(engine: ExecutionEngine, host: str = "127.0.0.1",
                        port: int = 0,
                        port_file: str | Path | None = None,
                        quiet: bool = False) -> int:
    """Run one server until SIGINT/SIGTERM/``POST /shutdown``; exit 0.

    The ``repro-fbb serve`` entry point.  With ``port=0`` the bound
    ephemeral port is announced on stdout and, when ``port_file`` is
    given, written there (how the CI smoke job finds the server).
    """
    server = AllocationServer(engine, host=host, port=port)
    await server.start()
    server.install_signal_handlers()
    if port_file is not None:
        # one-shot startup write, before any request is in flight
        Path(port_file).write_text(f"{server.port}\n")  # repro-lint: ignore[async-blocking] -- pre-serving startup write, loop is idle
    if not quiet:
        print(f"repro-fbb serve: listening on "
              f"http://{server.host}:{server.port} "
              f"(backend {server.engine.describe()['name']})")
    await server.serve_until_shutdown()
    if not quiet:
        print("repro-fbb serve: drained, exiting")
    return 0
