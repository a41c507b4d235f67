"""Engine-agnostic execution core: resolve → dedupe → dispatch → merge.

The paper's clustered-FBB allocation is consumed two ways: as batch
sweeps over Sec. 5 experiment grids (``repro.api.run_many``) and — the
deployment view — as an always-on decision service answering "what
bias settings for this die right now" (``repro.serve``).  Both need
the same orchestration sequence over frozen RunSpecs: resolve cache
hits (memory + disk tier), deduplicate identical specs by
``spec_hash``, dispatch the unique misses to some executor, and merge
payloads plus worker cache-counter deltas back.  This module owns that
sequence once, as :class:`ExecutionEngine`, with the *where* pluggable
behind a backend:

* :class:`InlineBackend` executes in the calling process against the
  engine's own cache — the serial reference path every equivalence
  test is defined against.
* :class:`ProcessPoolBackend` keeps a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers hold
  process-local caches (``_WORKER_CACHES``) keyed on the shared disk
  tier — characterized libraries and implemented flows stay warm
  across batches and, for a server, across requests.

The determinism contract: the inline path is the reference, and any
backend's merged results must equal it exactly (modulo wall-clock
runtime fields).  ``RunSpec.workers`` stays an execution knob excluded
from the content address, so results are shared across backends.
"""

from __future__ import annotations

import copy
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from typing import Any, Sequence

from repro.errors import SpecError
from repro.flow.cache import ArtifactCache, default_cache
from repro.flow.parallel import SpecFailure, resolve_workers

#: backend names accepted by :class:`ExecutionEngine` and the CLI
BACKEND_NAMES = ("inline", "process_pool")

#: per-process caches keyed on cache_dir, so every task a pool worker
#: executes shares one memory tier (and disk tier, when configured)
_WORKER_CACHES: dict[str | None, ArtifactCache] = {}


def _worker_cache(cache_dir: str | None) -> ArtifactCache:
    """The executing process's cache for a given disk tier.

    Created once per (process, cache_dir) and reused across tasks:
    without this, a worker handling several specs of one design would
    re-run characterization and implementation per spec even though the
    serial path memoizes them — making parallel slower than serial
    whenever no disk tier is configured.
    """
    if cache_dir not in _WORKER_CACHES:
        _WORKER_CACHES[cache_dir] = ArtifactCache(cache_dir=cache_dir)
    return _WORKER_CACHES[cache_dir]


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-kind counter growth between two ``ArtifactCache.stats()``
    snapshots (worker caches persist across tasks, so only the delta
    belongs to the current task).  Deltas carry the tiered keys
    (``memory_hits``/``disk_hits``/``misses``)."""
    delta = {}
    for kind, counts in after.items():
        prior = before.get(kind, {})
        growth = {key: counts.get(key, 0) - prior.get(key, 0)
                  for key in ("memory_hits", "disk_hits", "misses")}
        if any(growth.values()):
            delta[kind] = growth
    return delta


def _worker_run_spec(spec_json: str,
                     cache_dir: str | None) -> tuple[dict, dict]:
    """Execute one spec in a pool worker.

    Returns ``(payload, stats_delta)``: the pure-JSON payload plus the
    worker cache's per-kind hit/miss growth for this task, which the
    parent folds into its own counters so a parallel sweep's stats
    report shows the same clib/flow activity a serial run would.  The
    worker's process-local cache sits on the parent's disk tier (when
    one is configured) so characterized libraries and implemented flows
    persist across the batch.  ``spec.workers`` is forced to 1 — a
    worker never opens a nested pool.
    """
    import dataclasses

    from repro import api
    spec = api.RunSpec.from_json(spec_json)
    if spec.workers != 1:
        spec = dataclasses.replace(spec, workers=1)
    cache = _worker_cache(cache_dir)
    before = cache.stats()["by_kind"]
    payload = api.execute_spec(spec, cache=cache)
    return payload, _stats_delta(before, cache.stats()["by_kind"])


class InlineBackend:
    """Execute specs synchronously in the calling process.

    Runs ``api.execute_spec`` against the engine's own cache, so every
    characterization/flow lookup is counted directly — no delta
    merging.  This is the serial reference path of the determinism
    contract (paper Sec. 5 experiments are defined on it).
    """

    name = "inline"

    def __init__(self, cache: ArtifactCache) -> None:
        self._cache = cache
        self.workers = 1

    def submit(self, spec: Any) -> Future:
        """Execute now; return an already-resolved future of
        ``(payload, stats_delta)`` to keep the engine backend-agnostic."""
        from repro import api
        future: Future = Future()
        try:
            payload = api.execute_spec(spec, cache=self._cache)
        except Exception as exc:
            future.set_exception(exc)
        else:
            future.set_result((payload, {}))
        return future

    def close(self) -> None:
        """Nothing to release."""


class ProcessPoolBackend:
    """Persistent warm process pool.

    Workers are forked/spawned once and reused: each holds a
    process-local :class:`ArtifactCache` (``_WORKER_CACHES``) on the
    shared disk tier, so characterized libraries survive across
    batches — the warm-worker property the serving layer depends on.
    Processes spawn lazily on first submit, so an all-hits batch costs
    nothing.
    """

    name = "process_pool"

    def __init__(self, cache: ArtifactCache, workers: int) -> None:
        self.workers = resolve_workers(workers)
        self._cache_dir = (str(cache.cache_dir)
                           if cache.cache_dir is not None else None)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, spec: Any) -> Future:
        """Ship the spec (as canonical JSON) to a warm worker."""
        return self._pool.submit(_worker_run_spec, spec.to_json(),
                                 self._cache_dir)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def create_backend(name: str, cache: ArtifactCache,
                   workers: int = 1) -> Any:
    """Instantiate a backend by name (``inline`` / ``process_pool``)."""
    if name == "inline":
        return InlineBackend(cache)
    if name == "process_pool":
        return ProcessPoolBackend(cache, workers)
    raise SpecError(f"unknown execution backend {name!r}; "
                    f"expected one of {BACKEND_NAMES}")


class ExecutionEngine:
    """The shared resolve → dedupe → dispatch → merge orchestrator.

    ``run_many`` batches and the ``repro.serve`` request loop are both
    thin adapters over this class.  The engine owns one cache and one
    backend; :meth:`execute` processes a spec batch with exactly the
    pre-refactor semantics (hits resolved in the parent, unique misses
    dispatched once, duplicates mirrored as cache hits, failures
    collected by index), and :meth:`run_spec` is the single-spec path a
    server drives per request.
    """

    def __init__(self, cache: ArtifactCache | None = None,
                 backend: str | Any = "inline",
                 workers: int = 1) -> None:
        self.cache = cache if cache is not None else default_cache()
        if isinstance(backend, str):
            backend = create_backend(backend, self.cache, workers)
        self.backend = backend

    @classmethod
    def for_batch(cls, cache: ArtifactCache | None, workers: int | None,
                  num_tasks: int | None = None) -> "ExecutionEngine":
        """The batch adapter's backend choice: inline when one worker
        suffices (the serial reference path), a process pool otherwise."""
        workers = resolve_workers(workers, num_tasks)
        name = "inline" if workers == 1 else "process_pool"
        return cls(cache=cache, backend=name, workers=workers)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-able identity for reports and the ``/stats`` endpoint."""
        return {"name": self.backend.name,
                "workers": getattr(self.backend, "workers", 1)}

    # -- execution --------------------------------------------------------

    def run_spec(self, spec: Any, use_cache: bool = True) -> Any:
        """Execute one spec: lookup, dispatch on miss, store, wrap.

        The per-request path of the serving layer; equivalent to a
        one-element :meth:`execute` batch (and to ``api.run``).
        """
        from repro import api
        if use_cache:
            found, payload = self.cache.lookup("run", spec.spec_hash())
            if found:
                return api.RunResult(spec=spec,
                                     payload=copy.deepcopy(payload),
                                     cache_hit=True)
        payload, stats_delta = self.backend.submit(spec).result()
        if stats_delta:
            self.cache.merge_counts(stats_delta)
        self.cache.put("run", spec.cache_material(),
                       copy.deepcopy(payload))
        return api.RunResult(spec=spec, payload=payload, cache_hit=False)

    def execute(self, specs: Sequence[Any], use_cache: bool = True,
                capture_errors: bool = False) -> list[Any]:
        """Execute a batch of RunSpecs through the backend.

        Returns results in spec order.  With ``capture_errors=True`` a
        failing spec yields a :class:`SpecFailure` in its slot and the
        rest of the batch still runs; otherwise the lowest-index
        failure is raised.  Results are bit-identical across backends
        because every spec is a pure function of its content.
        """
        from repro import api
        specs = list(specs)
        results: list[Any] = [None] * len(specs)

        # Resolve pass: serve hits from the engine cache, dedupe the
        # misses so each unique spec executes exactly once.  Any
        # per-spec failure — hashing, serialization or execution —
        # lands in `errors` keyed by spec index, so the
        # raise-vs-capture decision is taken once at the end,
        # deterministically on the lowest index.
        pending: dict[str, list[int]] = {}
        errors: dict[int, Exception] = {}
        for index, spec in enumerate(specs):
            try:
                if not use_cache:
                    pending[f"force-{index}"] = [index]
                    continue
                key = spec.spec_hash()
                if key in pending:
                    pending[key].append(index)
                    continue
                found, payload = self.cache.lookup("run", key)
            except Exception as exc:
                errors[index] = exc
                continue
            if found:
                results[index] = api.RunResult(
                    spec=spec, payload=copy.deepcopy(payload),
                    cache_hit=True)
            else:
                pending[key] = [index]

        # Dispatch pass: ship each unique miss to the backend; merge
        # payloads and worker counter deltas as futures complete.
        futures: dict[Future, list[int]] = {}
        for indices in pending.values():
            try:
                future = self.backend.submit(specs[indices[0]])
            except Exception as exc:
                for index in indices:
                    errors[index] = exc
                continue
            futures[future] = indices
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                indices = futures[future]
                first = indices[0]
                try:
                    payload, stats_delta = future.result()
                except Exception as exc:
                    for index in indices:
                        errors[index] = exc
                    continue
                if stats_delta:
                    self.cache.merge_counts(stats_delta)
                self.cache.put("run", specs[first].cache_material(),
                               copy.deepcopy(payload))
                results[first] = api.RunResult(
                    spec=specs[first], payload=payload, cache_hit=False)
                for index in indices[1:]:
                    # Mirror the serial contract: a duplicate spec is
                    # a run-cache hit (counted as one).
                    found, dup = self.cache.lookup(
                        "run", specs[index].spec_hash())
                    results[index] = api.RunResult(
                        spec=specs[index],
                        payload=copy.deepcopy(dup if found else payload),
                        cache_hit=True)
        if errors:
            if not capture_errors:
                raise errors[min(errors)]
            for index, exc in errors.items():
                results[index] = SpecFailure.from_exception(
                    specs[index].to_dict(), exc)
        return results
