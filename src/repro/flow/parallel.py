"""Process-pool sharding for population tuning, plus the batch
plumbing shared with the execution engine (scales the paper's Sec. 5
experiments across cores).

Every die's calibration is independent of every other die's, so
:func:`shard` splits a population's out-of-budget dies into contiguous
per-worker chunks and maps one function over them on a
:class:`concurrent.futures.ProcessPoolExecutor`; concatenating the parts
restores die order.  :func:`tune_chunk` is the one worker
``tune_population`` ships: it rebuilds the tuning controller from its
constructor fields and runs the same chunk calibrator the in-process
path runs, so the reassembled records are bit-identical to ``workers=1``
in every mode and engine.  Spec batches fan out through
:class:`repro.flow.executor.ExecutionEngine` instead.

The determinism contract: ``workers=1`` is the reference path, and for
any ``workers > 1`` the merged results must equal it exactly (modulo
wall-clock runtime fields).  ``RunSpec.workers`` is an execution knob,
not an input to the experiment, so it is excluded from the spec's
content address — a 4-worker sweep hits the artifacts a serial sweep
produced and vice versa.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import SpecError
from repro.flow.cache import canonical_json


def resolve_workers(workers: int | None,
                    num_tasks: int | None = None) -> int:
    """Validate a worker count and clamp it to the available tasks."""
    if workers is None:
        workers = 1
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    if num_tasks is not None:
        workers = min(workers, max(int(num_tasks), 1))
    return workers


#: payload keys ending in this suffix are wall-clock diagnostics
RUNTIME_KEY_SUFFIX = "runtime_s"


def stable_payload(payload: dict) -> dict:
    """A payload's deterministic view: wall-clock fields dropped.

    RunResult payloads are pure functions of their spec *except* for
    the ``*runtime_s`` timing diagnostics, which differ between any two
    executions (serial re-runs included).  The serial/parallel
    equivalence contract — and the tests and benchmarks that enforce
    it — is defined on this view.
    """
    return {key: value for key, value in payload.items()
            if not key.endswith(RUNTIME_KEY_SUFFIX)}


def chunked(items: Sequence[Any], num_chunks: int) -> list[list[Any]]:
    """Split ``items`` into at most ``num_chunks`` contiguous, non-empty
    chunks whose concatenation restores the input order."""
    if num_chunks < 1:
        raise SpecError(f"num_chunks must be >= 1, got {num_chunks}")
    count = min(num_chunks, len(items))
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    chunks, start = [], 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start:start + size]))
        start += size
    return chunks


@dataclass(frozen=True)
class SpecFailure:
    """One spec's captured failure in an error-tolerant batch.

    Emitted (as a JSONL line alongside the RunResult lines) by
    ``repro-fbb sweep`` so one malformed spec no longer aborts the whole
    batch; distinguishable from a result because it carries ``error``
    instead of ``payload``.
    """

    spec: Any
    """The offending spec material (raw JSON entry or RunSpec dict)."""
    error: str
    """Exception class name."""
    message: str

    @classmethod
    def from_exception(cls, spec: Any, exc: BaseException) -> "SpecFailure":
        return cls(spec=spec, error=type(exc).__name__, message=str(exc))

    def to_dict(self) -> dict:
        try:
            spec = json.loads(canonical_json(self.spec))
        except Exception:
            # The spec material itself may be what failed to serialize
            # (e.g. a set inside tech overrides); the error record must
            # still be emittable.
            spec = repr(self.spec)
        return {"schema_version": 1, "error": self.error,
                "message": self.message, "spec": spec}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


# -- population tuning (tune_population's multi-core path) -----------------

def shard(fn: Callable[[list], list], items: Sequence[Any],
          workers: int) -> list:
    """``fn`` over contiguous chunks of ``items``, concatenated in order.

    One chunk runs in-process; more run on a process pool sized to the
    chunk count, so ``fn`` and the items must pickle.
    """
    chunks = chunked(list(items), resolve_workers(workers, len(items)))
    if len(chunks) <= 1:
        parts = [fn(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(fn, chunks))
    return [item for part in parts for item in part]


def tune_chunk(blueprint: dict, calibrate: Callable, dies: list) -> list:
    """Pool worker: calibrate one chunk of dies on a rebuilt controller.

    ``blueprint`` holds every constructor field of the tuning
    controller; rebuilding from it is cheap next to calibration and
    avoids pickling live analyzer/monitor state.
    ``calibrate(controller, dies)`` is the chunk calibrator the
    in-process path runs.
    """
    from repro.tuning.controller import TuningController
    return calibrate(TuningController(**blueprint), dies)
