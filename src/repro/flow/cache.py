"""Content-addressed artifact cache for the experiment facade.

Every expensive artifact the stack produces — characterized libraries,
implemented :class:`~repro.flow.design_flow.FlowResult` objects, solved
Table 1 / population payloads — is a pure function of some declarative
key material (a technology description, a benchmark name, a RunSpec).
This module hashes that material into a stable content address and
memoizes the artifact under it, replacing the old hidden
``_CLIB_CACHE`` dict in ``design_flow`` whose invalidation predicate
keyed only on ``tech.name`` (two different :class:`Technology` objects
sharing a name collided).

The cache is two-tier: an in-memory dict (always on) and an optional
on-disk pickle store for artifacts that survive process restarts.  The
disk tier is sharded by the first two hex characters of the content
address (``<kind>/<aa>/<address>.pkl``) so long-lived serving caches
never accumulate one flat directory of thousands of entries; artifacts
written by older versions at the flat ``<kind>/<address>.pkl`` path are
still found transparently (read-through), and
:meth:`ArtifactCache.migrate_layout` rehomes them.  The disk tier is
multi-process safe: writes go through a temp file plus
:func:`os.replace` (so a killed or concurrent writer can never leave a
truncated pickle at a final path) and unreadable or corrupt entries
degrade to misses — properties the parallel execution engine
(``flow/executor.py``) relies on when several workers share one cache
directory.  Hit counters are kept per artifact kind *and per tier*
(memory vs disk — warm vs lukewarm, the distinction the serving
layer's ``/stats`` endpoint reports) and surfaced by
:func:`repro.flow.reports.format_cache_stats`, ``repro-fbb sweep`` and
``repro-fbb cache stats``.  All mutating entry points take an internal
lock, so one cache instance may back the threaded serving bridge.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import SpecError

_MISS = object()

#: process-local suffix counter for atomic temp-file names
_TMP_COUNTER = itertools.count()

#: hex-prefix width of the sharded disk layout (``<kind>/<aa>/...``)
SHARD_CHARS = 2


def _jsonable(value: Any) -> Any:
    """Coerce key material into canonical JSON-native structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecError(
                f"cannot build a content address from non-finite {value}")
        return value
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    raise SpecError(
        f"cannot build a content address from {type(value).__name__!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift.

    NaN and ±inf raise :class:`~repro.errors.SpecError`: JSON has no
    spelling for them, so they cannot be part of a content address.
    """
    return json.dumps(_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def content_hash(value: Any) -> str:
    """Stable sha256 content address of arbitrary key material."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def tech_content(tech: Any) -> dict:
    """Full-content key material for a Technology (not just its name)."""
    return {"artifact": "technology", "fields": dataclasses.asdict(tech)}


class ArtifactCache:
    """Two-tier (memory + optional disk) content-addressed cache.

    Keys are ``(kind, content-hash)`` pairs; ``kind`` namespaces the
    hit/miss counters so reports can show which artifact class a sweep
    is actually reusing.  Hits are further split by the tier that
    served them (``memory_hits`` vs ``disk_hits``): a long-lived server
    wants to know whether requests are warm (memory) or merely lukewarm
    (a disk read plus unpickle away).

    ``max_entries`` bounds the memory tier with least-recently-used
    eviction — long-lived sweep services over many (design, tech)
    combinations should set it (evicted artifacts stay retrievable from
    the disk tier when a ``cache_dir`` is configured).  The default is
    unbounded, matching interactive/experiment usage.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise SpecError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        self._memory: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._memory_hits: dict[str, int] = {}
        self._disk_hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- addressing -------------------------------------------------------

    @staticmethod
    def address(material: Any) -> str:
        """Content address of key material (pass-through for hex digests)."""
        if isinstance(material, str):
            return material
        return content_hash(material)

    def _disk_path(self, kind: str, address: str) -> Path | None:
        """Canonical (sharded) disk location of one artifact."""
        if self.cache_dir is None:
            return None
        return (self.cache_dir / kind / address[:SHARD_CHARS]
                / f"{address}.pkl")

    def _legacy_disk_path(self, kind: str, address: str) -> Path | None:
        """Pre-sharding flat location, still honoured on reads."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / kind / f"{address}.pkl"

    # -- lookup / store ---------------------------------------------------

    def lookup(self, kind: str, material: Any) -> tuple[bool, Any]:
        """Return ``(found, value)`` and count the hit (per tier) or miss."""
        address = self.address(material)
        with self._lock:
            value = self._memory.get((kind, address), _MISS)
            tier = self._memory_hits
            if value is _MISS:
                value = self._load_disk(kind, address)
                tier = self._disk_hits
            if value is _MISS:
                self._misses[kind] = self._misses.get(kind, 0) + 1
                return False, None
            self._remember(kind, address, value)
            tier[kind] = tier.get(kind, 0) + 1
            return True, value

    def put(self, kind: str, material: Any, value: Any) -> str:
        """Store an artifact; returns its content address."""
        address = self.address(material)
        with self._lock:
            self._remember(kind, address, value)
            self._store_disk(kind, address, value)
        return address

    def _remember(self, kind: str, address: str, value: Any) -> None:
        """Insert into the memory tier as most-recently-used; evict LRU
        entries past ``max_entries``."""
        key = (kind, address)
        self._memory[key] = value
        self._memory.move_to_end(key)
        if self.max_entries is not None:
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)

    def get_or_create(self, kind: str, material: Any,
                      factory: Callable[[], Any]) -> Any:
        """Memoize ``factory()`` under the material's content address."""
        found, value = self.lookup(kind, material)
        if found:
            return value
        value = factory()
        self.put(kind, material, value)
        return value

    def _load_disk(self, kind: str, address: str) -> Any:
        """Read one artifact from disk: sharded path first, then the
        legacy flat path (transparent read-through of old caches)."""
        for path in (self._disk_path(kind, address),
                     self._legacy_disk_path(kind, address)):
            if path is None:
                return _MISS
            if not path.is_file():
                continue
            try:
                with path.open("rb") as handle:
                    return pickle.load(handle)
            except Exception:  # corrupt or unreadable: try next / miss
                continue
        return _MISS

    def _store_disk(self, kind: str, address: str, value: Any) -> None:
        """Atomically persist one artifact (multi-process safe).

        The pickle is written to a uniquely named temp file in the
        target directory and moved into place with :func:`os.replace`,
        so concurrent writers of the same address race benignly (last
        complete write wins, both are identical by content addressing)
        and a killed process can never leave a truncated pickle at the
        final path — readers either see a whole artifact or a miss.
        New writes always land in the sharded layout.
        """
        path = self._disk_path(kind, address)
        if path is None:
            return
        try:
            blob = pickle.dumps(value)
        except Exception:  # unpicklable artifacts stay memory-only
            return
        tmp = path.parent / (f".{address}.{os.getpid()}."
                             f"{next(_TMP_COUNTER)}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except Exception:  # disk-tier failures degrade to memory-only
            with contextlib.suppress(OSError):
                tmp.unlink()

    # -- disk-tier maintenance (repro-fbb cache) --------------------------

    def _iter_disk_entries(self) -> Iterator[tuple[str, str, Path, str]]:
        """Yield ``(kind, address, path, layout)`` for every on-disk
        artifact, where ``layout`` is ``"sharded"`` or ``"legacy"``."""
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        for kind_dir in sorted(self.cache_dir.iterdir()):
            if not kind_dir.is_dir():
                continue
            kind = kind_dir.name
            for child in sorted(kind_dir.iterdir()):
                if child.is_file() and child.suffix == ".pkl":
                    yield kind, child.stem, child, "legacy"
                elif child.is_dir() and len(child.name) == SHARD_CHARS:
                    for path in sorted(child.glob("*.pkl")):
                        yield kind, path.stem, path, "sharded"

    def disk_inventory(self) -> dict:
        """Per-kind census of the disk tier: entry counts by layout and
        total bytes — what ``repro-fbb cache stats`` tabulates."""
        inventory: dict[str, dict] = {}
        for kind, _address, path, layout in self._iter_disk_entries():
            row = inventory.setdefault(
                kind, {"entries": 0, "sharded": 0, "legacy": 0, "bytes": 0})
            row["entries"] += 1
            row[layout] += 1
            with contextlib.suppress(OSError):
                row["bytes"] += path.stat().st_size
        return inventory

    def migrate_layout(self) -> dict[str, int]:
        """Rehome legacy flat-layout artifacts into sharded directories.

        Returns the per-kind count of moved files.  Uses
        :func:`os.replace`, so a sharded copy that already exists (e.g.
        written by a newer process since the legacy one) simply wins and
        the flat duplicate disappears — both are identical by content
        addressing.  Safe to re-run; a fully sharded cache is a no-op.
        """
        moved: dict[str, int] = {}
        for kind, address, path, layout in list(self._iter_disk_entries()):
            if layout != "legacy":
                continue
            target = self._disk_path(kind, address)
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
            except OSError:
                continue
            moved[kind] = moved.get(kind, 0) + 1
        return moved

    def clear_disk(self) -> int:
        """Delete every on-disk artifact (both layouts); returns the
        number of entries removed.  Empty shard/kind directories are
        pruned; the cache directory itself is kept."""
        removed = 0
        for _kind, _address, path, _layout in list(self._iter_disk_entries()):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        if self.cache_dir is not None and self.cache_dir.is_dir():
            for kind_dir in self.cache_dir.iterdir():
                if not kind_dir.is_dir():
                    continue
                for shard in kind_dir.iterdir():
                    if shard.is_dir():
                        with contextlib.suppress(OSError):
                            shard.rmdir()
                with contextlib.suppress(OSError):
                    kind_dir.rmdir()
        return removed

    def verify_disk(self) -> dict:
        """Read-through every disk artifact, exercising the tiered
        counters; returns per-kind ``{"readable": n, "corrupt": n}``.

        Each artifact loads through :meth:`lookup`, so a verification
        pass over a cold cache shows up as pure disk hits — the table
        ``repro-fbb cache stats`` prints.
        """
        report: dict[str, dict] = {}
        for kind, address, _path, _layout in self._iter_disk_entries():
            row = report.setdefault(kind, {"readable": 0, "corrupt": 0})
            found, _value = self.lookup(kind, address)
            row["readable" if found else "corrupt"] += 1
        return report

    # -- bookkeeping ------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def memory_hits(self) -> int:
        return sum(self._memory_hits.values())

    @property
    def disk_hits(self) -> int:
        return sum(self._disk_hits.values())

    @property
    def misses(self) -> int:
        return sum(self._misses.values())

    def stats(self) -> dict:
        """JSON-able counter snapshot, per artifact kind and total.

        ``hits`` aggregates both tiers; ``memory_hits``/``disk_hits``
        split it, at the top level and per kind.
        """
        with self._lock:
            kinds = sorted(set(self._memory_hits) | set(self._disk_hits)
                           | set(self._misses))
            return {
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "entries": len(self._memory),
                "by_kind": {
                    kind: {
                        "hits": (self._memory_hits.get(kind, 0)
                                 + self._disk_hits.get(kind, 0)),
                        "memory_hits": self._memory_hits.get(kind, 0),
                        "disk_hits": self._disk_hits.get(kind, 0),
                        "misses": self._misses.get(kind, 0)}
                    for kind in kinds},
            }

    def merge_counts(self, by_kind: dict) -> None:
        """Fold another cache's per-kind hit/miss counters into ours.

        Used by the execution engine: pool workers execute against
        process-local caches, so without merging their counter deltas
        back a parallel sweep's stats report would silently omit all
        worker-side clib/flow activity that a serial run shows.  Counter
        dicts may be tiered (``memory_hits``/``disk_hits``) or legacy
        aggregate (``hits`` only, attributed to the memory tier).
        """
        with self._lock:
            for kind, counts in by_kind.items():
                memory = counts.get("memory_hits")
                if memory is None:
                    memory = counts.get("hits", 0)
                if memory:
                    self._memory_hits[kind] = \
                        self._memory_hits.get(kind, 0) + memory
                disk = counts.get("disk_hits", 0)
                if disk:
                    self._disk_hits[kind] = \
                        self._disk_hits.get(kind, 0) + disk
                misses = counts.get("misses", 0)
                if misses:
                    self._misses[kind] = \
                        self._misses.get(kind, 0) + misses

    def clear(self) -> None:
        """Drop memory entries and counters (disk artifacts are kept)."""
        with self._lock:
            self._memory.clear()
            self._memory_hits.clear()
            self._disk_hits.clear()
            self._misses.clear()


_DEFAULT_CACHE = ArtifactCache()


def default_cache() -> ArtifactCache:
    """The process-wide cache used when no explicit cache is passed."""
    return _DEFAULT_CACHE


def set_default_cache(cache: ArtifactCache) -> ArtifactCache:
    """Swap the process-wide cache (returns the previous one)."""
    global _DEFAULT_CACHE
    previous = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return previous
