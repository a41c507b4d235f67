"""Tests for the content-addressed artifact cache.

Includes the regression for the old ``_CLIB_CACHE`` bug: its
invalidation predicate keyed characterized libraries on ``tech.name``
alone, so two different Technology objects sharing a name collided.
The artifact cache keys on the full technology content instead.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import SpecError
from repro.flow import characterized_library, implement
from repro.flow.cache import (ArtifactCache, canonical_json, content_hash,
                              default_cache, set_default_cache,
                              tech_content)
from repro.tech import Technology


class TestContentHash:
    def test_stable_across_key_order(self):
        assert content_hash({"a": 1, "b": [1, 2]}) \
            == content_hash({"b": [1, 2], "a": 1})

    def test_tuples_and_lists_hash_alike(self):
        assert content_hash({"x": (1, 2)}) == content_hash({"x": [1, 2]})

    def test_different_content_different_hash(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_dataclasses_hash_by_content(self):
        assert content_hash(Technology()) == content_hash(Technology())
        assert content_hash(Technology()) \
            != content_hash(Technology(vth0_n=0.46))

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": (2,)}) == '{"a":[2],"b":1}'

    def test_unhashable_material_rejected(self):
        with pytest.raises(SpecError):
            content_hash({"f": object()})

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
        np.float64("nan"), np.float32("inf"), np.float32("-inf"),
    ], ids=repr)
    @pytest.mark.parametrize("wrap", [
        lambda v: v,
        lambda v: {"a": [1, {"b": (2.0, v)}]},
    ], ids=["plain", "nested"])
    def test_non_finite_floats_rejected(self, value, wrap):
        """JSON has no spelling for NaN or +-inf: canonical_json used to
        write a bare ``NaN`` into the content address."""
        with pytest.raises(SpecError, match="non-finite"):
            canonical_json(wrap(value))
        with pytest.raises(SpecError, match="non-finite"):
            content_hash(wrap(value))

    def test_finite_numpy_scalars_still_hash(self):
        assert canonical_json({"x": np.float64(0.5), "n": np.int64(3)}) \
            == '{"n":3,"x":0.5}'


class TestArtifactCache:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        found, _ = cache.lookup("thing", {"k": 1})
        assert not found
        cache.put("thing", {"k": 1}, "value")
        found, value = cache.lookup("thing", {"k": 1})
        assert found and value == "value"
        assert cache.hits == 1 and cache.misses == 1

    def test_get_or_create_runs_factory_once(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_create("thing", {"k": 1},
                                        lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_kinds_are_namespaced(self):
        cache = ArtifactCache()
        cache.put("alpha", {"k": 1}, "a")
        found, _ = cache.lookup("beta", {"k": 1})
        assert not found
        assert cache.stats()["by_kind"]["beta"]["misses"] == 1

    def test_stats_shape(self):
        cache = ArtifactCache()
        cache.get_or_create("x", {"k": 1}, lambda: 1)
        cache.get_or_create("x", {"k": 1}, lambda: 1)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["memory_hits"] == 1 and stats["disk_hits"] == 0
        assert stats["entries"] == 1
        assert stats["by_kind"]["x"] == {"hits": 1, "memory_hits": 1,
                                         "disk_hits": 0, "misses": 1}

    def test_clear_resets_memory_and_counters(self):
        cache = ArtifactCache()
        cache.get_or_create("x", {"k": 1}, lambda: 1)
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0
        found, _ = cache.lookup("x", {"k": 1})
        assert not found

    def test_disk_tier_survives_new_instance(self, tmp_path):
        first = ArtifactCache(cache_dir=tmp_path)
        first.put("thing", {"k": 1}, {"payload": [1, 2, 3]})
        second = ArtifactCache(cache_dir=tmp_path)
        found, value = second.lookup("thing", {"k": 1})
        assert found and value == {"payload": [1, 2, 3]}

    def test_corrupt_disk_artifact_is_a_miss(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        address = cache.put("thing", {"k": 1}, "value")
        path = tmp_path / "thing" / address[:2] / f"{address}.pkl"
        path.write_bytes(b"not a pickle")
        fresh = ArtifactCache(cache_dir=tmp_path)
        found, _ = fresh.lookup("thing", {"k": 1})
        assert not found

    def test_lru_eviction_bounds_memory_tier(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("x", {"k": 1}, "a")
        cache.put("x", {"k": 2}, "b")
        cache.lookup("x", {"k": 1})  # touch 1 -> 2 becomes LRU
        cache.put("x", {"k": 3}, "c")
        assert cache.lookup("x", {"k": 2})[0] is False  # evicted
        assert cache.lookup("x", {"k": 1})[0] is True
        assert cache.lookup("x", {"k": 3})[0] is True

    def test_evicted_entries_reload_from_disk(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_entries=1)
        cache.put("x", {"k": 1}, "a")
        cache.put("x", {"k": 2}, "b")  # evicts 1 from memory
        found, value = cache.lookup("x", {"k": 1})
        assert found and value == "a"  # served by the disk tier

    def test_bad_max_entries_rejected(self):
        with pytest.raises(SpecError):
            ArtifactCache(max_entries=0)

    def test_default_cache_swap(self):
        replacement = ArtifactCache()
        previous = set_default_cache(replacement)
        try:
            assert default_cache() is replacement
        finally:
            set_default_cache(previous)


class TestEvictionAndMergeEdgeCases:
    """Satellite edge cases: eviction at the minimum memory budget
    with mixed kinds, and counter merging with empty / overlapping /
    legacy-shaped delta dicts."""

    def test_max_entries_one_with_mixed_kinds(self):
        """The memory tier is one LRU across kinds: at max_entries=1
        a put of any kind evicts whatever else was resident."""
        cache = ArtifactCache(max_entries=1)
        cache.put("clib", {"k": 1}, "library")
        cache.put("flow", {"k": 1}, "netlist")  # evicts the clib entry
        assert cache.lookup("clib", {"k": 1})[0] is False
        found, value = cache.lookup("flow", {"k": 1})
        assert found and value == "netlist"
        assert cache.stats()["entries"] == 1
        # the eviction was memory-only bookkeeping, not a counter reset
        assert cache.stats()["by_kind"]["clib"]["misses"] == 1

    def test_max_entries_one_disk_tier_keeps_both_kinds(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_entries=1)
        cache.put("clib", {"k": 1}, "library")
        cache.put("flow", {"k": 1}, "netlist")
        found, value = cache.lookup("clib", {"k": 1})
        assert found and value == "library"  # reloaded from disk
        assert cache.stats()["by_kind"]["clib"]["disk_hits"] == 1
        assert cache.stats()["by_kind"]["clib"]["memory_hits"] == 0

    def test_merge_counts_empty_delta_is_a_noop(self):
        cache = ArtifactCache()
        cache.get_or_create("x", {"k": 1}, lambda: 1)
        before = cache.stats()
        cache.merge_counts({})
        cache.merge_counts({"x": {}})
        after = cache.stats()
        assert after == before

    def test_merge_counts_overlapping_kinds_accumulate(self):
        """Merging into a kind the cache already counted adds to the
        existing tallies instead of replacing them."""
        cache = ArtifactCache()
        cache.get_or_create("x", {"k": 1}, lambda: 1)  # x: 1 miss
        cache.get_or_create("x", {"k": 1}, lambda: 1)  # x: 1 memory hit
        cache.merge_counts({"x": {"memory_hits": 5, "disk_hits": 2,
                                  "misses": 3},
                            "y": {"memory_hits": 1}})
        by_kind = cache.stats()["by_kind"]
        assert by_kind["x"] == {"hits": 8, "memory_hits": 6,
                                "disk_hits": 2, "misses": 4}
        assert by_kind["y"] == {"hits": 1, "memory_hits": 1,
                                "disk_hits": 0, "misses": 0}

    def test_merge_counts_legacy_hits_attributed_to_memory(self):
        cache = ArtifactCache()
        cache.merge_counts({"x": {"hits": 4, "misses": 2}})
        assert cache.stats()["by_kind"]["x"] == {
            "hits": 4, "memory_hits": 4, "disk_hits": 0, "misses": 2}
        assert cache.hits == 4 and cache.misses == 2


class TestCharacterizedLibraryCache:
    def test_same_content_same_object(self):
        cache = ArtifactCache()
        first = characterized_library(Technology(), cache=cache)
        second = characterized_library(Technology(), cache=cache)
        assert first is second
        assert cache.stats()["by_kind"]["clib"]["hits"] == 1

    def test_same_name_different_content_not_collided(self):
        """Regression: the old _CLIB_CACHE keyed on tech.name only."""
        cache = ArtifactCache()
        base = Technology()
        shifted = Technology(vth0_n=0.50)
        assert base.name == shifted.name  # same name, different node
        first = characterized_library(base, cache=cache)
        second = characterized_library(shifted, cache=cache)
        assert first is not second
        assert first.delay_scales != second.delay_scales
        assert cache.stats()["by_kind"]["clib"]["misses"] == 2

    def test_tech_content_covers_every_field(self):
        fields = set(tech_content(Technology())["fields"])
        assert fields == {f.name
                         for f in dataclasses.fields(Technology)}


class TestImplementCache:
    def test_named_benchmark_memoized(self):
        cache = ArtifactCache()
        first = implement("c1355", cache=cache)
        second = implement("c1355", cache=cache)
        assert first is second
        assert cache.stats()["by_kind"]["flow"]["hits"] == 1

    def test_flow_knobs_participate_in_key(self):
        cache = ArtifactCache()
        implement("c1355", cache=cache)
        other = implement("c1355", utilization=0.70, cache=cache)
        assert cache.stats()["by_kind"]["flow"]["misses"] == 2
        assert other.num_rows > 0
