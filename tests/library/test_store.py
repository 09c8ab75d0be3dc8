"""Unit tests for the library store: dedup, order, summaries, caching."""

import json

import numpy as np
import pytest

import repro.geometry.hashing as hashing_mod
import repro.library.store as store_mod
import repro.metrics.diversity as diversity_mod
from repro.core.library import PatternLibrary
from repro.geometry.raster import density
from repro.library import InMemoryStore, LibraryStore, load_library
from repro.metrics.diversity import summarize_library
from repro.metrics.entropy import h1_entropy, h2_entropy


def clip(seed):
    """A wire clip whose offset/width vary with the seed (distinct H2
    geometry classes — dense random noise would all share one class)."""
    img = np.zeros((8, 8), dtype=np.uint8)
    offset = seed % 5
    width = 2 + seed % 3
    img[:, offset : offset + width] = 1
    return img


def noisy_clips(n):
    """n random rasters: many H1 and H2 classes, with uneven counts."""
    rng = np.random.default_rng(11)
    return [(rng.random((6, 6)) < 0.3).astype(np.uint8) for _ in range(n)]


def empty_legacy_snapshot(path):
    """An empty snapshot in the multi-shard layout older versions wrote."""
    path.mkdir()
    manifest = {"format": 1, "name": "legacy", "num_shards": 4, "count": 0,
                "generation": 1, "shards": {}}
    (path / "library.json").write_text(json.dumps(manifest))
    return path


@pytest.fixture(params=["memory", "sharded", "facade"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    if request.param == "facade":
        return PatternLibrary()
    # "sharded": the store a legacy multi-shard snapshot loads into.
    return load_library(empty_legacy_snapshot(tmp_path / "legacy"))


class TestStoreSemantics:
    def test_satisfies_protocol(self, store):
        assert isinstance(store, LibraryStore)

    def test_admit_deduplicates(self, store):
        assert store.admit(clip(0))
        assert not store.admit(clip(0))
        assert len(store) == 1

    def test_admit_many_returns_per_clip_flags(self, store):
        flags = store.admit_many([clip(0), clip(1), clip(0), clip(2)])
        assert flags == [True, True, False, True]
        assert len(store) == 3

    def test_insertion_order_preserved(self, store):
        store.admit_many([clip(3), clip(1), clip(2)])
        np.testing.assert_array_equal(store.clips[0], clip(3))
        np.testing.assert_array_equal(store.clips[2], clip(2))

    def test_contains(self, store):
        store.admit(clip(0))
        assert clip(0) in store
        assert clip(1) not in store

    def test_clips_is_immutable_tuple(self, store):
        store.admit_many([clip(0), clip(1)])
        view = store.clips
        assert isinstance(view, tuple)
        with pytest.raises((TypeError, AttributeError)):
            view.append(clip(2))  # type: ignore[attr-defined]
        # Mutating what the caller passed in must not reach the store.
        source = clip(3)
        store.admit(source)
        source[0, 0] ^= 1
        assert not np.array_equal(store.clips[-1], source)

    def test_items_pair_digests_with_clips(self, store):
        from repro.geometry.hashing import pattern_hash

        store.admit_many([clip(0), clip(1)])
        items = list(store.items())
        assert [digest for digest, _ in items] == [
            pattern_hash(c) for _, c in items
        ]

    def test_merge_rejects_delta_internal_duplicates(self, store):
        # Mixed shapes take the loose-clip path of admit_many (merging
        # libraries is ordered admission); it dedups within the batch too.
        small = np.ones((4, 6), dtype=np.uint8)
        flags = store.admit_many([clip(0), small, clip(0), small.astype(bool)])
        assert flags == [True, True, False, False]
        assert [c.shape for c in store.clips] == [(8, 8), (4, 6)]

    def test_summary_matches_flat_computation(self, store):
        store.admit_many([clip(i) for i in range(7)])
        expected = summarize_library(list(store.clips))
        got = store.summary()
        assert got.count == expected.count
        assert got.unique == expected.unique
        assert got.h1 == pytest.approx(expected.h1)
        assert got.h2 == pytest.approx(expected.h2)
        assert got.mean_density == pytest.approx(expected.mean_density)


class TestSummaryCaching:
    def test_in_memory_summary_cached_per_generation(self, monkeypatch):
        calls = {"n": 0}
        real = store_mod.summarize_library

        def counting(clips, **kwargs):
            calls["n"] += 1
            return real(clips, **kwargs)

        monkeypatch.setattr(store_mod, "summarize_library", counting)
        store = InMemoryStore([clip(i) for i in range(5)])
        store.summary()
        store.summary()
        store.summary()
        assert calls["n"] == 1
        store.admit(clip(7))
        store.summary()
        store.summary()
        assert calls["n"] == 2

    def test_summary_squishes_each_clip_once(self, monkeypatch):
        calls = {"n": 0}
        real = hashing_mod.squish_of

        def counting(clip):
            calls["n"] += 1
            return real(clip)

        # Both names: the entropy helpers reach squish_of through
        # repro.geometry.hashing, the one-pass summary through its import.
        monkeypatch.setattr(hashing_mod, "squish_of", counting)
        monkeypatch.setattr(diversity_mod, "squish_of", counting)
        store = InMemoryStore(noisy_clips(40))
        store.summary()
        assert calls["n"] == len(store)
        store.summary()
        assert calls["n"] == len(store)  # cached: no second pass

    def test_summary_equals_two_pass_computation(self):
        store = InMemoryStore(noisy_clips(40))
        clips = list(store.clips)
        got = store.summary()
        assert got.count == got.unique == len(clips)
        assert got.h1 == h1_entropy(clips)
        assert got.h2 == h2_entropy(clips)
        assert got.mean_density == float(np.mean([density(c) for c in clips]))

    def test_store_summary_skips_uniqueness_rehash(self, monkeypatch):
        flat = InMemoryStore([clip(i) for i in range(5)])
        monkeypatch.setattr(
            diversity_mod,
            "unique_count",
            lambda *a: (_ for _ in ()).throw(
                AssertionError("summary() must not re-hash a dedup store")
            ),
        )
        assert flat.summary().unique == 5


class TestFacade:
    def test_add_and_add_many_vocabulary(self):
        library = PatternLibrary()
        assert library.add(clip(0))
        assert not library.add(clip(0))
        assert library.add_many([clip(0), clip(1), clip(2)]) == 2
        assert len(library) == 3

    def test_facade_is_a_store(self):
        assert isinstance(PatternLibrary(), InMemoryStore)
