"""Snapshot persistence: lossless round trips and cross-library merges."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.library import (
    MANIFEST_NAME,
    PREVIOUS_MANIFEST_NAME,
    InMemoryStore,
    is_library_dir,
    load_library,
    merge_libraries,
    save_library,
)


def clip(seed):
    img = np.zeros((8, 8), dtype=np.uint8)
    img[:, seed % 5 : seed % 5 + 2 + seed % 3] = 1
    return img


def assert_same_library(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


#: A snapshot saved by an older version from a 3-shard hash-prefix store:
#: one file per shard, clips interleaved by sequence number.
LEGACY_DIR = Path(__file__).parent / "fixtures" / "sharded-v1"


def legacy_stream():
    """The 12 clips, in admission order, the legacy snapshot holds."""
    rng = np.random.default_rng(2024)
    return [(rng.random((6, 6)) < 0.5).astype(np.uint8) for _ in range(12)]


class TestRoundTrip:
    def test_sharded_store_round_trips_losslessly(self, tmp_path):
        store = InMemoryStore([clip(i) for i in range(20)], name="trip")
        save_library(store, tmp_path / "lib")
        loaded = load_library(tmp_path / "lib")
        assert loaded.name == "trip"
        assert_same_library(store, loaded)
        assert list(loaded.items()) == [
            (digest, loaded_clip)
            for (digest, _), loaded_clip in zip(store.items(), loaded.clips)
        ]
        assert loaded.summary() == store.summary()

    def test_in_memory_store_saves_as_single_shard(self, tmp_path):
        store = InMemoryStore([clip(i) for i in range(6)], name="flat")
        save_library(store, tmp_path / "lib")
        manifest = json.loads((tmp_path / "lib" / MANIFEST_NAME).read_text())
        assert manifest["num_shards"] == 1
        assert manifest["shards"] == {"shard-000001-0000.npz": 6}
        assert_same_library(store, load_library(tmp_path / "lib"))

    def test_empty_store_round_trips(self, tmp_path):
        save_library(InMemoryStore(name="empty"), tmp_path / "lib")
        loaded = load_library(tmp_path / "lib")
        assert len(loaded) == 0
        assert list((tmp_path / "lib").glob("shard-*.npz")) == []

    def test_resave_replaces_previous_snapshot(self, tmp_path):
        store = InMemoryStore([clip(i) for i in range(10)])
        save_library(store, tmp_path / "lib")
        store.admit(clip(11))
        save_library(store, tmp_path / "lib")
        assert_same_library(store, load_library(tmp_path / "lib"))

    def test_non_binary_input_round_trips_as_admitted(self, tmp_path):
        # Stores normalise to binary {0, 1} on admission (the clip's hash
        # identity); what a snapshot returns must equal what the store
        # held, even for multi-valued or bool input rasters.
        loud = np.full((8, 8), 5, dtype=np.uint8)
        boolean = clip(1).astype(bool)
        store = InMemoryStore([loud, boolean])
        for held in store:
            assert set(np.unique(held)) <= {0, 1}
        save_library(store, tmp_path / "lib")
        assert_same_library(store, load_library(tmp_path / "lib"))

    def test_shard_files_are_plain_clip_archives(self, tmp_path):
        from repro.io.clips import load_clips

        store = InMemoryStore([clip(i) for i in range(10)])
        save_library(store, tmp_path / "lib")
        for file in (tmp_path / "lib").glob("shard-*.npz"):
            clips, meta = load_clips(file)
            assert len(clips) == len(meta["sequence"]) == len(meta["hashes"])


class TestSafety:
    def test_is_library_dir(self, tmp_path):
        assert not is_library_dir(tmp_path)
        save_library(InMemoryStore([clip(0)]), tmp_path / "lib")
        assert is_library_dir(tmp_path / "lib")

    def test_refuses_foreign_shard_files(self, tmp_path):
        foreign = tmp_path / "not-ours"
        foreign.mkdir()
        (foreign / "shard-0000.npz").write_bytes(b"something else")
        with pytest.raises(ValueError, match="refusing"):
            save_library(InMemoryStore([clip(0)]), foreign)

    def test_refuses_file_target(self, tmp_path):
        target = tmp_path / "a-file"
        target.write_text("x")
        with pytest.raises(ValueError):
            save_library(InMemoryStore([clip(0)]), target)

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_library(tmp_path)

    def test_load_detects_count_mismatch(self, tmp_path):
        save_library(InMemoryStore([clip(i) for i in range(4)]), tmp_path / "lib")
        manifest_path = tmp_path / "lib" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["count"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="promises"):
            load_library(tmp_path / "lib")


class TestCrashSafety:
    """Generational snapshots: a bad current generation falls back."""

    def test_second_save_keeps_previous_manifest(self, tmp_path):
        store = InMemoryStore([clip(i) for i in range(6)])
        save_library(store, tmp_path / "lib")
        store.admit(clip(7))
        save_library(store, tmp_path / "lib")
        lib = tmp_path / "lib"
        assert (lib / MANIFEST_NAME).exists()
        assert (lib / PREVIOUS_MANIFEST_NAME).exists()
        current = json.loads((lib / MANIFEST_NAME).read_text())
        previous = json.loads((lib / PREVIOUS_MANIFEST_NAME).read_text())
        assert current["generation"] > previous["generation"]

    def test_corrupt_current_manifest_falls_back_to_previous(self, tmp_path):
        first = [clip(i) for i in range(6)]
        store = InMemoryStore(list(first), name="fb")
        save_library(store, tmp_path / "lib")
        store.admit(clip(7))
        save_library(store, tmp_path / "lib")
        (tmp_path / "lib" / MANIFEST_NAME).write_text("{ torn json")
        loaded = load_library(tmp_path / "lib")
        # The fallback serves the *previous* generation's content.
        assert_same_library(loaded, InMemoryStore(first))

    def test_torn_current_shard_falls_back_to_previous(self, tmp_path):
        # A kill -9 between shard writes and the manifest fsync can leave
        # a truncated .npz for the newest generation; loading must fall
        # back to the last generation whose files are intact, not raise.
        first = [clip(i) for i in range(6)]
        store = InMemoryStore(list(first), name="torn")
        save_library(store, tmp_path / "lib")
        store.admit(clip(7))
        save_library(store, tmp_path / "lib")
        current = json.loads((tmp_path / "lib" / MANIFEST_NAME).read_text())
        for name in current["shards"]:
            shard = tmp_path / "lib" / name
            data = shard.read_bytes()
            shard.write_bytes(data[: len(data) // 2])
        loaded = load_library(tmp_path / "lib")
        assert_same_library(loaded, InMemoryStore(first))

    def test_single_save_with_bad_manifest_still_raises(self, tmp_path):
        # With no previous generation there is nothing to fall back to:
        # the current manifest's error must propagate, never be masked.
        save_library(InMemoryStore([clip(0)]), tmp_path / "lib")
        (tmp_path / "lib" / MANIFEST_NAME).write_text("not json at all")
        with pytest.raises(ValueError):
            load_library(tmp_path / "lib")

    def test_resave_prunes_generations_older_than_previous(self, tmp_path):
        store = InMemoryStore([clip(i) for i in range(4)])
        for extra in (5, 6, 7):
            save_library(store, tmp_path / "lib")
            store.admit(clip(extra))
        referenced = set()
        for name in (MANIFEST_NAME, PREVIOUS_MANIFEST_NAME):
            manifest = json.loads((tmp_path / "lib" / name).read_text())
            referenced.update(manifest["shards"])
        on_disk = {p.name for p in (tmp_path / "lib").glob("shard-*.npz")}
        assert on_disk == referenced


class TestMerge:
    def test_merge_dedups_and_keeps_first_source_order(self, tmp_path):
        a = InMemoryStore([clip(i) for i in range(8)], name="a")
        b = InMemoryStore([clip(i) for i in range(4, 12)], name="b")
        save_library(a, tmp_path / "a")
        save_library(b, tmp_path / "b")
        merged = merge_libraries([tmp_path / "a", tmp_path / "b"])
        expected = list(a.clips) + [
            c for c in b.clips if c not in a
        ]
        assert_same_library(merged, expected)
        assert merged.name == "merged"

    def test_merge_is_deterministic_across_save_shapes(self, tmp_path):
        # A legacy multi-shard snapshot and a one-file snapshot of the
        # same stream merge identically, and equal one ordered admission.
        save_library(InMemoryStore(legacy_stream()), tmp_path / "flat")
        rng = np.random.default_rng(7)
        extra = legacy_stream()[6:] + [
            (rng.random((6, 6)) < 0.5).astype(np.uint8) for _ in range(5)
        ]
        save_library(InMemoryStore(extra), tmp_path / "extra")
        m1 = merge_libraries([LEGACY_DIR, tmp_path / "extra"])
        m2 = merge_libraries([tmp_path / "flat", tmp_path / "extra"])
        assert_same_library(m1, m2)
        assert_same_library(m1, InMemoryStore(legacy_stream() + extra))
        assert len(m1) == 17

    def test_merge_requires_sources(self):
        with pytest.raises(ValueError):
            merge_libraries([])


class TestLegacySnapshot:
    def test_multi_shard_snapshot_loads_in_insertion_order(self):
        manifest = json.loads((LEGACY_DIR / MANIFEST_NAME).read_text())
        assert manifest["num_shards"] == 3
        assert len(manifest["shards"]) == 3
        loaded = load_library(LEGACY_DIR)
        assert loaded.name == "legacy"
        assert_same_library(loaded, InMemoryStore(legacy_stream()))
