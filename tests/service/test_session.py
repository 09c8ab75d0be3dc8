"""Session-scoped stores: sharing, snapshot loading, checkpointing."""

import numpy as np
import pytest

from repro.library import InMemoryStore, load_library, save_library
from repro.service import SessionConfig, SessionManager


def _clip(seed: int) -> np.ndarray:
    img = np.zeros((8, 8), dtype=np.uint8)
    img[:, seed % 5: seed % 5 + 2 + seed % 3] = 1
    return img


class TestConfig:
    def test_validation(self):
        with pytest.raises(TypeError):  # no shard knob: one store
            SessionConfig(library_shards=2)
        with pytest.raises(ValueError):
            SessionConfig(checkpoint_every=-1)


class TestManager:
    def test_same_id_returns_same_session(self):
        manager = SessionManager()
        a = manager.get("tenant-a")
        assert manager.get("tenant-a") is a
        assert a.store is manager.get("tenant-a").store

    def test_distinct_ids_get_distinct_stores(self):
        manager = SessionManager()
        a, b = manager.get("a"), manager.get("b")
        assert a.store is not b.store
        a.store.admit(_clip(1))
        assert len(b.store) == 0

    def test_sharded_store_flavour(self):
        # Every session gets the one store flavour, named after it.
        store = SessionManager().get("t").store
        assert isinstance(store, InMemoryStore)
        assert store.name == "t"

    def test_invalid_ids_rejected(self):
        manager = SessionManager()
        for bad in ("", "../escape", ".hidden", "a b", None, "tenant\n", 5):
            with pytest.raises(ValueError):
                manager.get(bad)

    def test_snapshot_loaded_on_first_use(self, tmp_path):
        seeded = InMemoryStore([_clip(i) for i in range(5)])
        save_library(seeded, tmp_path / "tenant-a")
        manager = SessionManager(SessionConfig(snapshot_root=tmp_path))
        session = manager.get("tenant-a")
        assert len(session.store) == 5
        assert session.store.name == "tenant-a"
        # Re-admitting a snapshot clip is a duplicate: cross-restart dedup.
        assert session.store.admit(_clip(0)) is False

    def test_fresh_session_without_snapshot(self, tmp_path):
        manager = SessionManager(SessionConfig(snapshot_root=tmp_path))
        assert len(manager.get("new-tenant").store) == 0


class TestCheckpointing:
    def test_periodic_checkpoint_every_n_batches(self, tmp_path):
        manager = SessionManager(
            SessionConfig(snapshot_root=tmp_path, checkpoint_every=2)
        )
        session = manager.get("t")
        session.store.admit(_clip(0))
        assert session.record_batch() is None  # batch 1: not yet due
        session.store.admit(_clip(1))
        written = session.record_batch()  # batch 2: due
        assert written == tmp_path / "t"
        assert session.checkpoints == 1
        assert len(load_library(written)) == 2

    def test_no_checkpoint_without_interval(self, tmp_path):
        manager = SessionManager(SessionConfig(snapshot_root=tmp_path))
        session = manager.get("t")
        for _ in range(5):
            assert session.record_batch() is None
        assert session.checkpoints == 0

    def test_checkpoint_all_writes_every_persistent_session(self, tmp_path):
        manager = SessionManager(SessionConfig(snapshot_root=tmp_path))
        for name in ("a", "b"):
            manager.get(name).store.admit(_clip(hash(name) % 7))
        written = manager.checkpoint_all()
        assert sorted(p.name for p in written) == ["a", "b"]
        assert all((p / "library.json").exists() for p in written)

    def test_checkpoint_all_survives_one_bad_session(self, tmp_path):
        manager = SessionManager(SessionConfig(snapshot_root=tmp_path))
        bad, good = manager.get("bad"), manager.get("good")
        bad.store.admit(_clip(0))
        good.store.admit(_clip(1))
        (tmp_path / "bad").write_text("not a directory")  # poison one target
        written = manager.checkpoint_all()
        assert [p.name for p in written] == ["good"]
        assert bad.last_checkpoint_error is not None

    def test_checkpoint_without_dir_raises(self):
        session = SessionManager().get("t")
        with pytest.raises(ValueError, match="snapshot directory"):
            session.checkpoint()

    def test_checkpoint_failure_is_recorded_not_raised(self, tmp_path):
        manager = SessionManager(
            SessionConfig(snapshot_root=tmp_path, checkpoint_every=1)
        )
        session = manager.get("t")
        # Poison the target: an existing *file* where the dir should go.
        (tmp_path / "t").write_text("not a directory")
        session.store.admit(_clip(0))
        assert session.record_batch() is None
        assert session.last_checkpoint_error is not None
        assert len(session.store) == 1  # store itself intact
