"""Hash-keyed DRC caching: check_batch, legal_mask, shared stores,
disk persistence."""

import json

import numpy as np
import pytest

from repro.baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from repro.drc import advanced_deck, basic_deck
from repro.drc.cache import (
    DrcCache,
    clear_shared_caches,
    load_shared_caches,
    save_shared_caches,
)
from repro.geometry import Grid

GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)


@pytest.fixture(scope="module")
def deck():
    return advanced_deck(GRID)


@pytest.fixture(scope="module")
def clips(deck):
    generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
    good = generator.sample_many(4, np.random.default_rng(0))
    bad = np.zeros((32, 32), dtype=np.uint8)
    bad[:, 4:6] = 1  # width 2: violates the advanced deck
    return good + [bad]


class TestCheckBatch:
    def test_matches_is_clean(self, deck, clips):
        engine = deck.engine()
        mask = engine.check_batch(clips)
        assert list(mask) == [engine.is_clean(c) for c in clips]

    def test_duplicates_checked_once(self, deck, clips):
        engine = deck.engine()
        engine.cache.clear()
        mask = engine.check_batch(list(clips) + list(clips))
        np.testing.assert_array_equal(mask[: len(clips)], mask[len(clips) :])
        # One rule sweep per unique clip, regardless of repetition.
        assert engine.cache.misses == len(clips)

    def test_second_call_all_hits(self, deck, clips):
        engine = deck.engine()
        engine.cache.clear()
        first = engine.check_batch(clips)
        hits_before = engine.cache.hits
        second = engine.check_batch(clips)
        np.testing.assert_array_equal(first, second)
        assert engine.cache.hits == hits_before + len(clips)

    def test_uncached_bypass(self, deck, clips):
        engine = deck.engine()
        engine.cache.clear()
        mask = engine.check_batch(clips, use_cache=False)
        assert engine.cache.misses == 0
        assert list(mask) == [engine.is_clean(c) for c in clips]

    def test_empty_batch(self, deck):
        assert deck.engine().check_batch([]).size == 0


class TestSharedStore:
    def test_equal_engines_share_results(self, deck, clips):
        clear_shared_caches()
        first = deck.engine()
        first.check_batch(clips)
        # A *fresh* engine over the same deck starts warm.
        second = advanced_deck(GRID).engine()
        second.check_batch(clips)
        assert second.cache.hits == len(clips)
        assert second.cache.misses == 0


class TestLegacyEntryPoints:
    def test_legal_mask_and_rate(self, deck, clips):
        engine = deck.engine()
        mask = engine.legal_mask(clips)
        assert mask.dtype == bool
        assert engine.legality_rate(clips) == pytest.approx(mask.mean())
        assert engine.legality_rate([]) == 0.0

    def test_filter_clean(self, deck, clips):
        engine = deck.engine()
        clean = engine.filter_clean(clips)
        assert len(clean) == int(engine.legal_mask(clips).sum())


class TestDrcCacheUnit:
    def test_eviction_bound(self):
        cache = DrcCache(maxsize=2)
        cache.put("a", True)
        cache.put("b", False)
        cache.put("c", True)
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted (FIFO)
        assert cache.get("c") is True

    def test_pickle_resets_store(self):
        import pickle

        cache = DrcCache(maxsize=10)
        cache.put("a", True)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0
        assert clone.get("a") is None

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            DrcCache(maxsize=0)


class TestDiskPersistence:
    """Satellite: opt-in disk-backed DRC cache across runs."""

    def _warm(self, deck, clips):
        engine = deck.engine()
        engine.check_batch(clips)
        return engine

    def test_save_then_load_restores_verdicts(self, deck, clips, tmp_path):
        clear_shared_caches()
        reference = list(self._warm(deck, clips).check_batch(clips))
        assert save_shared_caches(tmp_path) == 1
        files = list(tmp_path.glob("drc-*.json"))
        assert len(files) == 1

        unique = len({DrcCache.key(clip) for clip in clips})
        clear_shared_caches()  # simulate a fresh process
        assert load_shared_caches(tmp_path) == unique
        engine = deck.engine()
        legal = engine.check_batch(clips)
        assert list(legal) == reference
        # Every verdict came from disk, none were recomputed.
        assert engine.cache.hits == unique
        assert engine.cache.misses == 0
        clear_shared_caches()

    def test_stale_file_for_changed_deck_is_ignored(self, deck, clips, tmp_path):
        # Persist the advanced deck's store, then rewrite the file
        # claiming a different fingerprint: a cache whose recorded deck
        # no longer matches its filename must not poison anything.
        clear_shared_caches()
        self._warm(deck, clips)
        save_shared_caches(tmp_path)
        path = next(tmp_path.glob("drc-*.json"))
        payload = json.loads(path.read_text())
        payload["fingerprint"][1] = "tampered-rules"
        path.write_text(json.dumps(payload))

        clear_shared_caches()
        assert load_shared_caches(tmp_path) == 0
        clear_shared_caches()

    def test_corrupt_and_wrong_format_files_are_skipped(self, tmp_path):
        clear_shared_caches()
        (tmp_path / "drc-deadbeefdeadbeef.json").write_text("{not json")
        (tmp_path / "drc-cafecafecafecafe.json").write_text(
            json.dumps({"format": 99, "fingerprint": ["x", "y"], "entries": {}})
        )
        assert load_shared_caches(tmp_path) == 0

    def test_missing_directory_loads_nothing(self, tmp_path):
        assert load_shared_caches(tmp_path / "absent") == 0

    def test_decks_persist_independently(self, deck, clips, tmp_path):
        clear_shared_caches()
        self._warm(deck, clips)
        other = basic_deck(GRID)
        self._warm(other, clips)
        assert save_shared_caches(tmp_path) == 2
        unique = len({DrcCache.key(clip) for clip in clips})
        clear_shared_caches()
        assert load_shared_caches(tmp_path) == 2 * unique
        # The warm store means zero misses for both decks.
        for warmed in (deck, other):
            engine = warmed.engine()
            engine.check_batch(clips)
            assert engine.cache.misses == 0
        clear_shared_caches()

    def test_in_process_entries_win_over_disk(self, deck, clips, tmp_path):
        clear_shared_caches()
        self._warm(deck, clips)
        save_shared_caches(tmp_path)
        # Tamper the on-disk verdicts; live entries must shadow them.
        path = next(tmp_path.glob("drc-*.json"))
        payload = json.loads(path.read_text())
        flipped = {k: (not v) for k, v in payload["entries"].items()}
        payload["entries"] = flipped
        path.write_text(json.dumps(payload))
        assert load_shared_caches(tmp_path) == 0  # nothing new to add
        legal = deck.engine().check_batch(clips)
        clear_shared_caches()
        fresh = deck.engine().check_batch(clips)
        assert list(legal) == list(fresh)
        clear_shared_caches()
