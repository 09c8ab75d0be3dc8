"""Hash-keyed DRC caching: check_batch, legal_mask and the in-process
shared stores."""

import numpy as np
import pytest

from repro.baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from repro.drc import advanced_deck
from repro.drc.cache import DrcCache, clear_shared_caches
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

