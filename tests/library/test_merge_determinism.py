"""Admission determinism: per-candidate flags follow first occurrence.

Library contents and insertion order must be a function of the candidate
stream alone, which is what makes merging libraries (ordered admission)
deterministic.
"""

import numpy as np
import pytest

from repro.baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from repro.drc import advanced_deck
from repro.engine import BatchExecutor
from repro.geometry import Grid
from repro.library import InMemoryStore

GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)


@pytest.fixture(scope="module")
def deck():
    return advanced_deck(GRID)


@pytest.fixture(scope="module")
def candidates(deck):
    """A candidate batch with heavy duplication (the iterative-loop shape)."""
    generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
    unique = generator.sample_many(10, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    clips = [unique[i] for i in rng.integers(0, len(unique), size=40)]
    return clips


class TestAdmitBatchDeterminism:
    def test_flags_align_with_candidates(self, deck, candidates):
        store = InMemoryStore()
        flags = BatchExecutor(deck.engine()).admit_batch(store, candidates)
        assert len(flags) == len(candidates)
        # A candidate is admitted iff it is the first occurrence.
        seen = []
        for flag, clip in zip(flags, candidates):
            first = not any(np.array_equal(clip, s) for s in seen)
            assert flag == first
            seen.append(clip)
