"""Shard-count determinism: sharded admission == single store, bit for bit.

Library contents and insertion order must be a function of the seed
alone — never of the store's shard count.
"""

import numpy as np
import pytest

from repro.baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from repro.core import PatternPaint, PatternPaintConfig
from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
from repro.drc import advanced_deck
from repro.engine import (
    BatchExecutor,
    GenerationRequest,
    run_generation,
)
from repro.geometry import Grid
from repro.library import InMemoryStore, ShardedStore
from repro.nn import TimeUnet, UNetConfig

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


def assert_same_library(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


class TestAdmitBatchDeterminism:
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_sharded_matches_serial(self, deck, candidates, num_shards):
        executor = BatchExecutor(deck.engine())
        serial_store = InMemoryStore()
        serial_flags = executor.admit_batch(serial_store, candidates)
        sharded_store = ShardedStore(num_shards=num_shards)
        sharded_flags = executor.admit_batch(sharded_store, candidates)
        assert serial_flags == sharded_flags
        assert_same_library(serial_store, sharded_store)

    def test_flags_align_with_candidates(self, deck, candidates):
        store = ShardedStore(num_shards=4)
        flags = BatchExecutor(deck.engine()).admit_batch(store, candidates)
        assert len(flags) == len(candidates)
        # A candidate is admitted iff it is the first occurrence.
        seen = []
        for flag, clip in zip(flags, candidates):
            first = not any(np.array_equal(clip, s) for s in seen)
            assert flag == first
            seen.append(clip)


class TestRunGenerationDeterminism:
    def test_shards_do_not_change_the_library(self, deck):
        def run(store):
            return run_generation(
                GenerationRequest(backend="rule", count=12, seed=5, deck=deck),
                library=store,
            )

        serial = run(InMemoryStore())
        sharded = run(ShardedStore(num_shards=4))
        assert serial.admitted == sharded.admitted
        assert_same_library(serial.library, sharded.library)


class TestPipelineShardDeterminism:
    """Acceptance: a ShardedStore run == a single-store run, bit-identical."""

    @pytest.fixture(scope="class")
    def parts(self, deck):
        cfg = UNetConfig(
            image_size=32, base_channels=8, channel_mults=(1,), num_res_blocks=1,
            groups=4, time_dim=8, attention=False, seed=2,
        )
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        starters = generator.sample_many(2, np.random.default_rng(8))
        return cfg, starters

    def _run(self, deck, parts, *, shards):
        cfg, starters = parts
        pipeline = PatternPaint(
            Ddpm(TimeUnet(cfg), linear_schedule(20)),
            deck,
            PatternPaintConfig(
                inpaint=InpaintConfig(num_steps=3),
                variations_per_mask=1,
                samples_per_iteration=4,
                select_k=2,
                library_shards=shards,
            ),
        )
        return pipeline.run(starters, np.random.default_rng(6), iterations=1)

    def test_sharded_run_matches_serial_run(self, deck, parts):
        serial = self._run(deck, parts, shards=1)
        sharded = self._run(deck, parts, shards=4)
        assert sharded.library.num_shards == 4
        assert_same_library(serial.library, sharded.library)
        assert [s.admitted for s in serial.stats] == [
            s.admitted for s in sharded.stats
        ]
        assert [s.h2 for s in serial.stats] == pytest.approx(
            [s.h2 for s in sharded.stats]
        )
