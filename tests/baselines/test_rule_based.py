"""Unit tests for the rule-based track generator."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    TrackGeneratorConfig,
    TrackPatternGenerator,
    generate_library,
    pretrain_node_config,
    starter_set,
)
from repro.drc import advanced_deck, basic_deck
from repro.geometry import Grid, density
from repro.zoo import experiment_deck


@pytest.fixture
def deck():
    return advanced_deck(Grid(nm_per_px=16.0, width_px=32, height_px=32))


class TestGeneratorContract:
    def test_all_output_is_clean(self, deck):
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        engine = deck.engine()
        clips = generator.sample_many(20, np.random.default_rng(0))
        assert all(engine.is_clean(c) for c in clips)

    def test_deterministic_given_seed(self, deck):
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        a = generator.sample_many(5, np.random.default_rng(42))
        b = generator.sample_many(5, np.random.default_rng(42))
        for clip_a, clip_b in zip(a, b):
            np.testing.assert_array_equal(clip_a, clip_b)

    def test_output_shape_matches_grid(self, deck):
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        clip = generator.sample(np.random.default_rng(0))
        assert clip.shape == (32, 32)
        assert clip.dtype == np.uint8

    def test_output_is_nonempty_with_reasonable_density(self, deck):
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        clips = generator.sample_many(20, np.random.default_rng(1))
        densities = [density(c) for c in clips]
        assert min(densities) > 0.05
        assert max(densities) < 0.8

    def test_variation_across_samples(self, deck):
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        clips = generator.sample_many(10, np.random.default_rng(2))
        distinct = {c.tobytes() for c in clips}
        assert len(distinct) >= 8

    def test_narrow_grid_rejected(self):
        tiny = advanced_deck(Grid(nm_per_px=16.0, width_px=8, height_px=32))
        with pytest.raises(ValueError, match="too small"):
            TrackPatternGenerator(TrackGeneratorConfig(deck=tiny))


class TestConvenienceEntryPoints:
    def test_generate_library_count(self, deck):
        clips = generate_library(deck, 7, np.random.default_rng(0))
        assert len(clips) == 7

    def test_starter_set_default(self):
        starters = starter_set(n=5, seed=1)
        assert len(starters) == 5
        assert starters[0].shape == (64, 64)

    def test_starter_set_reproducible(self):
        a = starter_set(n=3, seed=9)
        b = starter_set(n=3, seed=9)
        for clip_a, clip_b in zip(a, b):
            np.testing.assert_array_equal(clip_a, clip_b)

    def test_pretrain_node_differs_from_target(self):
        node = pretrain_node_config()
        target = advanced_deck()
        assert node.track_pitch_px != target.track_pitch_px
        assert set(node.allowed_widths_px) != set(target.allowed_widths_px)


class TestConnectors:
    def test_connectors_appear_with_high_probability_setting(self, deck):
        from dataclasses import replace

        config = TrackGeneratorConfig(deck=deck, p_connector=1.0, max_connectors=3)
        generator = TrackPatternGenerator(config)
        clips = generator.sample_many(20, np.random.default_rng(3))
        # A connector merges two tracks: some clip must contain a horizontal
        # run wider than the track pitch.
        from repro.drc import run_table

        has_wide = any(
            (run_table(c, "h").lengths >= deck.track_pitch_px).any() for c in clips
        )
        assert has_wide

    def test_no_connectors_when_disabled(self, deck):
        config = TrackGeneratorConfig(deck=deck, p_connector=0.0)
        generator = TrackPatternGenerator(config)
        clips = generator.sample_many(10, np.random.default_rng(3))
        from repro.drc import run_table

        assert all(
            (run_table(c, "h").lengths < deck.track_pitch_px).all() for c in clips
        )


# ----------------------------------------------------------------------
# Output bits
# ----------------------------------------------------------------------
_GOLDEN_DECKS = {
    "experiment": experiment_deck,
    "advanced-64": advanced_deck,
    "basic": basic_deck,
    "pretrain-node": pretrain_node_config,
}
_GOLDEN_CONFIGS = {"default": {}, "straps": {"p_connector": 1.0, "max_connectors": 3}}
# sha256 prefixes over 6 seeds x 5 clips, each seed followed by the next
# ``rng.random()`` draw, recorded with the per-row numpy scans that the
# run-length scans replaced.
_GOLDEN_DIGESTS = {
    ("experiment", "default"): "e26f0a580c126ee4",
    ("experiment", "straps"): "ea1491062957610d",
    ("advanced-64", "default"): "212798ec8cb93878",
    ("advanced-64", "straps"): "4db248b2aff3ac6c",
    ("basic", "default"): "42102ee6e1030eab",
    ("basic", "straps"): "2de5f4cb07bd1157",
    ("pretrain-node", "default"): "06119f1d085ba8e8",
    ("pretrain-node", "straps"): "e801243deb6c837e",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("deck_name,config_name", sorted(_GOLDEN_DIGESTS))
    def test_clips_and_rng_state_are_pinned(self, deck_name, config_name):
        config = TrackGeneratorConfig(
            deck=_GOLDEN_DECKS[deck_name](), **_GOLDEN_CONFIGS[config_name]
        )
        generator = TrackPatternGenerator(config)
        digest = hashlib.sha256()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for clip in generator.sample_many(5, rng):
                digest.update(clip.tobytes())
            digest.update(np.float64(rng.random()).tobytes())
        assert digest.hexdigest()[:16] == _GOLDEN_DIGESTS[deck_name, config_name]


# ----------------------------------------------------------------------
# Run-length scans == the per-row predicates they replaced
# ----------------------------------------------------------------------
class _PerRowScans:
    """The per-row candidate scans of the earlier generator, kept verbatim
    (only the ``rng.choice`` draw after each scan is left out)."""

    def __init__(self, deck):
        self.deck = deck

    def gap_candidates(self, mask, prev_blocked, gap_len, min_seg):
        height = mask.size
        candidates = []
        for y0 in range(0, height - gap_len + 1):
            y1 = y0 + gap_len
            guard0 = max(0, y0 - 1)
            guard1 = min(height, y1 + 1)
            if prev_blocked[guard0:guard1].any():
                continue
            if not mask[y0:y1].all():
                continue
            if not self._segments_stay_legal(mask, y0, y1, min_seg):
                continue
            candidates.append(y0)
        return candidates

    def _segments_stay_legal(
        self, mask: np.ndarray, y0: int, y1: int, min_seg: int
    ) -> bool:
        """Would carving rows [y0, y1) leave all remaining segments legal?"""
        trial = mask.copy()
        trial[y0:y1] = False
        padded = np.concatenate(([False], trial, [False]))
        changes = np.flatnonzero(padded[1:] != padded[:-1])
        seg_lengths = changes[1::2] - changes[0::2]
        if seg_lengths.size == 0:
            return False  # never empty a populated track via gaps
        if (seg_lengths < min_seg).any():
            return False
        gap_changes = np.flatnonzero(padded[1:] != padded[:-1])
        starts, stops = gap_changes[0::2], gap_changes[1::2]
        inner_gaps = starts[1:] - stops[:-1]
        deck = self.deck
        if inner_gaps.size and (inner_gaps < deck.e2e_px).any():
            return False
        max_area = deck.area_window_px2[1]
        if (seg_lengths * deck.max_width_px > max_area).any():
            return False
        return True

    def strap_candidates(self, both, thickness, used):
        deck = self.deck
        height = both.size
        candidates = []
        for y0 in range(0, height - thickness + 1):
            y1 = y0 + thickness
            if not both[y0:y1].all():
                continue
            margin_ok = all(
                y1 + deck.e2e_px <= u0 or u1 + deck.e2e_px <= y0
                for u0, u1 in used
            )
            if margin_ok:
                candidates.append(y0)
        return candidates


@st.composite
def _rows(draw, height):
    """A boolean row vector: independent bits, or alternating runs."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.booleans(), min_size=height, max_size=height)))
    value, rows = draw(st.booleans()), []
    while len(rows) < height:
        rows += [value] * draw(st.integers(1, 24))
        value = not value
    return np.array(rows[:height])


@st.composite
def _scan_decks(draw):
    """A generator deck at height 32 or 64; a small max area makes the
    max-area check bind and a varied E2E moves the inner-gap check."""
    height = draw(st.sampled_from([32, 64]))
    deck = advanced_deck(Grid(nm_per_px=16.0, width_px=32, height_px=height))
    max_area = draw(st.sampled_from([deck.area_window_px2[1], 30, 60, 120]))
    return replace(
        deck,
        e2e_px=draw(st.integers(1, 8)),
        area_window_px2=(deck.area_window_px2[0], max_area),
    )


class TestRunLengthScans:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_gap_candidates_match_per_row_scan(self, data):
        deck = data.draw(_scan_decks())
        height = deck.grid.height_px
        mask = data.draw(_rows(height))
        prev_blocked = data.draw(
            st.one_of(st.just(np.zeros(height, dtype=bool)), _rows(height))
        )
        gap_len = data.draw(st.integers(1, height))
        min_seg = data.draw(st.integers(1, 12))
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        assert generator._gap_candidates(
            mask, prev_blocked, gap_len, min_seg
        ) == _PerRowScans(deck).gap_candidates(mask, prev_blocked, gap_len, min_seg)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_strap_candidates_match_per_row_scan(self, data):
        deck = data.draw(_scan_decks())
        height = deck.grid.height_px
        both = data.draw(_rows(height))
        thickness = data.draw(st.integers(1, 8))
        used = [
            (u0, u0 + length)
            for u0, length in data.draw(
                st.lists(
                    st.tuples(st.integers(0, height - 1), st.integers(1, 8)),
                    max_size=3,
                )
            )
        ]
        generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
        assert generator._strap_candidates(
            both, thickness, used
        ) == _PerRowScans(deck).strap_candidates(both, thickness, used)
