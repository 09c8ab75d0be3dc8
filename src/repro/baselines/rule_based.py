"""Rule-based track pattern generator (the commercial-tool stand-in).

The paper sources its 20 starter patterns and the baselines' 1000-clip
training set from a commercial rule-based layout generator.  This module
plays that role: a VIPER-style generator that synthesises vertical-track
metal clips which are design-rule clean *by construction* for a given
:class:`~repro.drc.decks.RuleDeck`, then verifies each clip with the DRC
engine (rejection sampling with bounded retries) so the output contract is
unconditional legality.

Generation model (matching the paper's Figure 8 imagery):

1. vertical routing tracks on the deck's pitch, each assigned a legal width
   (respecting width-pair spacing windows against the previous track, e.g.
   no adjacent 5/5 pair under the advanced deck);
2. each track carries one or more wire *segments* separated by end-to-end
   gaps; gap rows never coincide with the neighbouring track's gap rows so
   no row ever sees two consecutive empty tracks (which would exceed the
   maximum spacing window);
3. optional inter-track *connector straps* that merge neighbouring wires,
   placed fully inside both flanking segments and vertically separated from
   other straps in the same routing channel.

A second parameterization (:func:`pretrain_node_config`) describes a
*different* proxy technology node (pitch 10, widths {2, 4, 6}) used to build
the foundation-model pretraining corpus — the domain gap that few-shot
finetuning must close (see DESIGN.md).

Gap and strap rows are drawn with ``rng.choice`` from candidate lists found
by plain-int passes over a track's run-length segments: one numpy pass finds
the runs of a mask, then a gap candidate checks only the two pieces it leaves
and the gaps beside them.  A scan thus costs O(H) int steps per gap or strap
for an H-row clip, where a per-row mask copy and run scan would cost O(H²).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..drc.decks import RuleDeck, advanced_deck
from ..geometry.grid import Grid

__all__ = [
    "TrackGeneratorConfig",
    "TrackPatternGenerator",
    "generate_library",
    "starter_set",
    "pretrain_node_config",
]


@dataclass(frozen=True)
class TrackGeneratorConfig:
    """Knobs of the rule-based generator.

    All probabilities are per-decision; geometry limits derive from the
    deck.  ``verify`` keeps the unconditional-legality contract; disable it
    only in tests that deliberately inspect raw construction output.
    """

    deck: RuleDeck
    p_empty_track: float = 0.10
    p_gap_per_track: float = 0.65
    max_gaps_per_track: int = 2
    p_connector: float = 0.55
    max_connectors: int = 3
    max_retries: int = 40
    verify: bool = True


class TrackPatternGenerator:
    """Generates DR-clean vertical-track clips for a rule deck."""

    def __init__(self, config: TrackGeneratorConfig):
        self.config = config
        self.deck = config.deck
        self._engine = config.deck.engine()
        grid = config.deck.grid
        self._height = grid.height_px
        self._width = grid.width_px
        pitch = config.deck.track_pitch_px
        # Track centres: first at half a pitch from the left edge.
        first = pitch // 2
        self._centers = list(range(first, self._width - 1, pitch))
        if len(self._centers) < 2:
            raise ValueError(
                f"clip width {self._width}px too small for pitch {pitch}px"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One DR-clean clip.  Raises ``RuntimeError`` if retries exhaust."""
        for _ in range(self.config.max_retries):
            clip = self._construct(rng)
            if not self.config.verify or self._engine.is_clean(clip):
                if self.config.verify:
                    # Memoise only the accepted clip (rejected retries would
                    # pollute the shared FIFO store): the downstream engine
                    # re-check of this clip becomes a cache hit.
                    cache = self._engine.cache
                    cache.put(cache.key(clip), True)
                return clip
        raise RuntimeError(
            "rule-based generator failed to produce a clean clip within "
            f"{self.config.max_retries} retries (deck={self.deck.name})"
        )

    def sample_many(self, n: int, rng: np.random.Generator) -> list[np.ndarray]:
        """``n`` independent DR-clean clips."""
        return [self.sample(rng) for _ in range(n)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _construct(self, rng: np.random.Generator) -> np.ndarray:
        clip = np.zeros((self._height, self._width), dtype=np.uint8)

        widths = self._assign_widths(rng)
        masks = self._assign_segments(widths, rng)

        spans: list[tuple[int, int] | None] = []
        for center, width in zip(self._centers, widths):
            if width is None:
                spans.append(None)
                continue
            x0 = center - width // 2
            spans.append((x0, x0 + width))

        for span, mask in zip(spans, masks):
            if span is None:
                continue
            x0, x1 = span
            clip[mask, x0:x1] = 1

        self._add_connectors(clip, spans, masks, rng)
        return clip

    def _assign_widths(self, rng: np.random.Generator) -> list[int | None]:
        """Pick a width (or ``None`` = empty) per track, legal pairwise.

        Interior empty tracks are only allowed when both neighbours will be
        fully populated, which :meth:`_assign_segments` enforces; here we
        just avoid *adjacent* empty tracks and illegal width pairs.
        """
        deck = self.deck
        widths: list[int | None] = []
        for k in range(len(self._centers)):
            prev = widths[-1] if widths else None
            can_be_empty = prev is not None or k == 0
            if can_be_empty and rng.random() < self.config.p_empty_track:
                widths.append(None)
                continue
            choices = [
                w
                for w in deck.allowed_widths_px
                if self._pair_legal(prev, w)
            ]
            if not choices:
                choices = [deck.min_width_px]
            widths.append(int(rng.choice(choices)))
        if all(w is None for w in widths):
            # Degenerate all-empty assignment: force one populated track.
            widths[len(widths) // 2] = deck.min_width_px
        return widths

    def _pair_legal(self, w_left: int | None, w_right: int) -> bool:
        """Is placing ``w_right`` next to ``w_left`` on adjacent tracks legal?"""
        if w_left is None:
            return True
        deck = self.deck
        gap = deck.track_pitch_px - (w_left - w_left // 2) - w_right // 2
        window = deck.wdep_windows_px.get(
            (w_left, w_right), deck.spacing_window_px
        )
        return window[0] <= gap <= window[1]

    def _assign_segments(
        self, widths: list[int | None], rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Per-track boolean row masks with non-overlapping gap rows.

        A gap (including a one-row guard band on each side) must not overlap
        the previous track's blocked rows, so no clip row ever sees two
        consecutive track-widths of empty space between populated tracks.
        """
        deck = self.deck
        height = self._height
        min_seg = max(deck.min_seg_px, -(-deck.area_window_px2[0] // deck.min_width_px))
        masks: list[np.ndarray] = []
        prev_blocked = np.zeros(height, dtype=bool)  # rows empty on prev track
        for k, width in enumerate(widths):
            if width is None:
                masks.append(np.zeros(height, dtype=bool))
                prev_blocked = np.ones(height, dtype=bool)
                continue
            mask = np.ones(height, dtype=bool)
            next_empty = k + 1 < len(widths) and widths[k + 1] is None
            if prev_blocked.all() or next_empty:
                # A neighbouring track is empty: this one must be gap-free,
                # or some row would span two empty track-widths.
                n_gaps = 0
            elif rng.random() < self.config.p_gap_per_track:
                n_gaps = int(rng.integers(1, self.config.max_gaps_per_track + 1))
            else:
                n_gaps = 0
            for _ in range(n_gaps):
                gap_len = int(rng.integers(deck.e2e_px, deck.e2e_px + 4))
                rows = self._gap_candidates(mask, prev_blocked, gap_len, min_seg)
                if not rows:
                    break
                y0 = int(rng.choice(rows))
                mask[y0 : y0 + gap_len] = False
            masks.append(mask)
            prev_blocked = ~mask
        return masks

    def _gap_candidates(
        self, mask: np.ndarray, prev_blocked: np.ndarray, gap_len: int, min_seg: int
    ) -> list[int]:
        """Ascending rows ``y0`` where carving ``[y0, y0 + gap_len)`` keeps
        the track legal: the gap lies inside one segment, its one-row guard
        band clears ``prev_blocked``, every remaining segment spans
        ``min_seg`` rows to the max-area length and every inner gap spans
        the E2E spacing."""
        deck, height = self.deck, mask.size
        e2e, max_seg = deck.e2e_px, deck.area_window_px2[1] // deck.max_width_px
        segs = _runs(mask)
        bad = {j for j, (s, e) in enumerate(segs) if not min_seg <= e - s <= max_seg}
        short = {j for j in range(len(segs) - 1) if segs[j + 1][0] - segs[j][1] < e2e}
        # Row spans a gap may cover with its guard band clear of prev_blocked.
        free = [(f0 + (f0 > 0), f1 - (f1 < height)) for f0, f1 in _runs(~prev_blocked)]
        candidates = []
        for i, (s, e) in enumerate(segs):
            if not bad <= {i} or not short <= {i - 1, i}:
                continue  # a segment or gap the carve leaves alone is illegal
            left = segs[i - 1][1] if i else -np.inf
            right = segs[i + 1][0] if i + 1 < len(segs) else np.inf
            for f0, f1 in free:
                for y0 in range(max(s, f0), min(e, f1) - gap_len + 1):
                    y1 = y0 + gap_len
                    a, b = y0 - s, e - y1  # segment rows kept before / after
                    if a and not (min_seg <= a <= max_seg and s - left >= e2e):
                        continue
                    if b and not (min_seg <= b <= max_seg and right - e >= e2e):
                        continue
                    # The carved gap merges with a neighbour gap where a or b is 0.
                    if (y1 if b else right) - (y0 if a else left) < e2e:
                        continue
                    if a or b or len(segs) > 1:  # never empty a populated track
                        candidates.append(y0)
        return candidates

    def _add_connectors(
        self,
        clip: np.ndarray,
        spans: list[tuple[int, int] | None],
        masks: list[np.ndarray],
        rng: np.random.Generator,
    ) -> None:
        """Drop inter-track straps fully inside both flanking segments."""
        deck = self.deck
        if rng.random() >= self.config.p_connector:
            return
        n_connectors = int(rng.integers(1, self.config.max_connectors + 1))
        channel_used: dict[int, list[tuple[int, int]]] = {}
        pairs = [
            k
            for k in range(len(spans) - 1)
            if spans[k] is not None and spans[k + 1] is not None
        ]
        if not pairs:
            return
        for _ in range(n_connectors):
            k = int(rng.choice(pairs))
            thickness = int(rng.integers(deck.min_seg_px, deck.min_seg_px + 3))
            both = masks[k] & masks[k + 1]
            rows = self._strap_candidates(both, thickness, channel_used.get(k, []))
            if not rows:
                continue
            y0 = int(rng.choice(rows))
            x0 = spans[k][0]
            x1 = spans[k + 1][1]
            clip[y0 : y0 + thickness, x0:x1] = 1
            channel_used.setdefault(k, []).append((y0, y0 + thickness))

    def _strap_candidates(
        self, both: np.ndarray, thickness: int, used: list[tuple[int, int]]
    ) -> list[int]:
        """Ascending rows ``y0`` of ``thickness``-row bands inside ``both``
        segment rows, clear of other straps in the same channel by at least
        the E2E spacing."""
        e2e = self.deck.e2e_px
        return [
            y0
            for s, e in _runs(both)
            for y0 in range(s, e - thickness + 1)
            if all(y0 + thickness + e2e <= u0 or u1 + e2e <= y0 for u0, u1 in used)
        ]


def _runs(rows: np.ndarray) -> list[tuple[int, int]]:
    """The ``[start, stop)`` runs of True rows, ascending, as plain ints."""
    padded = np.concatenate(([False], rows, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[0::2], edges[1::2]))


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------
def generate_library(
    deck: RuleDeck,
    n: int,
    rng: np.random.Generator,
    *,
    config: TrackGeneratorConfig | None = None,
) -> list[np.ndarray]:
    """``n`` DR-clean clips for ``deck`` (the commercial-tool stand-in)."""
    cfg = config or TrackGeneratorConfig(deck=deck)
    if cfg.deck is not deck:
        cfg = replace(cfg, deck=deck)
    return TrackPatternGenerator(cfg).sample_many(n, rng)


def starter_set(
    deck: RuleDeck | None = None, n: int = 20, seed: int = 2024
) -> list[np.ndarray]:
    """The paper's starter-pattern set: ``n`` (default 20) DR-clean clips."""
    deck = deck or advanced_deck()
    rng = np.random.default_rng(seed)
    return generate_library(deck, n, rng)


def pretrain_node_config(grid: Grid | None = None) -> RuleDeck:
    """The *other* proxy node used only for foundation-model pretraining.

    Pitch 10 px, widths {2, 4, 6} — deliberately mismatched with the
    advanced deck's pitch-8/{3, 5} target node so that the pretrained prior
    has a measurable domain gap for few-shot finetuning to close.
    """
    from ..drc.rules import (  # local import to avoid a cycle at module load
        EndToEndRule,
        MaxAreaRule,
        MaxSpacingRule,
        MinAreaRule,
        MinSpacingRule,
        MinWidthRule,
        NonEmptyRule,
    )
    from ..geometry.grid import DEFAULT_GRID

    grid = grid or DEFAULT_GRID
    area_window = (10, 1200)
    rules = (
        NonEmptyRule(),
        MinWidthRule("h", 2),
        MinWidthRule("v", 3),
        MinSpacingRule("h", 3),
        MaxSpacingRule("h", 18),
        EndToEndRule(3),
        MinAreaRule(area_window[0]),
        MaxAreaRule(area_window[1]),
    )
    return RuleDeck(
        name="pretrain-node",
        description="Foundation-model pretraining node (pitch 10, widths 2/4/6)",
        grid=grid,
        track_pitch_px=10,
        allowed_widths_px=(2, 4, 6),
        connector_min_px=10,
        min_seg_px=3,
        e2e_px=3,
        spacing_window_px=(3, 18),
        area_window_px2=area_window,
        rules=rules,
    )
