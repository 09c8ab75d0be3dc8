"""Uniqueness and spread statistics for pattern libraries.

:func:`summarize_library` computes a :class:`LibrarySummary` (counts,
uniqueness, H1/H2 entropies and mean density) in one pass over a clip
collection: each clip is squished once for both entropy histograms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..geometry.hashing import pattern_hash, squish_of
from ..geometry.raster import density

__all__ = [
    "unique_count",
    "unique_clips",
    "LibrarySummary",
    "summarize_library",
]


def unique_count(clips: Iterable[np.ndarray]) -> int:
    """Number of bit-exact distinct patterns."""
    return len({pattern_hash(clip) for clip in clips})


def unique_clips(clips: Iterable[np.ndarray]) -> list[np.ndarray]:
    """First occurrence of each distinct pattern, order preserved."""
    seen: set[str] = set()
    out: list[np.ndarray] = []
    for clip in clips:
        digest = pattern_hash(clip)
        if digest not in seen:
            seen.add(digest)
            out.append(clip)
    return out


@dataclass(frozen=True)
class LibrarySummary:
    """Headline statistics of a pattern library."""

    count: int
    unique: int
    h1: float
    h2: float
    mean_density: float

    def row(self) -> tuple:
        return (self.count, self.unique, self.h1, self.h2, self.mean_density)


def summarize_library(
    clips: Sequence[np.ndarray], *, unique: int | None = None
) -> LibrarySummary:
    """Compute counts, uniqueness, H1/H2 and density for a clip set.

    One pass: each clip is squished once, feeding both the H1 complexity
    and the H2 geometry class histograms, and its density is recorded.
    Pass ``unique`` when the caller already knows it (a deduplicated
    store's ``unique`` equals its length) to skip re-hashing every clip.
    """
    from .entropy import entropy_from_counts  # avoid import cycle

    clips = list(clips)
    if not clips:
        return LibrarySummary(0, 0, 0.0, 0.0, 0.0)
    h1: Counter = Counter()
    h2: Counter = Counter()
    densities: list[float] = []
    for clip in clips:
        pattern = squish_of(clip)
        h1[pattern.complexity] += 1
        h2[pattern.geometry_signature()] += 1
        densities.append(density(clip))
    return LibrarySummary(
        count=len(clips),
        unique=unique_count(clips) if unique is None else unique,
        h1=entropy_from_counts(h1.values()),
        h2=entropy_from_counts(h2.values()),
        mean_density=float(np.mean(densities)),
    )
