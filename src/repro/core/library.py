"""Back-compat facade over the :mod:`repro.library` subsystem.

The iterative generation loop only admits *clean and new* samples (Section
V-A).  Deduplicated clip storage now lives in :mod:`repro.library`
(:class:`~repro.library.InMemoryStore`, snapshot persistence and merging);
:class:`PatternLibrary` survives as a thin facade so the original
``add``/``add_many`` vocabulary and import path keep working.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..library.store import InMemoryStore

__all__ = ["PatternLibrary"]


class PatternLibrary(InMemoryStore):
    """An append-only, hash-deduplicated collection of layout clips.

    Identical storage semantics to :class:`~repro.library.InMemoryStore`
    (it *is* one); only the historical method names differ.  New code
    should use ``admit``/``admit_many`` directly.
    """

    def add(self, clip: np.ndarray) -> bool:
        """Add one clip; returns True when it was new (kept)."""
        return self.admit(clip)

    def add_many(self, clips: Iterable[np.ndarray]) -> int:
        """Add clips in order; returns how many were new."""
        return sum(self.admit_many(clips))
