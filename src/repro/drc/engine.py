"""The DRC engine: run a rule deck against clips.

This is the reproduction's stand-in for the industry sign-off checker the
paper uses on Intel 18A.  It is exact (no sampling) at pixel resolution and
deterministic; legality in all experiments means
:meth:`DrcEngine.is_clean` under the experiment's deck.

Batch entry points (:meth:`DrcEngine.check_batch`, :meth:`legal_mask`,
:meth:`legality_rate`) are memoised through a content-hash
:class:`~repro.drc.cache.DrcCache`: legality is a pure function of the
pixels and the deck, so repeated checks of identical clips — common in the
iterative generation loop and across experiment harnesses — cost one hash
instead of a full rule sweep.  Uncached clips are swept serially on the
calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cache import DrcCache
from .measure import ClipMeasurements
from .rules import Rule
from .violations import DrcReport, Violation

__all__ = ["DrcEngine"]


@dataclass(frozen=True)
class DrcEngine:
    """Checks clips against an ordered list of rules.

    Parameters
    ----------
    name:
        Deck identifier used in reports.
    rules:
        The rules to evaluate.  Order only affects report ordering.
    """

    name: str
    rules: tuple[Rule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise ValueError("a DRC engine needs at least one rule")

    def check(self, clip: np.ndarray) -> DrcReport:
        """Full check: every rule, every violation."""
        measurements = ClipMeasurements(clip)
        violations: list[Violation] = []
        for rule in self.rules:
            violations.extend(rule.check(measurements))
        return DrcReport(deck_name=self.name, violations=violations)

    def is_clean(self, clip: np.ndarray) -> bool:
        """Fast legality predicate: short-circuits on the first violation."""
        measurements = ClipMeasurements(clip)
        return all(not rule.check(measurements) for rule in self.rules)

    def first_violation(self, clip: np.ndarray) -> Violation | None:
        """The first violation found, or ``None`` for a clean clip."""
        measurements = ClipMeasurements(clip)
        for rule in self.rules:
            found = rule.check(measurements)
            if found:
                return found[0]
        return None

    # ------------------------------------------------------------------
    # Batch interface (cached)
    # ------------------------------------------------------------------
    @property
    def cache(self) -> DrcCache:
        """The engine's content-hash legality memo (lazily created).

        Backed by a process-wide store keyed on the deck fingerprint, so
        independently built engines over the same deck share results.
        """
        cached = self.__dict__.get("_cache")
        if cached is None:
            cached = DrcCache.for_engine(self)
            object.__setattr__(self, "_cache", cached)
        return cached

    def check_batch(
        self,
        clips: Sequence[np.ndarray] | np.ndarray,
        *,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Boolean legality per clip, memoised.

        Duplicate clips within the batch are checked once; previously seen
        clips (same deck, any engine instance) are cache hits.
        ``use_cache=False`` sweeps every clip, bypassing the cache.
        """
        clips = list(clips)
        if not clips:
            return np.zeros(0, dtype=bool)
        if not use_cache:
            verdicts = self._sweep(clips)
            return np.array(verdicts, dtype=bool)

        cache = self.cache
        keys = [cache.key(clip) for clip in clips]
        results: dict[str, bool] = {}
        todo_keys: list[str] = []
        todo_clips: list[np.ndarray] = []
        for key, clip in zip(keys, clips):
            if key in results:
                continue
            cached = cache.get(key)
            if cached is None:
                results[key] = False  # placeholder; overwritten below
                todo_keys.append(key)
                todo_clips.append(clip)
            else:
                results[key] = cached
        if todo_clips:
            verdicts = self._sweep(todo_clips)
            for key, verdict in zip(todo_keys, verdicts):
                results[key] = verdict
                cache.put(key, verdict)
        return np.array([results[key] for key in keys], dtype=bool)

    def _sweep(self, clips: list[np.ndarray]) -> list[bool]:
        """Run the full rule loop over clips, serially."""
        return [self.is_clean(clip) for clip in clips]

    def legal_mask(
        self,
        clips: Sequence[np.ndarray] | np.ndarray,
        *,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Boolean legality per clip for a batch (stacked array or list)."""
        return self.check_batch(clips, use_cache=use_cache)

    def filter_clean(
        self, clips: Iterable[np.ndarray]
    ) -> list[np.ndarray]:
        """The subset of clips that pass the deck, order preserved."""
        clips = list(clips)
        mask = self.check_batch(clips)
        return [clip for clip, ok in zip(clips, mask) if ok]

    def legality_rate(self, clips: Sequence[np.ndarray]) -> float:
        """Fraction of clips that are DR-clean (0.0 for an empty batch)."""
        clips = list(clips)
        if not clips:
            return 0.0
        return float(self.legal_mask(clips).mean())
