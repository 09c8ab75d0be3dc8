"""The library store: deduplicated clip storage in insertion order.

The iterative loop (Section V-A) admits only *clean and new* clips, which
puts the dedup library on the hot path of every generation round.
:class:`InMemoryStore` is the one store every consumer (executor,
pipeline, experiments, sessions, CLI) programs against; ``LibraryStore``
is its alias for annotations.  Merging libraries is admission in source
order (:func:`~repro.library.merge_libraries`), so a merge admits the
same contents, in the same order, as one ``admit_many`` over the
concatenated sources.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..geometry.hashing import pattern_hash, pattern_hashes, raster_stack_hashes
from ..geometry.raster import validate_clip
from ..metrics.diversity import LibrarySummary, summarize_library

__all__ = ["InMemoryStore", "LibraryStore"]


def _hash_batch(
    clips: list[np.ndarray],
) -> "tuple[list[str], np.ndarray | None]":
    """Digests of ``clips`` plus, when they stack, their binary uint8 stack.

    Uniform-shape integer/bool batches are stacked once and hashed in one
    vectorised pass; the stack is normalised to binary uint8 so stored
    rows equal their hash identity (``!= 0``, as ``as_binary``).  Mixed
    shapes or float rasters hash clip by clip and return no stack.
    """
    try:
        stack = np.asarray(clips)
    except ValueError:  # mixed shapes
        stack = None
    if stack is None or stack.ndim != 3 or stack.dtype.kind not in "bui":
        return pattern_hashes([np.asarray(clip) for clip in clips]), None
    hashes = raster_stack_hashes(stack)
    if stack.dtype == np.bool_:
        stack = stack.view(np.uint8)
    elif stack.dtype != np.uint8 or stack.max() > 1:
        stack = (stack != 0).view(np.uint8)
    return hashes, stack


class InMemoryStore:
    """Append-only, hash-deduplicated clip store: one hash set, one list.

    Iteration and ``clips`` follow insertion order, which experiments
    replay as growth curves.  The generation counter is simply the store
    length (stores are append-only), which keys the ``clips`` tuple and
    ``summary()`` caches: repeated calls without admissions are free.
    """

    def __init__(self, clips: Iterable[np.ndarray] = (), *, name: str = "library"):
        self.name = name
        self._clips: list[np.ndarray] = []
        self._hashes: set[str] = set()
        self._hash_list: list[str] = []
        self._clips_cache: tuple[int, tuple[np.ndarray, ...]] | None = None
        self._summary_cache: tuple[int, LibrarySummary] | None = None
        self.admit_many(clips)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def admit(self, clip: np.ndarray) -> bool:
        """Admit one clip; True when it was new (kept)."""
        digest = pattern_hash(clip)
        if digest in self._hashes:
            return False
        self._hashes.add(digest)
        self._hash_list.append(digest)
        self._clips.append(validate_clip(clip))
        return True

    def admit_many(self, clips: Iterable[np.ndarray]) -> list[bool]:
        """Admit clips in order; per-clip admitted flags.

        A stackable batch is hashed in one vectorised pass and its
        admitted rows are taken in one copy sharing one compact buffer;
        anything else goes through :func:`validate_clip` clip by clip.
        Either way stored arrays are private binary uint8 copies,
        detached from anything the caller may later mutate.
        """
        clips = list(clips)
        if not clips:
            return []
        hashes, stack = _hash_batch(clips)
        seen, hash_list = self._hashes, self._hash_list
        flags: list[bool] = []
        admitted: list[int] = []
        for i, digest in enumerate(hashes):
            if digest in seen:
                flags.append(False)
                continue
            seen.add(digest)
            hash_list.append(digest)
            admitted.append(i)
            flags.append(True)
        if admitted:
            if stack is not None:
                self._clips.extend(stack[np.asarray(admitted, dtype=np.intp)])
            else:
                self._clips.extend(validate_clip(clips[i]) for i in admitted)
        return flags

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """(digest, clip) pairs in insertion order, without re-hashing."""
        return zip(self._hash_list, self._clips)

    @property
    def clips(self) -> tuple[np.ndarray, ...]:
        """Stored clips in insertion order (immutable view)."""
        generation = len(self._clips)
        if self._clips_cache is None or self._clips_cache[0] != generation:
            self._clips_cache = (generation, tuple(self._clips))
        return self._clips_cache[1]

    def __len__(self) -> int:
        return len(self._clips)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._clips)

    def __contains__(self, clip: np.ndarray) -> bool:
        return pattern_hash(clip) in self._hashes

    def summary(self) -> LibrarySummary:
        """Headline statistics, cached per store generation."""
        generation = len(self._clips)
        if self._summary_cache is None or self._summary_cache[0] != generation:
            # Stores are dedup-by-construction: unique == count, no re-hash.
            self._summary_cache = (
                generation,
                summarize_library(self._clips, unique=generation),
            )
        return self._summary_cache[1]


#: The store type consumers annotate against (one implementation).
LibraryStore = InMemoryStore
