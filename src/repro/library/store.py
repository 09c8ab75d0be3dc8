"""Library stores: deduplicated clip storage behind one protocol.

The iterative loop (Section V-A) admits only *clean and new* clips, which
puts the dedup library on the hot path of every generation round.  This
module defines the :class:`LibraryStore` protocol that every consumer
(executor, pipeline, experiments, CLI) programs against, the
:class:`ShardDelta` unit of the worker merge protocol, and the
single-population :class:`InMemoryStore` reference implementation.
:class:`repro.library.ShardedStore` adds hash-prefix partitioning on the
same protocol.

The merge protocol: a caller hashes and locally dedups a contiguous
slice of a candidate batch (:func:`compute_delta`), or a whole store
(:func:`store_delta`), and the destination store applies the resulting
deltas in batch order (:meth:`LibraryStore.merge`).  Because admission
decisions are made against the store in slice order, merging slice
deltas admits bit-identical contents, in identical insertion order, to
admitting the whole batch at once.  Library merges (the fleet's
reconcile, :func:`~repro.library.merge_libraries`) use it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from ..geometry.hashing import pattern_hash, pattern_hashes, raster_stack_hashes
from ..geometry.raster import validate_clip
from ..metrics.diversity import LibrarySummary, summarize_library

__all__ = [
    "LibraryStore",
    "ShardDelta",
    "InMemoryStore",
    "compute_delta",
    "store_delta",
    "shard_of",
]


def shard_of(digest: str, num_shards: int) -> int:
    """Shard index for a pattern-hash digest (leading 32 bits, modulo)."""
    if num_shards <= 1:
        return 0
    return int(digest[:8], 16) % num_shards


class ShardDelta:
    """A batch of admission candidates with precomputed identities.

    ``offset`` is the position of the first candidate within the original
    batch, so deltas produced by parallel workers can be applied in a
    canonical order.  Candidates live either in ``clips`` (caller-owned
    arrays; the merging store copies on admission) or in ``base`` (a
    private ``(N, H, W)`` uint8 stack built by :meth:`from_clips`, whose
    rows the store may take without copying — one pickle-friendly array
    instead of N; ``clips`` then materialises views lazily).  The merging
    store is the authority on novelty; its hash sets also reject
    duplicates *within* a delta, and ``local_new`` reports the
    worker-local first-occurrence view on demand.
    """

    __slots__ = ("offset", "hashes", "base", "_clips")

    def __init__(
        self,
        offset: int = 0,
        hashes: list[str] | None = None,
        clips: list[np.ndarray] | None = None,
        base: np.ndarray | None = None,
    ):
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.offset = offset
        self.hashes: list[str] = hashes if hashes is not None else []
        self.base = base
        self._clips = clips
        if base is not None:
            if len(base) != len(self.hashes):
                raise ValueError("base rows and hashes must pair up")
        elif clips is None:
            self._clips = []
        if self._clips is not None and len(self.hashes) != len(self._clips):
            raise ValueError("hashes and clips must pair up")

    @property
    def clips(self) -> list[np.ndarray]:
        """Candidate arrays (row views of ``base``, materialised lazily)."""
        if self._clips is None:
            self._clips = list(self.base)
        return self._clips

    def __len__(self) -> int:
        return len(self.hashes)

    @property
    def local_new(self) -> list[bool]:
        """Per-candidate flags: first occurrence within this delta."""
        seen: set[str] = set()
        marks = []
        for digest in self.hashes:
            marks.append(digest not in seen)
            seen.add(digest)
        return marks

    def take(self, indices: Sequence[int]) -> list[np.ndarray]:
        """Private binary uint8 copies of the candidates at ``indices``.

        Admitted rows of a ``base`` stack (already normalised to {0, 1})
        are extracted in one vectorised copy sharing one compact buffer;
        loose ``clips`` go through :func:`~repro.geometry.raster.validate_clip`
        one by one.  Either way the returned arrays match the clip's hash
        identity and are detached from anything the caller may later
        mutate.
        """
        if not len(indices):
            return []
        if self.base is not None:
            return list(self.base[np.asarray(indices, dtype=np.intp)])
        return [validate_clip(self.clips[i]) for i in indices]

    @classmethod
    def from_clips(
        cls, clips: Sequence[np.ndarray], *, offset: int = 0
    ) -> "ShardDelta":
        """Hash a clip slice (batched) into a mergeable delta.

        Uniform-shape integer/bool batches are stacked once, hashed in one
        vectorised pass and kept as the delta's ``base``; anything else
        falls back to per-clip hashing with caller-owned ``clips``.
        """
        clips = list(clips)
        if not clips:
            return cls(offset=offset)
        try:
            stack = np.asarray(clips)
        except ValueError:  # mixed shapes
            stack = None
        if stack is None or stack.ndim != 3 or stack.dtype.kind not in "bui":
            arrays = [np.asarray(clip) for clip in clips]
            return cls(offset=offset, hashes=pattern_hashes(arrays), clips=arrays)
        hashes = raster_stack_hashes(stack)
        # Normalise the base to binary uint8: stored clips must equal the
        # hash identity (``!= 0`` for integer/bool rasters, as_binary).
        if stack.dtype == np.bool_:
            stack = stack.view(np.uint8)
        elif stack.dtype != np.uint8 or stack.max() > 1:
            stack = (stack != 0).view(np.uint8)
        return cls(offset=offset, hashes=hashes, base=stack)


def compute_delta(clips: Sequence[np.ndarray], offset: int = 0) -> ShardDelta:
    """Hash and locally dedup one batch slice into a mergeable delta."""
    return ShardDelta.from_clips(clips, offset=offset)


def store_delta(store: "LibraryStore", *, offset: int = 0) -> ShardDelta:
    """A delta holding a store's full contents, without re-hashing.

    This is how one library is merged into another (cross-run or
    cross-machine): ``dest.merge(store_delta(src))``.
    """
    hashes: list[str] = []
    clips: list[np.ndarray] = []
    for digest, clip in store.items():
        hashes.append(digest)
        clips.append(clip)
    return ShardDelta(offset=offset, hashes=hashes, clips=clips)


@runtime_checkable
class LibraryStore(Protocol):
    """What every pattern-library backend exposes to the rest of the system.

    Stores are append-only and hash-deduplicated; iteration and ``clips``
    follow global insertion order, which experiments replay as growth
    curves.  ``summary()`` must be cached per store generation: repeated
    calls without intervening admissions are free.
    """

    name: str
    num_shards: int

    def admit(self, clip: np.ndarray) -> bool:
        """Admit one clip; True when it was new (kept)."""

    def admit_many(self, clips: Iterable[np.ndarray]) -> list[bool]:
        """Admit clips in order; per-clip admitted flags."""

    def merge(self, delta: ShardDelta) -> list[bool]:
        """Apply a worker/store delta in order; per-candidate flags."""

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """(digest, clip) pairs in insertion order, without re-hashing."""

    @property
    def clips(self) -> tuple[np.ndarray, ...]:
        """Stored clips in insertion order (immutable view)."""

    def summary(self) -> LibrarySummary:
        """Headline statistics, cached per store generation."""

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[np.ndarray]: ...

    def __contains__(self, clip: np.ndarray) -> bool: ...


class InMemoryStore:
    """Single-population store: one hash set, one insertion-ordered list.

    The generation counter is simply the store length (stores are
    append-only), which keys the ``clips`` tuple and ``summary()`` caches.
    """

    num_shards = 1

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
        digest = pattern_hash(clip)
        if digest in self._hashes:
            return False
        self._insert(digest, clip)
        return True

    def admit_many(self, clips: Iterable[np.ndarray]) -> list[bool]:
        clips = list(clips)
        if not clips:
            return []
        return self.merge(ShardDelta.from_clips(clips))

    def merge(self, delta: ShardDelta) -> list[bool]:
        hashes, hash_list = self._hashes, self._hash_list
        flags: list[bool] = []
        admitted: list[int] = []
        for i, digest in enumerate(delta.hashes):
            if digest in hashes:
                flags.append(False)
                continue
            hashes.add(digest)
            hash_list.append(digest)
            admitted.append(i)
            flags.append(True)
        self._clips.extend(delta.take(admitted))
        return flags

    def _insert(self, digest: str, clip: np.ndarray) -> None:
        self._hashes.add(digest)
        self._hash_list.append(digest)
        self._clips.append(validate_clip(clip))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self._hash_list, self._clips)

    @property
    def clips(self) -> tuple[np.ndarray, ...]:
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
        generation = len(self._clips)
        if self._summary_cache is None or self._summary_cache[0] != generation:
            # Stores are dedup-by-construction: unique == count, no re-hash.
            self._summary_cache = (
                generation,
                summarize_library(self._clips, unique=generation),
            )
        return self._summary_cache[1]

    def copy(self) -> "InMemoryStore":
        """Independent duplicate; copies the hash set instead of re-hashing."""
        dup = type(self)(name=self.name)
        dup._clips = list(self._clips)
        dup._hashes = set(self._hashes)
        dup._hash_list = list(self._hash_list)
        return dup
