"""The pattern-library subsystem: pluggable, shardable, persistent.

Everything that stores deduplicated DR-clean clips lives here:

* :class:`LibraryStore` — the protocol all consumers program against;
* :class:`InMemoryStore` — one hash set + one ordered list (the classic
  ``PatternLibrary`` behaviour; that name remains as a facade in
  :mod:`repro.core.library`);
* :class:`ShardedStore` — hash-prefix partitioned storage with per-shard
  cached summaries that roll up into one
  :class:`~repro.metrics.diversity.LibrarySummary`;
* :class:`ShardDelta` / :func:`compute_delta` / :func:`store_delta` — the
  merge protocol: slices or whole stores are hashed into deltas that the
  destination store merges in batch order, admitting bit-identically to
  one ``admit_many`` call;
* :func:`save_library` / :func:`load_library` / :func:`merge_libraries` —
  ``.npz``-per-shard snapshot persistence (via :mod:`repro.io`) so
  libraries survive across runs and merge across machines.
"""

from .persist import (
    MANIFEST_NAME,
    PREVIOUS_MANIFEST_NAME,
    ensure_snapshot_target,
    is_library_dir,
    load_library,
    merge_libraries,
    save_library,
    snapshot_count,
)
from .sharded import ShardedStore
from .store import (
    InMemoryStore,
    LibraryStore,
    ShardDelta,
    compute_delta,
    shard_of,
    store_delta,
)

__all__ = [
    "MANIFEST_NAME",
    "PREVIOUS_MANIFEST_NAME",
    "InMemoryStore",
    "LibraryStore",
    "ShardDelta",
    "ShardedStore",
    "compute_delta",
    "ensure_snapshot_target",
    "is_library_dir",
    "load_library",
    "merge_libraries",
    "save_library",
    "shard_of",
    "snapshot_count",
    "store_delta",
]
