"""The pattern-library subsystem: one deduplicated store, persisted.

Everything that stores deduplicated DR-clean clips lives here:

* :class:`InMemoryStore` — one hash set + one insertion-ordered list (the
  classic ``PatternLibrary`` behaviour; that name remains as a facade in
  :mod:`repro.core.library`); ``LibraryStore`` is its alias for
  annotations;
* :func:`save_library` / :func:`load_library` — crash-safe, generational
  ``.npz`` snapshot persistence (via :mod:`repro.io`) so libraries
  survive across runs;
* :func:`merge_libraries` — ordered admission of several snapshots into
  one store, so libraries merge deterministically across machines.
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
from .store import InMemoryStore, LibraryStore

__all__ = [
    "MANIFEST_NAME",
    "PREVIOUS_MANIFEST_NAME",
    "InMemoryStore",
    "LibraryStore",
    "ensure_snapshot_target",
    "is_library_dir",
    "load_library",
    "merge_libraries",
    "save_library",
    "snapshot_count",
]
