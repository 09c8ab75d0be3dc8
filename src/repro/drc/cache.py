"""Content-hash DRC result cache.

Legality of a clip under a fixed rule deck is a pure function of its
pixels, so results are memoised by the exact raster hash from
:mod:`repro.geometry.hashing`.  Two cache scopes exist:

* a *per-engine* :class:`DrcCache` instance, created lazily by
  :class:`~repro.drc.engine.DrcEngine`;
* a process-wide *shared store*, keyed by the deck fingerprint (deck name
  plus the repr of its rule tuple), so equal engines built independently —
  e.g. by separate experiment harnesses — share one memo table and
  re-checks of identical clips across iterations and experiments are free.

The cache is bounded (FIFO eviction) and thread-safe: the shared stores
are process-wide, so threads driving equal engines side by side (two
services or executors in one process) check through one memo table.
It is deliberately *not* pickled with its contents: pickling an engine
yields a fresh empty cache.

The shared stores can optionally persist across processes:
:func:`save_shared_caches` writes each store to a JSON file named by its
deck fingerprint digest, and :func:`load_shared_caches` pre-seeds the
stores from such a directory.  The fingerprint inside every file is the
staleness guard — a file whose recorded deck fingerprint does not hash
to its own filename (renamed, edited, or written by a different deck
definition) is skipped rather than trusted.  ``repro serve`` and
``repro generate`` expose this as ``--drc-cache-dir``.  Both halves go
through one in-memory form, :func:`snapshot_shared_caches` and
:func:`merge_shared_caches`, which is also how fleet workers hand their
verdicts back to the front process at stop time.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..geometry.hashing import pattern_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> cache)
    from .engine import DrcEngine

__all__ = [
    "DrcCache",
    "clear_shared_caches",
    "load_shared_caches",
    "merge_shared_caches",
    "save_shared_caches",
    "snapshot_shared_caches",
]

#: Deck fingerprint -> (lock, legality memo) shared by all equal engines.
#: The lock travels with the store: caches over the same deck must
#: serialize mutations on one lock, not one lock per cache instance.
_SHARED_STORES: dict[tuple[str, str], tuple[threading.Lock, dict[str, bool]]] = {}
_SHARED_LOCK = threading.Lock()

#: Default bound per store; a 40-hex key plus a bool is ~100 bytes, so the
#: default caps a store around 20 MB.
DEFAULT_MAXSIZE = 200_000


def clear_shared_caches() -> None:
    """Drop every shared legality store (mainly for tests and benches)."""
    with _SHARED_LOCK:
        _SHARED_STORES.clear()


#: On-disk cache file schema version; files with another version are skipped.
_DISK_FORMAT = 1


def _fingerprint_digest(fingerprint: tuple[str, str]) -> str:
    """The filename-safe digest of a deck fingerprint."""
    return hashlib.sha1(repr(fingerprint).encode()).hexdigest()[:16]


def _cache_path(root: Path, fingerprint: tuple[str, str]) -> Path:
    return root / f"drc-{_fingerprint_digest(fingerprint)}.json"


def snapshot_shared_caches() -> dict[tuple[str, str], dict[str, bool]]:
    """A copy of every non-empty shared store, keyed by deck fingerprint.

    The portable form of the shared stores: :func:`save_shared_caches`
    writes it to disk, and a fleet worker hands it to the front in its
    stop reply so verdicts found in worker processes persist too.
    """
    with _SHARED_LOCK:
        stores = list(_SHARED_STORES.items())
    snapshot = {}
    for fingerprint, (lock, store) in stores:
        with lock:
            entries = dict(store)
        if entries:
            snapshot[fingerprint] = entries
    return snapshot


def merge_shared_caches(
    snapshot: dict[tuple[str, str], dict[str, bool]],
    *,
    maxsize: int = DEFAULT_MAXSIZE,
) -> int:
    """Merge a :func:`snapshot_shared_caches` result in; returns entries added.

    Entries already memoised in-process win; merging stops filling a
    store at ``maxsize``.
    """
    added = 0
    for fingerprint, entries in snapshot.items():
        with _SHARED_LOCK:
            lock, store = _SHARED_STORES.setdefault(
                fingerprint, (threading.Lock(), {})
            )
        with lock:
            for key, value in entries.items():
                if len(store) >= maxsize:
                    break
                if key not in store:
                    store[key] = bool(value)
                    added += 1
    return added


def save_shared_caches(root: str | Path) -> int:
    """Persist every shared legality store under ``root``; returns files written.

    One JSON file per deck fingerprint (``drc-<digest>.json``), written
    atomically (tmp + rename) so a crash mid-save never leaves a
    half-written file for the next run to trust.  Empty stores are
    skipped.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    written = 0
    for fingerprint, entries in snapshot_shared_caches().items():
        payload = {
            "format": _DISK_FORMAT,
            "fingerprint": list(fingerprint),
            "entries": entries,
        }
        path = _cache_path(root, fingerprint)
        tmp = path.with_suffix(f".json.tmp-{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        written += 1
    return written


def load_shared_caches(
    root: str | Path, *, maxsize: int = DEFAULT_MAXSIZE
) -> int:
    """Pre-seed the shared stores from ``root``; returns entries loaded.

    Staleness guard: a file is only trusted when its recorded deck
    fingerprint hashes back to its own filename — a cache produced by a
    different deck definition (rules edited, deck renamed) gets a new
    digest, so the stale file is simply ignored rather than poisoning
    fresh runs with verdicts from old rules.  Corrupt or wrong-format
    files are skipped.  The files merge in through
    :func:`merge_shared_caches`, so in-process entries win over disk.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    snapshot = {}
    for path in sorted(root.glob("drc-*.json")):
        try:
            payload = json.loads(path.read_text())
            if payload.get("format") != _DISK_FORMAT:
                continue
            name, rules_repr = payload["fingerprint"]
            fingerprint = (str(name), str(rules_repr))
            entries = payload["entries"]
            if not isinstance(entries, dict):
                continue
        except (OSError, ValueError, KeyError, TypeError):
            continue  # corrupt file: worst case is a cold cache
        if _cache_path(root, fingerprint) != path:
            continue  # stale: fingerprint no longer matches the filename
        snapshot[fingerprint] = entries
    return merge_shared_caches(snapshot, maxsize=maxsize)


class DrcCache:
    """Thread-safe ``pattern_hash -> is_clean`` memo with FIFO eviction."""

    def __init__(
        self,
        store: dict[str, bool] | None = None,
        *,
        maxsize: int = DEFAULT_MAXSIZE,
        lock: threading.Lock | None = None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self._store: dict[str, bool] = store if store is not None else {}
        self._maxsize = maxsize
        self._lock = lock if lock is not None else threading.Lock()
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_engine(cls, engine: "DrcEngine") -> "DrcCache":
        """A cache backed by the shared store (and lock) for this deck."""
        key = (engine.name, repr(engine.rules))
        with _SHARED_LOCK:
            lock, store = _SHARED_STORES.setdefault(
                key, (threading.Lock(), {})
            )
        return cls(store, lock=lock)

    # ------------------------------------------------------------------
    # Lookup / update
    # ------------------------------------------------------------------
    @staticmethod
    def key(clip: np.ndarray) -> str:
        """The memo key of a clip (exact binary raster identity)."""
        return pattern_hash(clip)

    def get(self, key: str) -> bool | None:
        """The memoised verdict, or ``None`` on a miss (counters updated)."""
        with self._lock:
            value = self._store.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: str, value: bool) -> None:
        with self._lock:
            if key not in self._store and len(self._store) >= self._maxsize:
                self._store.pop(next(iter(self._store)))
            self._store[key] = bool(value)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------
    # Pickling: an unpickled cache starts fresh and empty.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"maxsize": self._maxsize}

    def __setstate__(self, state: dict) -> None:
        self.__init__(maxsize=state["maxsize"])
