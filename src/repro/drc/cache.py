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
yields a fresh empty cache.  The stores live and die with their process:
no verdict is saved across runs, and each fleet worker keeps its own.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from ..geometry.hashing import pattern_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> cache)
    from .engine import DrcEngine

__all__ = ["DrcCache", "clear_shared_caches"]

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
