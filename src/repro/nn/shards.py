"""Row shards for inference forwards: the shard pool, per-thread state and
the BLAS thread count.

An inference UNet forward splits its batch into contiguous row shards,
one per usable core, and runs them on one process-wide thread pool (the
calling thread runs the first shard itself).  Every shard projects the
same distinct-timestep embeddings and every other op is per-sample, so
shards are bitwise equal to the unsharded forward; see
:meth:`repro.nn.unet.TimeUnet.forward`.

Three process-wide rules live here:

* **BLAS is pinned to one thread.**  The first sharded forward sets
  numpy's bundled OpenBLAS to one thread for the life of the process,
  through ctypes (``threadpoolctl`` is not a dependency).  Shards are
  the parallelism; a second BLAS thread per shard only competes with
  them.  When no setter symbol is found the forward does not shard.
* **Forked children run one shard.**  A child forked after the pool
  exists inherits a pool object whose threads do not exist in it, so an
  at-fork hook drops the pool; the child runs every forward as one
  shard, with BLAS pinned to one thread from its first forward.  Fleet
  workers are forked, and they already parallelise at the process
  level.
* **Scratch is per thread.**  Layers keep their reusable buffers in
  plain dicts keyed by thread ident (:func:`thread_slot`), not in
  ``threading.local`` attributes, so modules stay picklable and
  deep-copyable.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["blas_threads", "run_shards", "shard_count", "thread_slot"]

_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Threads one per-thread store keeps before evicting its oldest entry.
#: Eviction only costs a reallocation: callers hold the arrays they use.
_MAX_THREADS = max(16, 2 * _cores())

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_forked = False
#: ``None`` until the first pin attempt, then whether a setter was found.
_blas_pinned: bool | None = None


def _openblas_symbol(names: tuple[str, ...]):
    """The first of ``names`` exported by numpy's bundled OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """Live OpenBLAS thread count, or ``None`` without a getter symbol."""
    getter = _openblas_symbol(_GETTERS)
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def _pin_blas() -> bool:
    """Pin OpenBLAS to one thread, once per process; False without a setter."""
    global _blas_pinned
    if _blas_pinned is None:
        with _lock:
            if _blas_pinned is None:
                setter = _openblas_symbol(_SETTERS)
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(1)
                _blas_pinned = setter is not None
    return _blas_pinned


def shard_count(rows: int) -> int:
    """Shards for a ``rows``-row forward: one per usable core, at most one
    per row, and one in a forked child or when BLAS cannot be pinned."""
    if _forked:
        _pin_blas()
        return 1
    shards = min(rows, _cores())
    if shards > 1 and not _pin_blas():
        return 1
    return max(shards, 1)


def _shard_pool() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(_cores() - 1, 1),
                thread_name_prefix="repro-nn-shard",
            )
        return _pool


def run_shards(fn: Callable[[int, int], None], rows: int) -> None:
    """Call ``fn(lo, hi)`` once per contiguous row shard of ``rows``.

    The calling thread runs the first shard and the pool the rest; this
    returns once every shard is done, re-raising the first failure.
    """
    shards = shard_count(rows)
    if shards == 1:
        fn(0, rows)
        return
    bounds = [rows * i // shards for i in range(shards + 1)]
    spans = list(zip(bounds, bounds[1:]))
    pool = _shard_pool()
    futures = [pool.submit(fn, lo, hi) for lo, hi in spans[1:]]
    try:
        fn(*spans[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def thread_slot(store: dict) -> dict:
    """The calling thread's entry of ``store`` (a dict keyed by thread ident)."""
    ident = threading.get_ident()
    slot = store.get(ident)
    if slot is None:
        with _lock:
            if len(store) >= _MAX_THREADS:
                store.pop(next(iter(store)))
            slot = store[ident] = {}
    return slot


def _after_fork_in_child() -> None:
    global _lock, _pool, _forked, _blas_pinned
    _lock = threading.Lock()
    _pool = None
    _forked = True
    _blas_pinned = None


os.register_at_fork(after_in_child=_after_fork_in_child)
