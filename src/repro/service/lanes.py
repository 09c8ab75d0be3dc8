"""Concurrent worker lanes: per-compatibility-key micro-batch execution.

PR 4–5 made each service cycle *wider* (coalescing, cross-request
packing) but still drove every micro-batch through one worker thread, so
incompatible workloads — different backend, deck or clip shape —
serialized behind each other.  Lanes are the fix: a bounded set of
single-threaded workers, each owning its own warm engine state, with
micro-batches routed to a lane by their
:meth:`~repro.engine.GenerationRequest.compatibility_key`:

* **sticky routing** — a key maps to one lane and stays there while the
  mapping is live, so that lane's backend instance (model loaded once)
  and :class:`~repro.engine.BatchExecutor` stay warm for it;
* **bounded lanes, LRU reuse** — the lane count is fixed at
  construction; a key not yet mapped takes the least-recently-used
  lane (several keys may share a lane, where their micro-batches run
  FIFO), and the key→lane map itself is LRU-bounded so a long tail of
  one-off keys cannot grow it without bound;
* **shared pools** — every lane executor draws its worker pools from
  one :class:`~repro.engine.PoolRegistry`, so N lanes over the same
  deck hold one thread pool and one process pool between them rather
  than N of each (the lease protocol makes teardown safe while lanes
  are mid-stage).

Lanes only run the *compute* stages (model, denoise, DRC).  Admissions
are reconciled elsewhere — the service's single ordered commit stage —
which is what keeps session stores bit-identical to single-lane serving;
see :mod:`repro.service.service`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from ..engine import (
    BatchExecutor,
    ExecutorConfig,
    GenerationRequest,
    GeneratorBackend,
    PoolRegistry,
    deck_key,
    get_backend,
)
from .stats import LaneStats

__all__ = ["Lane", "LaneManager"]


class Lane:
    """One worker lane: a serving thread plus its warm engine state.

    A lane owns long-lived backends (one per (name, deck)) and executors
    (one per deck, drawing pools from the manager's shared registry).
    Work runs strictly FIFO on the lane's single thread, so two
    micro-batches routed to one lane can never interleave — the same
    per-lane sequencing the pre-lane service had globally.
    """

    def __init__(
        self,
        lane_id: int,
        *,
        jobs: int = 1,
        pool: str = "thread",
        model_jobs: int = 1,
        backend_factory: Callable = get_backend,
        pools: PoolRegistry | None = None,
        stats: LaneStats | None = None,
    ):
        self.lane_id = lane_id
        self.stats = stats if stats is not None else LaneStats(lane_id)
        self._jobs = jobs
        self._pool = pool
        self._model_jobs = model_jobs
        self._backend_factory = backend_factory
        self._pools = pools if pools is not None else PoolRegistry()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-lane-{lane_id}"
        )
        self._backends: dict[tuple, GeneratorBackend] = {}
        self._executors: dict[tuple, BatchExecutor] = {}
        self._state_lock = threading.Lock()

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Queue work on the lane's thread (FIFO)."""
        return self._worker.submit(fn, *args, **kwargs)

    # ------------------------------------------------------------------
    # Warm engine state
    # ------------------------------------------------------------------
    def backend_for(self, request: GenerationRequest) -> GeneratorBackend:
        """The lane's long-lived backend for this request (built once).

        Backends that accept ``jobs``/``model_jobs`` get the lane's
        worker config forwarded, so a 1-request micro-batch samples with
        the same parallelism as everything else; worker counts never
        change seeded outputs (rng.spawn discipline), so this is purely
        a throughput knob.
        """
        name, request_deck_key, _, _ = request.compatibility_key()
        key = (name, request_deck_key)
        with self._state_lock:
            backend = self._backends.get(key)
        if backend is None:
            kwargs = {"deck": request.deck} if request.deck is not None else {}
            if self._jobs > 1 or self._model_jobs > 1:
                try:
                    backend = self._backend_factory(
                        name, **kwargs, jobs=self._jobs,
                        model_jobs=self._model_jobs,
                    )
                except TypeError:
                    pass  # factory without worker-count kwargs
            if backend is None:
                backend = self._backend_factory(name, **kwargs)
            with self._state_lock:
                backend = self._backends.setdefault(key, backend)
        return backend

    def executor_for(self, deck) -> BatchExecutor:
        """The lane's warm executor for this deck (pools shared lane-wide)."""
        key = deck_key(deck)
        with self._state_lock:
            executor = self._executors.get(key)
            if executor is None:
                executor = BatchExecutor(
                    deck.engine(),
                    ExecutorConfig(
                        jobs=self._jobs,
                        pool=self._pool,
                        model_jobs=self._model_jobs,
                    ),
                    pools=self._pools,
                )
                self._executors[key] = executor
            return executor

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Block until queued work finishes, then stop the lane thread."""
        self._worker.shutdown(wait=True)

    def close_state(self) -> None:
        """Release the lane's backends and executors (after :meth:`drain`).

        Executor ``close()`` is a no-op for the shared pool registry
        (the manager owns it); backends with a ``close()`` get one.
        """
        with self._state_lock:
            executors = list(self._executors.values())
            backends = list(self._backends.values())
            self._executors.clear()
            self._backends.clear()
        for executor in executors:
            executor.close()
        for backend in backends:
            close = getattr(backend, "close", None)
            if callable(close):
                close()


class LaneManager:
    """Routes micro-batches to a bounded set of lanes, LRU-reused.

    ``lane_for(key)`` is sticky: a compatibility key keeps its lane
    while its mapping lives, so warm backend/executor state is reused.
    A new key claims the least-recently-used lane; with more live keys
    than lanes, keys share lanes (their micro-batches serialize on that
    lane, exactly like the pre-lane single worker).  The key→lane map
    is itself LRU-bounded (``max_keys``, default ``8 × lanes``): only
    the *mapping* is evicted — the lane's warm state persists until the
    manager closes.
    """

    def __init__(
        self,
        count: int,
        *,
        jobs: int = 1,
        pool: str = "thread",
        model_jobs: int = 1,
        backend_factory: Callable = get_backend,
        max_keys: int | None = None,
        stats: dict[int, LaneStats] | None = None,
    ):
        if count < 1:
            raise ValueError("lane count must be positive")
        self.pools = PoolRegistry()
        self._lock = threading.Lock()
        self._assignments: dict[tuple, Lane] = {}  # insertion = LRU order
        self._last_used: dict[int, int] = {i: -1 for i in range(count)}
        self._clock = 0
        self.max_keys = max_keys if max_keys is not None else 8 * count
        if self.max_keys < 1:
            raise ValueError("max_keys must be positive")
        self._lanes = []
        for lane_id in range(count):
            lane_stats = LaneStats(lane_id)
            if stats is not None:
                stats[lane_id] = lane_stats
            self._lanes.append(
                Lane(
                    lane_id,
                    jobs=jobs,
                    pool=pool,
                    model_jobs=model_jobs,
                    backend_factory=backend_factory,
                    pools=self.pools,
                    stats=lane_stats,
                )
            )

    @property
    def lanes(self) -> list[Lane]:
        return list(self._lanes)

    def __len__(self) -> int:
        return len(self._lanes)

    def lane_for(self, key: tuple) -> Lane:
        """The lane serving ``key`` (sticky; LRU lane claimed when new)."""
        with self._lock:
            lane = self._assignments.pop(key, None)
            if lane is None:
                lane = min(
                    self._lanes,
                    key=lambda entry: self._last_used[entry.lane_id],
                )
            self._assignments[key] = lane  # re-insert: most recent
            if len(self._assignments) > self.max_keys:
                stale_key = next(iter(self._assignments))
                stale_lane = self._assignments.pop(stale_key)
                stale_lane.stats.keys = sum(
                    1 for mapped in self._assignments.values()
                    if mapped is stale_lane
                )
            self._clock += 1
            self._last_used[lane.lane_id] = self._clock
            lane.stats.keys = sum(
                1 for mapped in self._assignments.values() if mapped is lane
            )
            return lane

    def assignments(self) -> dict[tuple, int]:
        """Live ``key -> lane_id`` routing (snapshot, LRU order)."""
        with self._lock:
            return {
                key: lane.lane_id for key, lane in self._assignments.items()
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Stop every lane thread after its queued work finishes."""
        for lane in self._lanes:
            lane.drain()

    def close(self) -> None:
        """Drain lanes, release their engine state, close the shared pools."""
        self.drain()
        for lane in self._lanes:
            lane.close_state()
        self.pools.close()
