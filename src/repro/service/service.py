"""The asyncio generation service: queue -> scheduler -> compute, commit.

:class:`GenerationService` turns the one-shot
:func:`repro.engine.run_generation` machinery into a long-lived server:

* **bounded request queue** — :meth:`~GenerationService.submit` enqueues a
  :class:`~repro.engine.GenerationRequest` and returns a
  :class:`ResultStream`; when the queue is full, submission awaits
  (backpressure) instead of growing memory without bound;
* **cross-client micro-batching** — a gather window collects co-arriving
  requests, and the :class:`~repro.service.scheduler.MicroBatchScheduler`
  coalesces compatible ones (same backend/deck/shape) into micro-batches:
  with a pack-capable backend the model stage of every micro-batch (a
  lone request too) samples **chunks from different requests as shared
  full-width model batches**.  The model stage is all a micro-batch
  shares: each request then runs its own denoise and cached DRC check,
  the same calls as serial :func:`~repro.engine.run_generation`;
* **one compute thread** — micro-batches run FIFO on a single thread
  that keeps warm state: one backend per (backend, deck) (model loaded
  once, built with the deck only) and one
  :class:`~repro.engine.BatchExecutor` per deck.  The model stage uses
  every core through row-sharded forwards (:mod:`repro.nn.shards`);
  denoise, DRC and admission run serially; process-level parallelism
  above a micro-batch is the fleet's job (:mod:`repro.service.fleet`);
* **arrival-order commit** — the compute thread serves one gather
  window at a time and, after each of its micro-batches, admits the
  window's results in **arrival order** (coalescing groups by key and
  priority, so a later arrival can finish first).  Windows run FIFO,
  so that is global arrival order: session stores stay bit-identical
  to serial :func:`~repro.engine.run_generation` calls — the
  load-bearing determinism invariant — and the compute thread is the
  only one that ever touches a session store;
* **one result per request** — each request's :class:`ResultStream`
  resolves exactly once, with its final
  :class:`~repro.engine.GenerationBatch` (clips, verdicts, admission
  counts) or its error;
* **per-stage latency histograms** — every request's ``queue``,
  ``gather``, ``model``, ``drc`` and ``admit`` latencies are filed into
  :class:`~repro.service.stats.StageLatencies` histograms, exported by
  the ``op: "stats"`` TCP verb so where the time goes is visible rather
  than guessed (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..engine import (
    BatchExecutor,
    CandidateBatch,
    ExecutionPlan,
    GenerationBatch,
    GenerationRequest,
    GeneratorBackend,
    RetryPolicy,
    StageTimings,
    deck_key,
    get_backend,
)
from .faults import maybe_fire, protected
from .scheduler import (
    MicroBatch,
    MicroBatchScheduler,
    PendingRequest,
    SchedulerConfig,
)
from .session import SessionConfig, SessionManager
from .stats import StageLatencies

__all__ = [
    "Admissions",
    "DeadlineExceeded",
    "RequestCancelled",
    "ServiceConfig",
    "ServiceStats",
    "ResultStream",
    "GenerationService",
]


class DeadlineExceeded(TimeoutError):
    """A request's ``deadline_s`` passed before it finished.

    Raised through the request's :class:`ResultStream` when a stage
    boundary (dispatch, model, admit) finds the deadline expired; the
    request is dropped there rather than burning compute a client has
    already given up on.
    """


class RequestCancelled(RuntimeError):
    """The request was cancelled (``op: "cancel"``, client disconnect,
    or :meth:`GenerationService.cancel`) before it completed."""

# A backend defining all three is sampled through the packed model stage.
_PACK_HOOKS = ("pack_jobs", "pack_model_batch", "pack_model_fn")


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs.

    ``queue_size`` bounds the request queue (submission awaits when
    full).  A service-served request is bit-identical to a serial one.
    Model-stage dispatch is not configurable: a backend with all three
    pack hooks is always sampled through the packed stage (see
    :meth:`GenerationService._packed_model_stage`).
    """

    queue_size: int = 64
    #: Retry policy for the retryable compute stages (the model stage,
    #: packed or per request, and each request's DRC check): bounded
    #: attempts with capped exponential backoff and deterministic
    #: jitter.  A retried model stage re-seeds its plans' root rngs
    #: first — a request that succeeds on attempt 2 is bit-identical to
    #: one that succeeded on attempt 1.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    sessions: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError("queue_size must be positive")


@dataclass
class ServiceStats:
    """Lifetime counters, gauges, and the per-stage latency histograms.

    Counters are cumulative; cross-thread increments are serialized by
    the service's stats lock.  The gauges describe *current* state
    rather than history: ``queue_depth`` is the submit-queue depth when
    the latest cycle was dispatched, and ``last_pack_fill`` is the fill
    ratio of the latest packed model stage (packed jobs / packed slots;
    0.0 until something packs).

    ``stages`` holds the per-stage latency histograms
    (``queue``/``gather``/``model``/``drc``/``admit``).  All of it is
    exported over the wire by the ``op: "stats"`` verb (see
    ``docs/SERVING.md``) so a load balancer can see saturation without
    scraping logs.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    # Fault-tolerance counters: every recovery event is visible on the
    # ``stats`` verb.  ``retries`` counts retried stage attempts (model
    # stage, packed or not, and DRC check), ``deadline_drops`` requests
    # failed with DeadlineExceeded, ``cancelled`` requests failed with
    # RequestCancelled (both are also included in ``failed``).
    retries: int = 0
    deadline_drops: int = 0
    cancelled: int = 0
    cycles: int = 0
    micro_batches: int = 0
    peak_coalesced: int = 0  # most requests ever served by one micro-batch
    checkpoints: int = 0
    packed_batches: int = 0  # shared model batches dispatched
    packed_jobs: int = 0  # sampling jobs served through packed batches
    last_pack_fill: float = 0.0  # gauge: latest packed stage's fill ratio
    queue_depth: int = 0  # gauge: submit-queue depth at latest cycle dispatch
    stages: StageLatencies = field(default_factory=StageLatencies)


class ResultStream:
    """Per-request handle: resolves once, with the final batch or an error.

    The final :class:`~repro.engine.GenerationBatch` carries the clips,
    their verdicts and the admission counts.  Any number of readers may
    await :meth:`result`; each gets the same batch (or error).
    """

    def __init__(self, request: GenerationRequest, loop: asyncio.AbstractEventLoop):
        self.request = request
        self._final: asyncio.Future = loop.create_future()
        # Retrieve the exception eagerly so an un-awaited failed stream
        # does not warn at GC time; result() still raises for callers.
        self._final.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def done(self) -> bool:
        return self._final.done()

    # -- worker-thread side (always via loop.call_soon_threadsafe) ------
    def _deliver_result(self, batch: GenerationBatch) -> None:
        if not self._final.done():
            self._final.set_result(batch)

    def _deliver_error(self, error: BaseException) -> None:
        if not self._final.done():
            self._final.set_exception(error)

    # -- client side -----------------------------------------------------
    async def result(self) -> GenerationBatch:
        """Await the final batch (raises if the request failed)."""
        return await asyncio.shield(self._final)

    def result_now(self) -> GenerationBatch:
        """The final batch if the stream already resolved (no awaiting).

        For consumers whose event loop is gone (e.g. a client read after
        close); raises ``RuntimeError`` when no result was delivered.
        """
        if not self._final.done():
            raise RuntimeError("request has not completed")
        return self._final.result()


class Admissions:
    """The live-request ledger both serving topologies share.

    It holds one entry per accepted request, from :meth:`register` until
    :meth:`release`.  An entry is any object with ``request``,
    ``stream``, ``cancelled`` and ``deadline_at``: the service's
    :class:`~repro.service.scheduler.PendingRequest` or the fleet front's
    ``_FleetPending``.  Thread-safe: ``lock`` also guards an entry's
    ``cancelled`` mark, and ``draining`` is set once :meth:`drain` began.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.draining = False
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list:
        with self.lock:
            return list(self._entries.values())

    def register(self, entry) -> None:
        """Accept ``entry``, or refuse it: ``RuntimeError`` once
        :meth:`drain` began, ``ValueError`` while a live entry (its
        stream not done) holds the same ``request_id``."""
        request_id = entry.request.request_id
        with self.lock:
            if self.draining:
                raise RuntimeError(
                    "generation service is draining (not accepting requests)"
                )
            live = self._entries.get(request_id)
            if live is not None and not live.stream.done:
                raise ValueError(
                    f"request_id {request_id!r} is already in flight"
                )
            self._entries[request_id] = entry

    def release(self, entry) -> bool:
        """Drop ``entry`` (by identity); ``True`` if it was registered."""
        with self.lock:
            if self._entries.get(entry.request.request_id) is not entry:
                return False
            del self._entries[entry.request.request_id]
            return True

    def cancel(self, request_id: str):
        """Mark a live entry cancelled and return it; ``None`` (falsy)
        when the id is unknown or its stream is already done."""
        with self.lock:
            entry = self._entries.get(request_id)
            if entry is None or entry.stream.done:
                return None
            entry.cancelled = True
            return entry

    @staticmethod
    def boundary_error(entry) -> "Exception | None":
        """The stage-boundary verdict: cancelled, past deadline, or None."""
        rid, deadline_at = entry.request.request_id, entry.deadline_at
        if entry.cancelled:
            return RequestCancelled(f"request {rid} was cancelled")
        if deadline_at is not None and time.perf_counter() >= deadline_at:
            return DeadlineExceeded(
                f"request {rid} missed its "
                f"{entry.request.deadline_s:g}s deadline"
            )
        return None

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Refuse every later :meth:`register`, then wait until the ledger
        is empty: ``True``, or ``False`` once ``timeout`` seconds pass."""
        with self.lock:
            self.draining = True
        deadline = time.monotonic() + timeout if timeout is not None else None
        while self._entries:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    def clear(self) -> None:
        """Forget every entry and accept again (a service (re)starting)."""
        with self.lock:
            self._entries.clear()
            self.draining = False


class GenerationService:
    """Serves concurrent generation requests over shared engine state."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        session_manager: SessionManager | None = None,
        backend_factory=get_backend,
    ):
        self.config = config or ServiceConfig()
        self.scheduler = MicroBatchScheduler(self.config.scheduler)
        self.sessions = session_manager or SessionManager(self.config.sessions)
        self.stats = ServiceStats()
        self._backend_factory = backend_factory
        # Compute stage: one thread serving gather windows FIFO and
        # committing them, plus its warm state — backends per (name,
        # deck key) and executors per deck key.  Touched only by the
        # compute thread until stop() drops it.
        self._worker: ThreadPoolExecutor | None = None
        self._backends: dict[tuple, GeneratorBackend] = {}
        self._executors: dict[tuple, BatchExecutor] = {}
        self._stats_lock = threading.Lock()
        self._queue: asyncio.Queue[PendingRequest] | None = None
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._submit_lock: asyncio.Lock | None = None
        # Submission index: the scheduler's sort key (gaps are harmless).
        self._arrival = 0
        # Dispatch backpressure: requests dispatched but not yet
        # committed; the gather loop pauses above the in-flight limit.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._dispatch_event: asyncio.Event | None = None
        # Every request between submit and commit (cancel, drain).
        self._admissions = Admissions()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the global submit queue."""
        return self._queue.qsize() if self._queue is not None else 0

    def queue_depths(self) -> dict:
        """Everything queued anywhere: ``{"submit": N, "in_flight": M}``.

        ``submit`` is the bounded submit queue, ``in_flight`` the
        dispatched-but-uncommitted total.
        """
        return {"submit": self.queue_depth, "in_flight": self._inflight}

    async def start(self) -> "GenerationService":
        """Start the scheduler loop and the compute thread (idempotent)."""
        if self.running:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._submit_lock = asyncio.Lock()
        self._dispatch_event = asyncio.Event()
        self._inflight = 0
        self._admissions.clear()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-compute"
        )
        self._task = self._loop.create_task(self._run())
        return self

    async def stop(self, *, checkpoint: bool = True) -> None:
        """Drain and shut down (idempotent).

        In-flight micro-batches finish and commit (their streams
        resolve); requests still queued fail with
        ``RuntimeError``.  Sessions with snapshot directories take a
        final checkpoint unless ``checkpoint=False``.
        """
        loop = asyncio.get_running_loop()
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        # Every dispatched window still runs and commits before the
        # compute thread exits.
        worker, self._worker = self._worker, None
        if worker is not None:
            await loop.run_in_executor(None, worker.shutdown)
        if self._queue is not None:
            while not self._queue.empty():
                self._fail_pending(self._queue.get_nowait())
            self._queue = None
        self._admissions.clear()
        if checkpoint:
            self.stats.checkpoints += len(self.sessions.checkpoint_all())
        if worker is not None:
            # The compute thread has drained: drop the warm state.
            self._backends.clear()
            self._executors.clear()

    async def __aenter__(self) -> "GenerationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: GenerationRequest,
        *,
        session: str | None = None,
    ) -> ResultStream:
        """Queue a request; returns its :class:`ResultStream`.

        Awaits when the queue is full (backpressure).  ``session`` names
        the library scope; ``None`` gives the request a private fresh
        store, like a serial :func:`~repro.engine.run_generation` call.

        A draining service (graceful shutdown in progress) refuses new
        submissions with ``RuntimeError`` while it finishes the requests
        it already accepted; that includes a submit still waiting for
        the submit lock when :meth:`drain` began.  A ``request_id`` that
        is still live (its stream has not resolved) is refused with
        ``ValueError``.  The request's ``deadline_s``, if any, starts
        counting here.
        """
        if not self.running or self._queue is None:
            raise RuntimeError("generation service is not running")
        if session is not None:
            # Syntax-check the id here (bad ids fail the submit); the
            # store itself — possibly a large snapshot load — is
            # materialised lazily on the compute thread, never on the
            # event loop.
            self.sessions.validate_id(session)
        stream = ResultStream(request, self._loop)
        # The lock serialises (index assignment, enqueue) so queue order
        # always equals arrival order, even when the queue is full and
        # several submitters are waiting.
        async with self._submit_lock:
            submitted_at = time.perf_counter()
            pending = PendingRequest(
                arrival=self._arrival,
                request=request,
                session_id=session,
                stream=stream,
                submitted_at=submitted_at,
                deadline_at=(
                    submitted_at + request.deadline_s
                    if request.deadline_s is not None
                    else None
                ),
            )
            # Register before the enqueue: a refused request must never
            # reach the queue.
            self._admissions.register(pending)
            self._arrival += 1
            try:
                await self._queue.put(pending)
            except asyncio.CancelledError:
                # Never accepted: drop its live entry, or drain() waits
                # forever.
                self._admissions.release(pending)
                raise
        if not self.running:
            # stop() ran while we were waiting on a full queue; the drain
            # may already have missed this entry, so fail it here (the
            # stream's done-guard makes a double delivery harmless).
            self._fail_pending(pending)
        self.stats.submitted += 1
        return stream

    # ------------------------------------------------------------------
    # Cancellation, deadlines, drain, health
    # ------------------------------------------------------------------
    def cancel(self, request_id: str) -> bool:
        """Mark a live request cancelled; ``True`` when the mark took.

        Cancellation is a *boundary* operation: the mark is honoured at
        the next stage boundary (dispatch, model, admit), where the
        request fails with :class:`RequestCancelled` — a stage already
        past its last boundary completes normally.  ``False`` means the
        id is unknown or already done.  The mark is a flag on the
        request's :class:`Admissions` entry.  Thread-safe; callable from
        any thread (the TCP server calls it from connection handlers and
        on client disconnect).
        """
        return self._admissions.cancel(request_id) is not None

    def _count_failure(self, error: BaseException) -> None:
        """Count one failed request, and its deadline or cancel kind."""
        with self._stats_lock:
            self.stats.failed += 1
            if isinstance(error, DeadlineExceeded):
                self.stats.deadline_drops += 1
            elif isinstance(error, RequestCancelled):
                self.stats.cancelled += 1

    def _fail_request(
        self, pending: PendingRequest, error: BaseException
    ) -> None:
        """Deliver a terminal error (any thread; done-guarded counters)."""
        if not pending.stream.done:
            self._count_failure(error)
        self._publish(pending.stream, ResultStream._deliver_error, error)

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Refuse new submissions and await in-flight completion.

        Returns ``True`` once every accepted request has resolved —
        queued, gathering or dispatched — and ``False`` when ``timeout``
        seconds pass first (the rest are still being served — callers
        typically proceed to :meth:`stop`, which fails whatever is still
        queued).  A submit not yet accepted when drain begins is refused.
        Idempotent; the service keeps running either way so a final
        checkpoint can still happen.
        """
        return await self._admissions.drain(timeout)

    def health(self) -> dict:
        """Liveness snapshot (the ``op: "health"`` verb).

        ``status`` is ``"ok"`` or ``"stopped"``; the rest is the recovery
        telemetry: snapshot load fallbacks, retry / deadline / cancel
        counters and the draining flag.
        """
        status = "ok" if self.running else "stopped"
        with self._stats_lock:
            counters = {
                "retries": self.stats.retries,
                "deadline_drops": self.stats.deadline_drops,
                "cancelled": self.stats.cancelled,
            }
        return {
            "status": status,
            "draining": self._admissions.draining,
            "snapshot_load_fallbacks": self.sessions.load_fallbacks,
            **counters,
        }

    def stats_payload(self) -> dict:
        """The ``op: "stats"`` verb's full JSON payload.

        Lives on the service (rather than inline in the TCP handler) so
        every front end — the line-JSON server, the in-process client,
        and the fleet front, which overrides this to aggregate across
        worker processes — exports exactly the same shape.  See
        ``docs/SERVING.md`` for the field reference.
        """
        from .faults import injection_stats

        stats = self.stats
        return {
            "submitted": stats.submitted,
            "completed": stats.completed,
            "failed": stats.failed,
            # Recovery telemetry: stage retries, requests dropped at a
            # deadline boundary, cancellations.
            "retries": stats.retries,
            "deadline_drops": stats.deadline_drops,
            "cancelled": stats.cancelled,
            "cycles": stats.cycles,
            "micro_batches": stats.micro_batches,
            "peak_coalesced": stats.peak_coalesced,
            # Live queue occupancy now; the stats gauge holds the depth
            # at the latest cycle dispatch.
            "queue_depth": self.queue_depth,
            "queue_depth_at_cycle": stats.queue_depth,
            "packed_batches": stats.packed_batches,
            "packed_jobs": stats.packed_jobs,
            "pack_fill": round(stats.last_pack_fill, 4),
            # Active fault-injection plan state (chaos runs;
            # {"installed": false} in normal operation).
            "faults": injection_stats(),
            # Per-stage latency histograms (queue/gather/model/drc/
            # admit); see docs/SERVING.md for the bucket format.
            "stages": stats.stages.snapshot(),
        }

    # ------------------------------------------------------------------
    # Scheduler loop (event-loop side)
    # ------------------------------------------------------------------
    def _fail_pending(self, pending: PendingRequest) -> None:
        """Fail an undelivered request (loop thread; double-safe)."""
        error = RuntimeError("generation service stopped")
        if not pending.stream.done:
            self._count_failure(error)
        pending.stream._deliver_error(error)
        self._admissions.release(pending)

    def _dequeued(self, pending: PendingRequest) -> PendingRequest:
        """Stamp a request as pulled off the submit queue (loop thread)."""
        pending.dequeued_at = time.perf_counter()
        return pending

    async def _run(self) -> None:
        assert self._queue is not None and self._loop is not None
        cfg = self.config.scheduler
        # In-flight limit: dispatched-but-uncommitted requests.  Above
        # it the gather loop pauses *before dequeuing* (dequeued
        # requests are always dispatched promptly, so a window can
        # never deadlock against this backpressure).
        limit = max(self.config.queue_size, cfg.max_batch_requests)
        while True:
            batch: list[PendingRequest] = []
            try:
                while self._inflight >= limit:
                    self._dispatch_event.clear()
                    await self._dispatch_event.wait()
                batch.append(self._dequeued(await self._queue.get()))
                deadline = self._loop.time() + cfg.gather_window_s
                while len(batch) < cfg.max_batch_requests:
                    try:
                        batch.append(
                            self._dequeued(self._queue.get_nowait())
                        )
                        continue
                    except asyncio.QueueEmpty:
                        pass
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            self._dequeued(
                                await asyncio.wait_for(
                                    self._queue.get(), remaining
                                )
                            )
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                # stop() cancelled us mid-gather: requests already pulled
                # off the queue would otherwise never resolve.
                for pending in batch:
                    self._fail_pending(pending)
                raise
            self._dispatch(batch)

    def _dispatch(self, batch: list[PendingRequest]) -> None:
        """Hand one gather window to the compute thread (loop thread)."""
        # compatibility_key() evaluates user-supplied fields (deck,
        # params reprs); a poisoned request must fail alone — not
        # its co-arriving neighbours, and never the scheduler loop.
        healthy = []
        for pending in batch:
            # Dequeue-time boundary: a request already cancelled, or
            # whose deadline passed while it queued, is dropped before
            # it costs any compute.
            error = Admissions.boundary_error(pending)
            if error is None:
                try:
                    pending.request.compatibility_key()
                except Exception as bad:  # noqa: BLE001 - bad fields
                    error = bad
            if error is not None:
                # It joins no window, so it leaves the ledger here.
                self._fail_request(pending, error)
                self._admissions.release(pending)
            else:
                healthy.append(pending)
        with self._inflight_lock:
            self._inflight += len(healthy)
        micro_batches = self.scheduler.coalesce(healthy)
        # Queue-depth gauge: what is still waiting now that this
        # cycle's requests have been pulled off the queue.
        self.stats.queue_depth = self._queue.qsize()
        self.stats.cycles += 1
        now = time.perf_counter()
        for micro in micro_batches:
            for entry in micro.entries:
                self.stats.stages.observe(
                    "queue", max(0.0, entry.dequeued_at - entry.submitted_at)
                )
                self.stats.stages.observe(
                    "gather", max(0.0, now - entry.dequeued_at)
                )
        if healthy:
            self._worker.submit(self._serve_window, healthy, micro_batches)

    # ------------------------------------------------------------------
    # Compute stage (compute-thread side)
    # ------------------------------------------------------------------
    def _publish(self, stream: ResultStream, method, payload) -> None:
        self._loop.call_soon_threadsafe(method, stream, payload)

    def _backend_for(self, request: GenerationRequest) -> GeneratorBackend:
        """The long-lived backend for this request (built once, deck only).

        The service only calls ``propose`` and the pack hooks.
        """
        name, request_deck_key, _, _ = request.compatibility_key()
        key = (name, request_deck_key)
        backend = self._backends.get(key)
        if backend is None:
            kwargs = {"deck": request.deck} if request.deck is not None else {}
            backend = self._backend_factory(name, **kwargs)
            self._backends[key] = backend
        return backend

    def _executor_for(self, deck) -> BatchExecutor:
        """The warm executor for this deck (its DRC cache stays warm)."""
        key = deck_key(deck)
        executor = self._executors.get(key)
        if executor is None:
            executor = BatchExecutor(deck.engine())
            self._executors[key] = executor
        return executor

    def _serve_window(
        self, window: list[PendingRequest], micro_batches: list[MicroBatch]
    ) -> None:
        """Serve one gather window and commit it in arrival order.

        ``window`` is in arrival order (the queue is FIFO); the
        micro-batches run in scheduler order, which can finish a later
        arrival first.  After each micro-batch the window's *due prefix*
        commits: every request whose own micro-batch and every earlier
        arrival's has run.  Windows run FIFO on this one thread, so
        session stores grow in global arrival order, and a request that
        failed before compute is in no window at all.
        """
        staged: dict[int, tuple] = {}
        served: set[int] = set()
        due = 0
        try:
            for micro in micro_batches:
                for item in self._serve_micro_batch(micro):
                    staged[id(item[0])] = item
                served.update(id(pending) for pending in micro.entries)
                while due < len(window) and id(window[due]) in served:
                    pending, due = window[due], due + 1
                    self._commit_one(pending, staged.pop(id(pending), None))
        finally:
            for pending in window[due:]:
                self._commit_one(pending, staged.pop(id(pending), None))

    def _serve_micro_batch(self, micro: MicroBatch) -> list[tuple]:
        """Run one micro-batch's compute stages; returns the staged
        results.  A crash fails every request it carried."""
        with self._stats_lock:
            self.stats.micro_batches += 1
            self.stats.peak_coalesced = max(
                self.stats.peak_coalesced, len(micro)
            )
        try:
            return self._run_micro_batch(micro)
        except Exception as error:  # noqa: BLE001 - compute must survive
            for pending in micro.entries:
                self._fail_request(pending, error)
            return []

    def _packed_model_stage(self, executor, prepared):
        """Sample the micro-batch's model stages as shared packed batches.

        A lone request walks the same chunks, rng children and forwards
        as the backend's own ``propose``.  A request whose jobs cannot be
        built fails alone before packing; the packed run is then one
        retried stage, and when retries run out every request in it
        fails: it is the one stage the micro-batch shares.  Returns the
        ``(pending, plan)`` pairs whose ``proposal`` is now set.
        """
        backend = prepared[0][1].backend
        built, job_lists = [], []
        for pending, plan in prepared:
            try:
                job_lists.append(backend.pack_jobs(plan.request))
                built.append((pending, plan))
            except Exception as error:  # noqa: BLE001 - surfaced per request
                self._fail_request(pending, error)
        if not built:
            return []
        try:
            # The backend's own chunk size: its propose spawns one rng
            # child per chunk, and packed == serial needs the same chunks.
            model_batch = backend.pack_model_batch()
            packed_fn = backend.pack_model_fn()
            # Fixed jitter seed: the stage is shared, so no single
            # request's seed may steer it.
            result = self._retried(
                lambda: executor.run_model_packed(
                    packed_fn,
                    job_lists,
                    [plan.rng for _, plan in built],
                    model_batch,
                ),
                0x6D6F64656C,
                built,
            )
        except Exception as error:  # noqa: BLE001 - fail the whole stage
            for pending, _ in built:
                self._fail_request(pending, error)
            return []
        for (_, plan), (templates, _), raws, seconds in zip(
            built, job_lists, result.outputs, result.seconds
        ):
            plan.proposal = CandidateBatch(
                raws=raws,
                templates=list(templates),
                attempts=len(templates),
                generate_seconds=seconds,
            )
            plan.generate_seconds = seconds
        with self._stats_lock:
            self.stats.packed_batches += len(result.plan.batches)
            self.stats.packed_jobs += result.plan.packed_jobs
            self.stats.last_pack_fill = result.plan.fill_ratio
        return built

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        """on_retry hook: surface every retried stage attempt in stats."""
        with self._stats_lock:
            self.stats.retries += 1

    def _retried(self, run, jitter, entries=()):
        """Run a stage under the retry policy (``jitter`` seeds the
        backoff jitter, so the schedule is deterministic).

        Each retry first re-seeds every ``(pending, plan)`` entry's plan
        rng from its request: a model stage served on attempt N is
        bit-identical to attempt 1's.  A DRC check passes no entries.
        """

        def on_retry(attempt: int, error: BaseException) -> None:
            for pending, plan in entries:
                plan.rng = pending.request.rng()
            self._count_retry(attempt, error)

        with protected():  # env-scoped fault plans may fire in here
            return self.config.retry.run(
                run, rng=np.random.default_rng(jitter), on_retry=on_retry
            )

    def _run_micro_batch(self, micro: MicroBatch):
        """Model stage (packed for a pack-capable backend), then denoise
        and DRC check per request; no admission (the commit stage owns
        that).  Only the model stage is shared by the micro-batch."""
        prepared: list[tuple[PendingRequest, ExecutionPlan]] = []
        executor = None
        for pending in micro.entries:
            request = pending.request
            boundary = Admissions.boundary_error(pending)
            if boundary is not None:
                # Dropped at the compute entry boundary.
                self._fail_request(pending, boundary)
                continue
            try:
                backend = self._backend_for(request)
                deck = request.deck if request.deck is not None else backend.deck
                executor = self._executor_for(deck)
                library = None
                if pending.session_id is not None:
                    library = self.sessions.get(pending.session_id).store
                plan = executor.plan(request, backend=backend, library=library)
                prepared.append((pending, plan))
            except Exception as error:  # noqa: BLE001 - surfaced per request
                self._fail_request(pending, error)
        if not prepared:
            return []

        # Model-stage dispatch, one fixed rule: a backend with all three
        # pack hooks samples the micro-batch as one packed stage (chunks
        # from different requests share full-width batches, per-chunk
        # rng spawned from each request's own stream); any other backend
        # proposes per request.  Either way outputs are bit-identical to
        # serial.
        backend = prepared[0][1].backend
        packed = all(hasattr(backend, hook) for hook in _PACK_HOOKS)
        if packed:
            prepared = self._packed_model_stage(executor, prepared)

        ready = []
        for pending, plan in prepared:
            boundary = Admissions.boundary_error(pending)
            if boundary is not None:
                # Model-stage boundary: cancelled / expired between plan
                # and sampling.
                self._fail_request(pending, boundary)
                continue
            try:
                seed = abs(int(pending.request.seed))
                proposal = plan.proposal
                if not packed:
                    proposal = self._retried(
                        functools.partial(executor.execute, plan),
                        [0x6D6F64656C, seed],
                        [(pending, plan)],
                    )
                clips, denoise_seconds = executor.denoise_batch(
                    proposal.raws, proposal.templates, plan.rng
                )
                # Model-stage latency: sampling (attributed job share
                # under packing) plus this request's denoise.
                self.stats.stages.observe(
                    "model", plan.generate_seconds + denoise_seconds
                )
                # The request's own DRC check, as in serial
                # run_generation.  It consumes no rng, so a retry
                # re-seeds nothing.
                legal, drc_seconds = self._retried(
                    functools.partial(executor.check_batch, clips),
                    [0x647263, seed],
                )
                self.stats.stages.observe("drc", drc_seconds)
            except Exception as error:  # noqa: BLE001 - surfaced per request
                self._fail_request(pending, error)
                continue
            timings = StageTimings(
                denoise_seconds=denoise_seconds, drc_seconds=drc_seconds
            )
            ready.append((pending, executor, plan, clips, legal, timings))
        return ready

    # ------------------------------------------------------------------
    # Arrival-order commit (compute-thread side)
    # ------------------------------------------------------------------
    def _commit_one(
        self, pending: PendingRequest, ready: "tuple | None"
    ) -> None:
        """Admit one request's staged results.  ``ready`` is ``None`` for
        a request that already failed: it only gives back its ledger
        entry and in-flight slot."""
        released = False
        try:
            if ready is None:
                return
            _, executor, plan, clips, legal, timings = ready
            # Last boundary check: a request cancelled (or expired) while
            # it waited for earlier arrivals is dropped *before*
            # admission — nothing of it reaches the session store.
            boundary = Admissions.boundary_error(pending)
            if boundary is not None:
                self._fail_request(pending, boundary)
                released = True
                self._committed()
                return
            t0 = time.perf_counter()
            batch, error = None, None
            try:
                # Narrow protected() scope: the admit site is covered
                # (errors here are contained to this request), but the
                # session checkpoint below is not — an env-scoped
                # snapshot fault must not fail an unrelated request.
                with protected():
                    maybe_fire("admit")
                legal_clips = [c for c, ok in zip(clips, legal) if ok]
                admitted = sum(executor.admit_batch(plan.library, legal_clips))
                batch = executor.assemble(plan, clips, legal, admitted, timings)
                if pending.session_id is not None:
                    session = self.sessions.get(pending.session_id)
                    if session.record_batch() is not None:
                        with self._stats_lock:
                            self.stats.checkpoints += 1
            except Exception as err:  # noqa: BLE001 - surfaced per request
                error = err
            # Count, observe and release the in-flight slot before
            # publishing: a client that has seen its result must also
            # see it reflected in the stats and gauges.
            admit_seconds = time.perf_counter() - t0
            self.stats.stages.observe("admit", admit_seconds)
            if error is None:
                with self._stats_lock:
                    self.stats.completed += 1
            else:
                self._count_failure(error)
            released = True
            self._committed()
            if error is None:
                self._publish(pending.stream, ResultStream._deliver_result, batch)
            else:
                self._publish(pending.stream, ResultStream._deliver_error, error)
        finally:
            self._admissions.release(pending)
            if not released:
                self._committed()

    def _committed(self) -> None:
        """Release one in-flight slot and wake a paused gather loop."""
        with self._inflight_lock:
            self._inflight -= 1
        loop, event = self._loop, self._dispatch_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:  # loop already closed (late shutdown)
            pass
