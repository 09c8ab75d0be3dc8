"""The asyncio generation service: queue -> scheduler -> compute -> commit.

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
  full-width model batches**, and the DRC stage runs as **one** cached
  sweep over the whole micro-batch;
* **one compute thread** — micro-batches run FIFO on a single thread
  that keeps warm state: one backend per (backend, deck) (model loaded
  once, built with the deck only) and one
  :class:`~repro.engine.BatchExecutor` per deck, all drawing worker
  pools from one :class:`~repro.engine.PoolRegistry` (``service.pools``)
  — the one place a service opens a model process pool
  (``model_jobs > 1``).  Process-level parallelism above a micro-batch
  is the fleet's job (:mod:`repro.service.fleet`);
* **ordered commit stage** — the compute thread only runs the compute
  stages; every request's admission then passes through a single commit
  thread that reconciles results in **global arrival order** through an
  :class:`~repro.service.scheduler.ArrivalSequencer` (coalescing groups
  by key, so a later arrival can finish first), which keeps session
  stores bit-identical to serial :func:`~repro.engine.run_generation`
  calls — the load-bearing determinism invariant — and overlaps
  admission with the next micro-batch's compute;
* **streaming results** — each request's proposal is streamed back as
  :class:`~repro.engine.CandidateBatch` chunks, followed by the final
  :class:`~repro.engine.GenerationBatch`;
* **per-stage latency histograms** — every request's ``queue``,
  ``gather``, ``model``, ``drc`` and ``admit`` latencies are filed into
  :class:`~repro.service.stats.StageLatencies` histograms, exported by
  the ``op: "stats"`` TCP verb so where the time goes is visible rather
  than guessed (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import functools
import queue as queue_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator

import numpy as np

from ..engine import (
    BatchExecutor,
    CandidateBatch,
    ExecutionPlan,
    ExecutorConfig,
    GenerationBatch,
    GenerationRequest,
    GeneratorBackend,
    PoolRegistry,
    RetryPolicy,
    StageTimings,
    deck_key,
    get_backend,
)
from .faults import maybe_fire, protected
from .scheduler import (
    ArrivalSequencer,
    MicroBatch,
    MicroBatchScheduler,
    PendingRequest,
    SchedulerConfig,
)
from .session import SessionConfig, SessionManager
from .stats import StageLatencies

__all__ = [
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

_DONE = object()  # chunk-queue sentinel: no more chunks
_COMMIT_STOP = object()  # commit-queue sentinel: flush and exit


def _split_by_share(total: int, sizes: list[int]) -> list[int]:
    """Split an integer ``total`` proportionally to ``sizes`` (sums exactly).

    Cumulative rounding: share_i = floor(total * cum_i / n) - floor(total *
    cum_{i-1} / n), so the parts always add up to ``total``.
    """
    n = sum(sizes)
    if n == 0:
        return [0] * len(sizes)
    out, cum, prev = [], 0, 0
    for size in sizes:
        cum += size
        cut = total * cum // n
        out.append(cut - prev)
        prev = cut
    return out


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs.

    ``queue_size`` bounds the request queue (submission awaits when
    full).  ``jobs`` sizes the service executors' denoise/DRC/admit
    thread pool and ``model_jobs`` the model stage's process pool —
    the only model process pool a service opens; worker counts never
    change seeded outputs, so a service-served request is bit-identical
    to a serial one.  ``stream_chunk`` is the number of candidates per
    streamed :class:`~repro.engine.CandidateBatch` chunk.
    ``pack_models`` runs the model stage of every micro-batch whose
    backend supports it (``pack_jobs``/``pack_model_fn``) as packed
    batches, a lone request included; packing only changes which
    forwards sample together — per-request outputs are bit-identical
    either way — so disabling it is purely a benchmarking/debugging
    knob.
    """

    queue_size: int = 64
    jobs: int = 1
    model_jobs: int = 1
    stream_chunk: int = 32
    pack_models: bool = True
    #: Retry policy for the retryable micro-batch stages (model propose,
    #: DRC sweep): bounded attempts with capped exponential backoff and
    #: request-seeded jitter, so retries are deterministic.  A retried
    #: model stage re-seeds the plan's root rng first — a request that
    #: succeeds on attempt 2 is bit-identical to one that succeeded on
    #: attempt 1.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    sessions: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError("queue_size must be positive")
        if self.jobs < 1 or self.model_jobs < 1:
            raise ValueError("jobs and model_jobs must be positive")
        if self.stream_chunk < 1:
            raise ValueError("stream_chunk must be positive")


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
    # propose + DRC sweep), ``deadline_drops`` requests failed with
    # DeadlineExceeded, ``cancelled`` requests failed with
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
    packed_fallbacks: int = 0  # packed stages that fell back to per-request
    last_pack_fill: float = 0.0  # gauge: latest packed stage's fill ratio
    queue_depth: int = 0  # gauge: submit-queue depth at latest cycle dispatch
    stages: StageLatencies = field(default_factory=StageLatencies)


@dataclass
class _CommitToken:
    """One request's entry in the ordered commit stage.

    Every dispatched request emits exactly one token — ``ready`` carries
    the staged results awaiting admission, ``None`` marks a request that
    already failed (its error was delivered on the compute thread) and
    only needs its arrival slot released.  The commit thread admits
    strictly by ``arrival``.  ``pending`` is always set: the commit
    stage uses it to release the request from the live (cancellable)
    registry exactly once.
    """

    arrival: int
    ready: "tuple | None" = None
    pending: "PendingRequest | None" = None


class ResultStream:
    """Per-request handle: an async iterator of chunks plus the final batch.

    Chunks arrive as the model stage finishes (before DRC), so a client
    can render candidates while legality checking is still running; the
    final :class:`~repro.engine.GenerationBatch` carries the verdicts and
    admission counts.  Iterating chunks is optional — awaiting
    :meth:`result` alone is the common fast path.
    """

    def __init__(self, request: GenerationRequest, loop: asyncio.AbstractEventLoop):
        self.request = request
        self._loop = loop
        self._chunks: asyncio.Queue = asyncio.Queue()
        self._final: asyncio.Future = loop.create_future()
        # Retrieve the exception eagerly so an un-awaited failed stream
        # does not warn at GC time; result() still raises for callers.
        self._final.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._drained = False

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def done(self) -> bool:
        return self._final.done()

    # -- worker-thread side (always via loop.call_soon_threadsafe) ------
    def _deliver_chunk(self, chunk: CandidateBatch) -> None:
        self._chunks.put_nowait(chunk)

    def _deliver_result(self, batch: GenerationBatch) -> None:
        if not self._final.done():
            self._final.set_result(batch)
        self._chunks.put_nowait(_DONE)

    def _deliver_error(self, error: BaseException) -> None:
        if not self._final.done():
            self._final.set_exception(error)
        self._chunks.put_nowait(_DONE)

    # -- client side -----------------------------------------------------
    async def next_chunk(self) -> CandidateBatch | None:
        """The next streamed chunk, or ``None`` once the stream ended."""
        if self._drained:
            return None
        item = await self._chunks.get()
        if item is _DONE:
            self._drained = True
            return None
        return item

    async def chunks(self) -> AsyncIterator[CandidateBatch]:
        """Async-iterate the streamed :class:`CandidateBatch` chunks."""
        while (chunk := await self.next_chunk()) is not None:
            yield chunk

    def __aiter__(self) -> AsyncIterator[CandidateBatch]:
        return self.chunks()

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

    def next_chunk_now(self) -> CandidateBatch | None:
        """Pop a delivered chunk without awaiting; ``None`` when drained.

        Only meaningful once no more deliveries can arrive (stream done
        or service stopped): an empty queue then means the stream ended.
        """
        if self._drained:
            return None
        try:
            item = self._chunks.get_nowait()
        except asyncio.QueueEmpty:
            return None
        if item is _DONE:
            self._drained = True
            return None
        return item


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
        # Compute stage: one thread running micro-batches FIFO, plus its
        # warm state — backends per (name, deck key), executors per deck
        # key, and the pool registry those executors share.  Touched only
        # by the compute thread until stop() closes it.
        self._worker: ThreadPoolExecutor | None = None
        self.pools: PoolRegistry | None = None
        self._backends: dict[tuple, GeneratorBackend] = {}
        self._executors: dict[tuple, BatchExecutor] = {}
        self._stats_lock = threading.Lock()
        self._queue: asyncio.Queue[PendingRequest] | None = None
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._submit_lock: asyncio.Lock | None = None
        self._arrival = 0
        # Ordered commit stage: one token per dispatched request; the
        # commit thread admits strictly by arrival index.
        self._commit_queue: queue_module.Queue | None = None
        self._commit_thread: threading.Thread | None = None
        # Dispatch backpressure: requests dispatched but not yet
        # committed; the gather loop pauses above the in-flight limit.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._dispatch_event: asyncio.Event | None = None
        # Cancellation registry: request_id -> PendingRequest for every
        # request between submit and commit, plus the ids cancel() has
        # marked.  Marks take effect at the next stage boundary.
        self._live: dict[str, PendingRequest] = {}
        self._cancelled: set[str] = set()
        self._live_lock = threading.Lock()
        # Draining: submissions are refused while the service finishes
        # what it already accepted (graceful shutdown; see drain()).
        self._draining = False

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
        """Start the scheduler loop, compute and commit stages (idempotent)."""
        if self.running:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._submit_lock = asyncio.Lock()
        self._dispatch_event = asyncio.Event()
        self._inflight = 0
        with self._live_lock:
            self._live.clear()
            self._cancelled.clear()
        self._draining = False
        self.pools = PoolRegistry()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-compute"
        )
        self._commit_queue = queue_module.Queue()
        self._commit_thread = threading.Thread(
            target=self._commit_loop, name="repro-service-commit", daemon=True
        )
        self._commit_thread.start()
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
        # Compute drains first (every dispatched micro-batch emits its
        # commit tokens), then the commit thread flushes and exits.
        worker, self._worker = self._worker, None
        if worker is not None:
            await loop.run_in_executor(None, worker.shutdown)
        commit_thread, self._commit_thread = self._commit_thread, None
        if commit_thread is not None:
            self._commit_queue.put(_COMMIT_STOP)
            await loop.run_in_executor(None, commit_thread.join)
        self._commit_queue = None
        if self._queue is not None:
            while not self._queue.empty():
                self._fail_pending(self._queue.get_nowait())
            self._queue = None
        with self._live_lock:
            self._live.clear()
            self._cancelled.clear()
        if checkpoint:
            self.stats.checkpoints += len(self.sessions.checkpoint_all())
        if worker is not None:
            # After the commit stage: admissions lease executor pools.
            await loop.run_in_executor(None, self._close_engine_state)

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
        it already accepted.  The request's ``deadline_s``, if any,
        starts counting here.
        """
        if not self.running or self._queue is None:
            raise RuntimeError("generation service is not running")
        if self._draining:
            raise RuntimeError(
                "generation service is draining (not accepting requests)"
            )
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
            self._arrival += 1
            # Register as live *before* the enqueue: once the queue holds
            # the entry the compute (or commit) thread may finish it at
            # any moment, and its release must find the registration.
            with self._live_lock:
                self._live[request.request_id] = pending
            await self._queue.put(pending)
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
        request fails with :class:`RequestCancelled` and emits its one
        commit token — a stage already past its last boundary completes
        normally.  ``False`` means the id is unknown or already done.
        Thread-safe; callable from any thread (the TCP server calls it
        from connection handlers and on client disconnect).
        """
        with self._live_lock:
            pending = self._live.get(request_id)
            if pending is None or pending.stream.done:
                return False
            self._cancelled.add(request_id)
            return True

    def _release_live(self, pending: PendingRequest) -> None:
        """Drop a finished request from the cancellation registry."""
        with self._live_lock:
            if self._live.get(pending.request.request_id) is pending:
                del self._live[pending.request.request_id]
            self._cancelled.discard(pending.request.request_id)

    def _boundary_error(self, pending: PendingRequest) -> "Exception | None":
        """The stage-boundary verdict: cancelled, past deadline, or None."""
        with self._live_lock:
            if pending.request.request_id in self._cancelled:
                return RequestCancelled(
                    f"request {pending.request.request_id} was cancelled"
                )
        if (
            pending.deadline_at is not None
            and time.perf_counter() >= pending.deadline_at
        ):
            return DeadlineExceeded(
                f"request {pending.request.request_id} missed its "
                f"{pending.request.deadline_s:g}s deadline"
            )
        return None

    def _fail_request(
        self, pending: PendingRequest, error: BaseException
    ) -> None:
        """Deliver a terminal error (any thread; done-guarded counters)."""
        if not pending.stream.done:
            with self._stats_lock:
                self.stats.failed += 1
                if isinstance(error, DeadlineExceeded):
                    self.stats.deadline_drops += 1
                elif isinstance(error, RequestCancelled):
                    self.stats.cancelled += 1
        self._publish(pending.stream, ResultStream._deliver_error, error)

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Refuse new submissions and await in-flight completion.

        Returns ``True`` once the queue and all in-flight requests are
        empty, ``False`` when ``timeout`` seconds pass first (the
        remaining requests are still being served — callers typically
        proceed to :meth:`stop`, which fails whatever is still queued).
        Idempotent; the service keeps running either way so a final
        checkpoint can still happen.
        """
        self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            queued = self._queue.qsize() if self._queue is not None else 0
            if queued == 0 and self._inflight == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)

    def health(self) -> dict:
        """Liveness + degradation snapshot (the ``op: "health"`` verb).

        ``status`` is ``"ok"``, ``"degraded"`` (any pool circuit breaker
        currently open — those stages run serial until the cooldown
        passes) or ``"stopped"``; the rest is the recovery telemetry:
        per-pool breaker state, pool rebuilds, retry / deadline / cancel
        counters and the draining flag.
        """
        breakers: list[dict] = []
        rebuilds = 0
        registry = self.pools
        if registry is not None:
            breakers = registry.breakers.snapshot()
            rebuilds = registry.rebuilds
        degraded = any(entry.get("state") == "open" for entry in breakers)
        if not self.running:
            status = "stopped"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        with self._stats_lock:
            counters = {
                "retries": self.stats.retries,
                "deadline_drops": self.stats.deadline_drops,
                "cancelled": self.stats.cancelled,
            }
        return {
            "status": status,
            "draining": self._draining,
            "breakers": breakers,
            "breaker_trips": sum(
                int(entry.get("trips", 0)) for entry in breakers
            ),
            "pool_rebuilds": rebuilds,
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
        from ..diffusion.plan import plan_cache_stats
        from ..engine.modelpool import model_cache_stats
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
            "packed_fallbacks": stats.packed_fallbacks,
            "pack_fill": round(stats.last_pack_fill, 4),
            # Warm-start cache counters (on-disk sampler plans under
            # --drc-cache-dir, content-addressed published checkpoints).
            "warm_caches": {
                "sampler_plan": plan_cache_stats(),
                "checkpoints": model_cache_stats(),
            },
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
        if not pending.stream.done:
            with self._stats_lock:
                self.stats.failed += 1
        pending.stream._deliver_error(
            RuntimeError("generation service stopped")
        )
        self._release_live(pending)

    def _dequeued(self, pending: PendingRequest) -> PendingRequest:
        """Stamp a request as pulled off the submit queue (loop thread)."""
        pending.dequeued_at = time.perf_counter()
        return pending

    async def _run(self) -> None:
        assert self._queue is not None and self._loop is not None
        cfg = self.config.scheduler
        # In-flight limit: dispatched-but-uncommitted requests.  Above
        # it the gather loop pauses *before dequeuing* (dequeued
        # requests are always dispatched promptly, so commit order can
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
                # off the queue would otherwise never resolve.  They were
                # never dispatched, so no commit tokens are owed.
                for pending in batch:
                    self._fail_pending(pending)
                raise
            self._dispatch(batch)

    def _dispatch(self, batch: list[PendingRequest]) -> None:
        """Hand one gather window's micro-batches to compute (loop thread)."""
        # compatibility_key() evaluates user-supplied fields (deck,
        # params reprs); a poisoned request must fail alone — not
        # its co-arriving neighbours, and never the scheduler loop.
        with self._inflight_lock:
            self._inflight += len(batch)
        healthy = []
        for pending in batch:
            # Dequeue-time boundary: a request already cancelled, or
            # whose deadline passed while it queued, is dropped before
            # it costs any compute.
            error = self._boundary_error(pending)
            if error is None:
                try:
                    pending.request.compatibility_key()
                except Exception as bad:  # noqa: BLE001 - bad fields
                    error = bad
            if error is not None:
                self._fail_request(pending, error)
                # Release the arrival slot: the commit stage must not
                # wait forever on a request nothing will ever serve.
                self._commit_queue.put(
                    _CommitToken(pending.arrival, pending=pending)
                )
            else:
                healthy.append(pending)
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
            self._worker.submit(self._serve_micro_batch, micro)

    # ------------------------------------------------------------------
    # Compute stage (compute-thread side)
    # ------------------------------------------------------------------
    def _publish(self, stream: ResultStream, method, payload) -> None:
        self._loop.call_soon_threadsafe(method.__get__(stream), payload)

    def _backend_for(self, request: GenerationRequest) -> GeneratorBackend:
        """The long-lived backend for this request (built once, deck only).

        No worker counts are forwarded: the service only calls
        ``propose`` and the pack hooks, and every worker pool — the
        model stage's included — belongs to the per-deck executors
        (``service.pools``).
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
        """The warm executor for this deck (pools from ``self.pools``)."""
        key = deck_key(deck)
        executor = self._executors.get(key)
        if executor is None:
            cfg = self.config
            executor = BatchExecutor(
                deck.engine(),
                ExecutorConfig(jobs=cfg.jobs, model_jobs=cfg.model_jobs),
                pools=self.pools,
            )
            self._executors[key] = executor
        return executor

    def _close_engine_state(self) -> None:
        """Release backends, executors and pools (after compute drained)."""
        executors = list(self._executors.values())
        backends = list(self._backends.values())
        self._executors.clear()
        self._backends.clear()
        for executor in executors:
            executor.close()  # a no-op for the shared registry's pools
        for backend in backends:
            close = getattr(backend, "close", None)
            if callable(close):
                close()
        pools, self.pools = self.pools, None
        if pools is not None:
            pools.close()

    def _serve_micro_batch(self, micro: MicroBatch) -> None:
        """Serve one micro-batch, then emit its commit tokens.

        Every request the micro-batch carried emits **exactly one**
        token — ``ready`` results await ordered admission, failures
        (already delivered on this thread) release their arrival slot —
        so a crash anywhere in the compute stages can never stall the
        commit order later requests are waiting on.
        """
        with self._stats_lock:
            self.stats.micro_batches += 1
            self.stats.peak_coalesced = max(
                self.stats.peak_coalesced, len(micro)
            )
        ready: list[tuple] = []
        try:
            ready = self._run_micro_batch(micro)
        except Exception as error:  # noqa: BLE001 - compute must survive
            for pending in micro.entries:
                self._fail_request(pending, error)
        finally:
            staged = {id(item[0]) for item in ready}
            for item in ready:
                self._commit_queue.put(
                    _CommitToken(item[0].arrival, ready=item, pending=item[0])
                )
            for pending in micro.entries:
                if id(pending) not in staged:
                    self._commit_queue.put(
                        _CommitToken(pending.arrival, pending=pending)
                    )

    def _packed_model_stage(self, executor, prepared):
        """Sample the micro-batch's model stages as shared packed batches.

        The service's one model-stage path for pack-capable backends, at
        any micro-batch size: a lone request walks the same chunks, rng
        children and forwards as the backend's own serial model stage.
        Batches fan out over ``service.pools`` exactly when
        ``model_jobs > 1`` and there is more than one packed batch.

        Returns ``True`` after setting every prepared plan's
        ``proposal``/``generate_seconds``, or ``False`` to fall back to
        serial per-request execution — packing disabled, a backend
        without the ``pack_jobs``/``pack_model_fn`` hooks, or a
        packed-stage failure (counted in ``stats.packed_fallbacks``;
        every plan's root rng is re-seeded first, so the per-request
        fallback remains bit-identical to a serial run even if the
        packed stage had already consumed spawns).
        """
        if not self.config.pack_models:
            return False
        backend = prepared[0][1].backend
        pack_jobs = getattr(backend, "pack_jobs", None)
        pack_model_fn = getattr(backend, "pack_model_fn", None)
        if pack_jobs is None or pack_model_fn is None:
            return False
        cfg = executor.config
        # Chunk capacity must mirror the backend's serial model stage
        # (its propose-side rng spawn discipline), not this executor's.
        pack_model_batch = getattr(backend, "pack_model_batch", None)
        capacity = (
            pack_model_batch() if pack_model_batch is not None
            else cfg.model_batch
        )
        try:
            job_lists = [pack_jobs(plan.request) for _, plan in prepared]
            packing = self.scheduler.pack(
                [len(templates) for templates, _ in job_lists],
                capacity,
            )
            spec = None
            pack_spec = getattr(backend, "pack_spec", None)
            if (
                pack_spec is not None
                and cfg.model_jobs > 1
                and len(packing.batches) > 1
            ):
                spec = pack_spec()
            result = executor.run_model_packed(
                pack_model_fn(),
                job_lists,
                [plan.rng for _, plan in prepared],
                packing=packing,
                spec=spec,
            )
        except Exception:  # noqa: BLE001 - packed stage is best-effort
            for _, plan in prepared:
                plan.rng = plan.request.rng()
            with self._stats_lock:
                self.stats.packed_fallbacks += 1
            return False
        for (pending, plan), (templates, _), raws, seconds in zip(
            prepared, job_lists, result.outputs, result.seconds
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
            slots = result.plan.capacity * len(result.plan.batches)
            self.stats.last_pack_fill = (
                result.plan.packed_jobs / slots if slots else 0.0
            )
        return True

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        """on_retry hook: surface every retried stage attempt in stats."""
        with self._stats_lock:
            self.stats.retries += 1

    def _execute_with_retry(self, executor, pending, plan) -> CandidateBatch:
        """Run the model stage under the service's retry policy.

        Each retry re-seeds the plan's root rng from the request before
        re-proposing: a failed attempt may have consumed part of the
        stream, and the contract is that a request served on attempt N
        is bit-identical to one served on attempt 1.  The backoff jitter
        is drawn from a request-derived generator, so the retry schedule
        itself is deterministic per request.
        """

        def on_retry(attempt: int, error: BaseException) -> None:
            plan.rng = pending.request.rng()
            plan.proposal = None
            self._count_retry(attempt, error)

        with protected():  # env-scoped fault plans may fire in here
            return self.config.retry.run(
                lambda: executor.execute(plan),
                rng=np.random.default_rng(
                    [0x6D6F64656C, abs(int(pending.request.seed))]
                ),
                on_retry=on_retry,
            )

    def _run_micro_batch(self, micro: MicroBatch):
        """Model stage (packed when possible) + denoise per request, then
        one DRC sweep; no admission (the commit stage owns that)."""
        prepared: list[tuple[PendingRequest, ExecutionPlan]] = []
        executor = None
        for pending in micro.entries:
            request = pending.request
            boundary = self._boundary_error(pending)
            if boundary is not None:
                # Dropped at the compute entry boundary: the finally
                # block in _serve_micro_batch emits its skip token.
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

        # Model-stage dispatch: packed whenever the backend can pack (one
        # model stage for the whole micro-batch — chunks from different
        # requests share full-width batches, per-chunk rng spawned from
        # each request's own stream), else per-request execution.  Either
        # way outputs are bit-identical to serial.
        packed = self._packed_model_stage(executor, prepared)

        staged: list[tuple[PendingRequest, ExecutionPlan, list[np.ndarray], float]] = []
        for pending, plan in prepared:
            boundary = self._boundary_error(pending)
            if boundary is not None:
                # Model-stage boundary: cancelled / expired between plan
                # and sampling.
                self._fail_request(pending, boundary)
                continue
            try:
                t_model = time.perf_counter()
                proposal = (
                    plan.proposal if packed
                    else self._execute_with_retry(executor, pending, plan)
                )
                for chunk in proposal.chunks(self.config.stream_chunk):
                    if chunk.raws:
                        self._publish(
                            pending.stream, ResultStream._deliver_chunk, chunk
                        )
                clips, denoise_seconds = executor.denoise_batch(
                    proposal.raws, proposal.templates, plan.rng
                )
                # Model-stage latency: sampling (attributed job share
                # under packing) plus this request's denoise.
                model_seconds = (
                    plan.generate_seconds if packed
                    else time.perf_counter() - t_model
                ) + denoise_seconds
                self.stats.stages.observe("model", model_seconds)
                staged.append((pending, plan, clips, denoise_seconds))
            except Exception as error:  # noqa: BLE001 - surfaced per request
                self._fail_request(pending, error)
        if not staged:
            return []

        # One cached DRC sweep over the whole micro-batch: per-clip
        # verdicts are content-keyed, so splitting the mask back per
        # request is bit-identical to per-request sweeps.
        all_clips = [clip for _, _, clips, _ in staged for clip in clips]
        cache = executor.engine.cache
        hits0, misses0 = cache.hits, cache.misses
        try:
            # The sweep is retryable: DRC is a pure content-keyed check,
            # so re-running it consumes no request rng state.  The
            # jitter generator is fixed-seeded — the sweep is shared, so
            # no single request's seed may steer it.
            with protected():  # env-scoped fault plans may fire in here
                legal_all, drc_seconds = self.config.retry.run(
                    lambda: executor.check_batch(all_clips),
                    rng=np.random.default_rng(0x647263),
                    on_retry=self._count_retry,
                )
        except Exception as error:  # noqa: BLE001 - fail the whole batch
            for pending, _, _, _ in staged:
                self._fail_request(pending, error)
            return []
        # Attribute the sweep's cache traffic by candidate share, so a
        # request's batch reports its own traffic, not the whole sweep's.
        sizes = [len(clips) for _, _, clips, _ in staged]
        hit_shares = _split_by_share(cache.hits - hits0, sizes)
        miss_shares = _split_by_share(cache.misses - misses0, sizes)

        out = []
        offset = 0
        total = max(len(all_clips), 1)
        for (pending, plan, clips, denoise_seconds), hits, misses in zip(
            staged, hit_shares, miss_shares
        ):
            legal = legal_all[offset:offset + len(clips)]
            offset += len(clips)
            drc_share = drc_seconds * (len(clips) / total)
            self.stats.stages.observe("drc", drc_share)
            timings = StageTimings(
                denoise_seconds=denoise_seconds,
                # The shared sweep's cost, attributed by candidate share.
                drc_seconds=drc_share,
            )
            out.append(
                (pending, executor, plan, clips, legal, timings, hits, misses)
            )
        return out

    # ------------------------------------------------------------------
    # Ordered commit stage (commit-thread side)
    # ------------------------------------------------------------------
    def _commit_loop(self) -> None:
        """Admit computed results strictly by arrival index.

        Coalescing groups a gather window by key, so micro-batches can
        finish a later arrival before an earlier one; the sequencer holds
        each token until every earlier arrival has committed, so session
        stores grow in **global arrival order**.  Every dequeued request
        emits exactly one token (ready or skip), and dequeueing itself is
        FIFO by arrival, so no index is ever skipped over.  On shutdown
        (sentinel) any held tokens flush in arrival order regardless of
        gaps.
        """
        sequencer = ArrivalSequencer()
        while True:
            token = self._commit_queue.get()
            if token is _COMMIT_STOP:
                break
            sequencer.release(
                token.arrival, functools.partial(self._commit_one, token)
            )
        sequencer.flush()

    def _commit_one(self, token: _CommitToken) -> None:
        """Admit one request's results (or release a failed slot)."""
        released = False
        try:
            if token.ready is None:
                return
            pending, executor, plan, clips, legal, timings, hits, misses = (
                token.ready
            )
            # Last boundary check: a request cancelled (or expired) while
            # it waited in the sequencer is dropped *before* admission —
            # nothing of it reaches the session store.
            boundary = self._boundary_error(pending)
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
                batch = executor.assemble(
                    plan, clips, legal, admitted, timings,
                    cache_hits=hits, cache_misses=misses,
                )
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
                with self._stats_lock:
                    self.stats.failed += 1
                    if isinstance(error, DeadlineExceeded):
                        self.stats.deadline_drops += 1
                    elif isinstance(error, RequestCancelled):
                        self.stats.cancelled += 1
            released = True
            self._committed()
            if error is None:
                self._publish(pending.stream, ResultStream._deliver_result, batch)
            else:
                self._publish(pending.stream, ResultStream._deliver_error, error)
        finally:
            if token.pending is not None:
                self._release_live(token.pending)
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
