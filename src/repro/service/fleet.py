"""Multi-process shard-aware serving front: N worker processes, one wire.

One :class:`~repro.service.GenerationService` process runs one
micro-batch at a time on one compute thread.  :class:`FleetService` is
the one concurrency layer above that: it spawns ``workers`` child
*processes* (``fork`` start method), each running a full
``GenerationService``, and routes requests to them sticky-by-key:

* the routing key is the request's session id when it has one, else its
  :meth:`~repro.engine.GenerationRequest.compatibility_key`;
* a key's first request claims the least-recently-claimed live worker
  and the key stays pinned there (bounded LRU table, stale keys evicted),
  so one session's requests land on one worker in arrival order — which
  is exactly the property that makes a session's store deterministic in
  the single-process service, preserved across the process boundary;
* terminal events pass through the same
  :class:`~repro.service.scheduler.ArrivalSequencer` the service's
  commit stage uses: every request's result or error is published in
  *global arrival order*, so
  fleet outputs are bit-identical to a serial
  :func:`~repro.engine.run_generation` pass over the same submission
  order.  Chunks stream through immediately, matching the in-process
  semantics where only commits are ordered.

The front speaks to each worker over a private :func:`multiprocessing
.Pipe` carrying Python objects (requests, chunks, batches, exceptions)
with full fidelity — no re-encoding — while the *public* surface stays
the :class:`GenerationService` one (``submit``/``cancel``/``health``/
``stats_payload``/``drain``/``stop``), so the line-JSON TCP server and
:class:`~repro.service.ServiceClient` work unchanged in front of a
fleet.

Session libraries are per-worker while serving (each worker checkpoints
its sessions under ``<snapshot_root>/workers/<i>``, and results cross
the pipe with ``library=None``); at drain and stop time the front
reconciles them into the shared root with the ordered
:func:`~repro.library.merge_libraries`
(:func:`reconcile_worker_snapshots`).  Cold sessions on a worker seed
from the last reconciled merge via ``SessionConfig.fallback_root``.
DRC verdicts travel the same way: workers inherit the front's shared
stores at fork, and each worker's stop reply carries its stores back
for the front to merge, so ``--drc-cache-dir`` saves what workers found.

A worker crash (detected as EOF on its pipe) fails that worker's
in-flight requests with terminal error events — released through the
sequencer so ordering holds for the survivors — and respawns the slot
behind a :class:`~repro.engine.retry.CircuitBreaker`, so a crash-looping
worker degrades the fleet instead of fork-bombing the host.  The
``fleet`` fault-injection site (``REPRO_FAULTS=fleet:kill@1``) makes
this path deterministically testable.

Process-level parallelism lives at the fleet layer (``workers``); inside
a worker, only the row-sharded model forwards (:mod:`repro.nn.shards`)
use threads.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..drc.cache import merge_shared_caches, snapshot_shared_caches
from ..engine import GenerationRequest
from ..engine.retry import CircuitBreaker
from ..library import is_library_dir, merge_libraries, save_library
from .faults import maybe_fire, protected, reset_faults_for_worker
from .scheduler import ArrivalSequencer
from .service import (
    GenerationService,
    RequestCancelled,
    ResultStream,
    ServiceConfig,
)
from .session import SessionManager
from .stats import StageLatencies

__all__ = [
    "FleetConfig",
    "FleetStats",
    "FleetService",
    "reconcile_worker_snapshots",
]

#: Subdirectory of the snapshot root holding per-worker session roots.
WORKER_SUBDIR = "workers"

#: Exit code a worker uses for an injected ``fleet:kill`` crash.
_KILL_EXIT = 17

_ROUTE_STOP = object()


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (per-worker knobs live in ``service``).

    ``workers`` is the process count.  ``service`` is the
    :class:`~repro.service.ServiceConfig` every worker runs — the front
    derives each worker's private variant (a per-worker snapshot
    subdirectory) from it.  ``respawn``
    enables crash recovery: a dead worker slot is re-forked as long as
    its circuit breaker (``breaker_threshold`` failures within
    ``breaker_window_s`` trip it open for ``breaker_cooldown_s``)
    allows, i.e. by default one respawn per crash burst rather than a
    crash loop.  ``rpc_timeout_s`` bounds
    the control-plane round trips (stats/health/checkpoint/stop).
    """

    workers: int = 2
    service: ServiceConfig = field(default_factory=ServiceConfig)
    respawn: bool = True
    breaker_threshold: int = 2
    breaker_window_s: float = 60.0
    breaker_cooldown_s: float = 30.0
    rpc_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.rpc_timeout_s <= 0:
            raise ValueError("rpc_timeout_s must be positive")


@dataclass
class FleetStats:
    """Front-side counters (worker-side engine counters are aggregated
    live from the workers by :meth:`FleetService.stats_payload`).

    ``crashed_requests`` counts requests failed because their worker
    died mid-flight (also included in ``failed``); ``respawns`` counts
    worker slots re-forked after a crash; ``unroutable`` counts requests
    failed before reaching any worker (no live workers / poisoned key);
    ``cancelled`` counts terminal ``RequestCancelled`` resolutions seen
    at the front (also included in ``failed``) — wherever the mark was
    applied, every cancellation resolves through ``_resolve`` exactly
    once, so this is the fleet-wide cancellation count a disconnecting
    TCP client's sweep shows up in.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    crashed_requests: int = 0
    unroutable: int = 0
    respawns: int = 0
    reconciled_sessions: int = 0


def _worker_dirname(worker_id: int) -> str:
    return f"{worker_id:04d}"


def _worker_config(cfg: FleetConfig, worker_id: int) -> ServiceConfig:
    """The per-worker :class:`ServiceConfig`: a private snapshot dir.

    Each worker checkpoints sessions under its own subdirectory of the
    shared snapshot root (two processes must never race one manifest);
    cold sessions still warm-start from the shared root — the last
    reconciled merge — via ``fallback_root``.
    """
    base = cfg.service
    sessions = base.sessions
    if sessions.snapshot_root is not None:
        root = Path(sessions.snapshot_root)
        sessions = replace(
            sessions,
            snapshot_root=root / WORKER_SUBDIR / _worker_dirname(worker_id),
            fallback_root=root,
        )
    return replace(base, sessions=sessions)


def reconcile_worker_snapshots(root: "str | Path") -> "dict[str, int]":
    """Merge per-worker session snapshots into the shared root.

    For every session id found under ``<root>/workers/*/``, merge —
    via the ordered :func:`~repro.library.merge_libraries` — the shared
    root's existing snapshot (the base ordering, when one exists) with
    each worker's snapshot *in worker-index order*, and save the result
    to ``<root>/<session_id>`` with the same crash-safe generational
    layout the single-process service writes.  Deterministic for fixed
    worker contents; a session served by exactly one worker round-trips
    bit-identically.

    Returns ``{session_id: merged_pattern_count}``.
    """
    root = Path(root)
    workers_root = root / WORKER_SUBDIR
    if not workers_root.is_dir():
        return {}
    worker_dirs = sorted(
        path for path in workers_root.iterdir() if path.is_dir()
    )
    session_ids = set()
    for worker_dir in worker_dirs:
        for sub in worker_dir.iterdir():
            if is_library_dir(sub):
                session_ids.add(sub.name)
    merged: dict[str, int] = {}
    for session_id in sorted(session_ids):
        sources = []
        if is_library_dir(root / session_id):
            sources.append(root / session_id)
        sources.extend(
            worker_dir / session_id
            for worker_dir in worker_dirs
            if is_library_dir(worker_dir / session_id)
        )
        store = merge_libraries(sources, name=session_id)
        save_library(store, root / session_id)
        merged[session_id] = len(store)
    return merged


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
def _safe_error(error: BaseException) -> BaseException:
    """An exception guaranteed to survive the pipe (pickle round trip)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickling failure degrades
        return RuntimeError(f"{type(error).__name__}: {error}")


def _worker_main(
    worker_id: int,
    conn,
    config: ServiceConfig,
    respawn: bool,
) -> None:
    """A fleet worker's main: one full service behind one pipe.

    The main thread is the command loop (``recv`` is the only reader);
    a private event loop thread runs the :class:`GenerationService`;
    one writer thread owns all ``send`` calls (Connections are not
    thread-safe), draining an in-process queue so request coroutines
    never block on the pipe.
    """
    # Fresh fault counters: the fork inherited the parent's injector
    # mid-count.  Respawned workers additionally shed fleet-site specs
    # so a kill schedule crashes each slot once, not every respawn.
    reset_faults_for_worker(drop_sites=("fleet",) if respawn else ())

    out: queue_module.Queue = queue_module.Queue()
    _SEND_STOP = object()

    def _writer() -> None:
        while True:
            item = out.get()
            if item is _SEND_STOP:
                return
            try:
                conn.send(item)
            except (OSError, ValueError, pickle.PicklingError):
                # An unpicklable payload must still resolve its request
                # front-side; a broken pipe means the front is gone and
                # nothing can be delivered anyway.
                if item and item[0] in ("result", "error"):
                    try:
                        conn.send((
                            "error",
                            item[1],
                            RuntimeError(
                                f"fleet worker {worker_id}: "
                                f"unpicklable {item[0]} payload"
                            ),
                        ))
                    except Exception:  # noqa: BLE001 - pipe is dead
                        pass

    writer = threading.Thread(
        target=_writer, name=f"repro-fleet-w{worker_id}-writer", daemon=True
    )
    writer.start()

    loop = asyncio.new_event_loop()
    loop_ready = threading.Event()

    def _loop_main() -> None:
        asyncio.set_event_loop(loop)
        loop_ready.set()
        loop.run_forever()

    loop_thread = threading.Thread(
        target=_loop_main, name=f"repro-fleet-w{worker_id}-loop", daemon=True
    )
    loop_thread.start()
    loop_ready.wait()

    service = GenerationService(config)
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result()
    except Exception as error:  # noqa: BLE001 - reported, then exit
        out.put(("fatal", worker_id, _safe_error(error)))
        out.put(_SEND_STOP)
        writer.join()
        return
    out.put(("ready", worker_id))

    serve_futures: "set[concurrent.futures.Future]" = set()

    async def _serve_one(request: GenerationRequest, session: "str | None"):
        request_id = request.request_id
        try:
            stream = await service.submit(request, session=session)
            async for chunk in stream.chunks():
                out.put(("chunk", request_id, chunk))
            batch = await stream.result()
            # The session store stays here: pickling it would make each
            # result grow with the session's length.
            out.put(("result", request_id, replace(batch, library=None)))
        except Exception as error:  # noqa: BLE001 - crosses the pipe
            out.put(("error", request_id, _safe_error(error)))

    def _rpc_result(verb: str, payload) -> object:
        if verb == "stats":
            return service.stats_payload()
        if verb == "health":
            return service.health()
        if verb == "drain":
            return asyncio.run_coroutine_threadsafe(
                service.drain(payload), loop
            ).result()
        if verb == "checkpoint":
            return len(service.sessions.checkpoint_all())
        raise ValueError(f"unknown fleet rpc verb {verb!r}")

    running = True
    while running:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # front vanished: fall through to shutdown
        kind = message[0]
        if kind == "submit":
            _, request, session = message
            try:
                # The fleet fault site: "kill" dies like a seg-faulted
                # worker (the crash path under test); "raise" fails just
                # this request.
                with protected():
                    action = maybe_fire("fleet")
                if action in ("kill", "crash"):
                    os._exit(_KILL_EXIT)
            except Exception as error:  # noqa: BLE001 - InjectedFault
                out.put(("error", request.request_id, _safe_error(error)))
                continue
            future = asyncio.run_coroutine_threadsafe(
                _serve_one(request, session), loop
            )
            serve_futures.add(future)
            future.add_done_callback(serve_futures.discard)
        elif kind == "cancel":
            service.cancel(message[1])
        elif kind == "rpc":
            _, seq, verb, payload = message
            try:
                result = _rpc_result(verb, payload)
            except Exception as error:  # noqa: BLE001 - crosses the pipe
                out.put(("rsp", seq, False, _safe_error(error)))
            else:
                out.put(("rsp", seq, True, result))
        elif kind == "stop":
            _, seq, checkpoint = message
            # Let in-flight request coroutines deliver their terminal
            # events before the loop goes away; stop() resolves their
            # streams, the futures then enqueue the events.  The reply
            # carries this worker's DRC verdicts for the front to keep.
            try:
                asyncio.run_coroutine_threadsafe(
                    service.stop(checkpoint=checkpoint), loop
                ).result()
                concurrent.futures.wait(list(serve_futures), timeout=10.0)
                out.put(("rsp", seq, True, snapshot_shared_caches()))
            except Exception as error:  # noqa: BLE001 - crosses the pipe
                out.put(("rsp", seq, False, _safe_error(error)))
            running = False
    # Orderly exit: events queued before the stop reply flush first.
    if service.running:
        try:
            asyncio.run_coroutine_threadsafe(
                service.stop(checkpoint=False), loop
            ).result(timeout=10.0)
        except Exception:  # noqa: BLE001 - best-effort on teardown
            pass
    loop.call_soon_threadsafe(loop.stop)
    loop_thread.join(timeout=5.0)
    out.put(_SEND_STOP)
    writer.join(timeout=5.0)
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Front side
# ----------------------------------------------------------------------
class _FleetPending:
    """One in-flight request's front-side bookkeeping."""

    __slots__ = ("arrival", "request", "session_id", "stream", "worker_id")

    def __init__(self, arrival, request, session_id, stream):
        self.arrival = arrival
        self.request = request
        self.session_id = session_id
        self.stream = stream
        self.worker_id: "int | None" = None


class _WorkerHandle:
    """Front-side state for one worker slot (survives respawns)."""

    def __init__(self, worker_id: int, breaker: CircuitBreaker):
        self.worker_id = worker_id
        self.breaker = breaker
        self.process = None
        self.conn = None
        self.reader: "threading.Thread | None" = None
        self.alive = False
        self.ready = threading.Event()
        self.respawns = 0
        self.routed = 0
        self.last_claimed = -1
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.inflight: "dict[str, _FleetPending]" = {}
        self.rpcs: "dict[int, concurrent.futures.Future]" = {}

    def send(self, message) -> None:
        """Serialised pipe send (router, cancel and RPC threads share it)."""
        with self.send_lock:
            self.conn.send(message)


class FleetService:
    """A multi-process front with the :class:`GenerationService` surface.

    See the module docstring for the architecture.  Construct with a
    :class:`FleetConfig`, then use exactly like a ``GenerationService``:
    ``await start()``, ``await submit(...)`` → :class:`ResultStream`,
    ``cancel``/``health``/``stats_payload``/``queue_depths`` from any
    thread, ``await drain(...)``/``await stop()`` to wind down.  The TCP
    server (:func:`repro.service.server.serve`) and
    :class:`~repro.service.ServiceClient` accept it unchanged.
    """

    def __init__(self, config: "FleetConfig | None" = None):
        self.config = config or FleetConfig()
        self.stats = FleetStats()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "FleetService needs the 'fork' start method (POSIX only); "
                "use a single-process GenerationService here"
            ) from None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._submit_lock: "asyncio.Lock | None" = None
        self._workers: "dict[int, _WorkerHandle]" = {}
        self._routes: "OrderedDict[tuple, int]" = OrderedDict()
        self._route_lock = threading.Lock()
        self._route_clock = 0
        self._route_queue: "queue_module.Queue | None" = None
        self._router: "threading.Thread | None" = None
        self._sequencer: "ArrivalSequencer | None" = None
        self._arrival = 0
        self._live: "dict[str, _FleetPending]" = {}
        self._live_lock = threading.Lock()
        self._cancelled: "set[str]" = set()
        self._stats_lock = threading.Lock()
        self._rpc_seq = itertools.count()
        self._running = False
        self._draining = False
        self._stopping = False

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> "FleetService":
        """Fork the workers, await readiness, start routing (idempotent)."""
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._submit_lock = asyncio.Lock()
        self._arrival = 0
        self._draining = False
        self._stopping = False
        self._sequencer = ArrivalSequencer()
        self._route_queue = queue_module.Queue(
            maxsize=self.config.service.queue_size
        )
        with self._live_lock:
            self._live.clear()
            self._cancelled.clear()
        for worker_id in range(self.config.workers):
            handle = _WorkerHandle(
                worker_id,
                CircuitBreaker(
                    self.config.breaker_threshold,
                    self.config.breaker_window_s,
                    self.config.breaker_cooldown_s,
                ),
            )
            self._workers[worker_id] = handle
            self._fork_worker(handle, respawn=False)
        self._running = True
        try:
            await self._loop.run_in_executor(None, self._await_ready)
        except Exception:
            await self.stop(checkpoint=False)
            raise
        self._router = threading.Thread(
            target=self._route_loop, name="repro-fleet-router", daemon=True
        )
        self._router.start()
        return self

    def _fork_worker(self, handle: _WorkerHandle, *, respawn: bool) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.worker_id,
                child_conn,
                _worker_config(self.config, handle.worker_id),
                respawn,
            ),
            name=f"repro-fleet-worker-{handle.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with handle.lock:
            handle.process = process
            handle.conn = parent_conn
            handle.alive = True
            handle.ready = threading.Event()
        reader = threading.Thread(
            target=self._read_loop,
            args=(handle, parent_conn, process),
            name=f"repro-fleet-reader-{handle.worker_id}",
            daemon=True,
        )
        handle.reader = reader
        reader.start()

    def _await_ready(self) -> None:
        for handle in self._workers.values():
            if not handle.ready.wait(timeout=120.0):
                raise RuntimeError(
                    f"fleet worker {handle.worker_id} failed to start"
                )

    async def stop(self, *, checkpoint: bool = True) -> None:
        """Stop routing, stop every worker, reconcile snapshots (idempotent).

        Workers run their own ``GenerationService.stop`` (in-flight
        micro-batches finish and commit; queued requests fail), take a
        final session checkpoint unless ``checkpoint=False``, and exit;
        the front then merges all per-worker session snapshots into the
        shared root so a restart — fleet or single-process — sees one
        consistent library per session.
        """
        if not self._running and not self._workers:
            return
        loop = asyncio.get_running_loop()
        self._running = False
        self._stopping = True
        if self._router is not None:
            self._route_queue.put(_ROUTE_STOP)
            await loop.run_in_executor(None, self._router.join)
            self._router = None
        await loop.run_in_executor(None, self._stop_workers, checkpoint)
        if checkpoint:
            self._reconcile()
        # Anything still unresolved (a worker died during stop) fails
        # now; the sequencer then force-publishes in arrival order.
        with self._live_lock:
            leftovers = list(self._live.values())
            self._live.clear()
            self._cancelled.clear()
        for pending in leftovers:
            self._resolve(
                pending, error=RuntimeError("fleet service stopped")
            )
        if self._sequencer is not None:
            self._sequencer.flush()
        self._workers.clear()
        with self._route_lock:
            self._routes.clear()
        self._stopping = False

    def _stop_workers(self, checkpoint: bool) -> None:
        pending: "list[tuple[_WorkerHandle, concurrent.futures.Future]]" = []
        for handle in self._workers.values():
            with handle.lock:
                alive = handle.alive
            if not alive:
                continue
            seq = next(self._rpc_seq)
            future: concurrent.futures.Future = concurrent.futures.Future()
            with handle.lock:
                handle.rpcs[seq] = future
            try:
                handle.send(("stop", seq, checkpoint))
            except (OSError, ValueError):
                with handle.lock:
                    handle.rpcs.pop(seq, None)
                continue
            pending.append((handle, future))
        for handle, future in pending:
            try:
                verdicts = future.result(timeout=self.config.rpc_timeout_s)
            except Exception:  # noqa: BLE001 - worker died mid-stop
                continue
            # Workers ran every DRC sweep: fold their verdicts into the
            # front's stores, which --drc-cache-dir saves.
            merge_shared_caches(verdicts)
        for handle in self._workers.values():
            process = handle.process
            if process is not None:
                process.join(timeout=self.config.rpc_timeout_s)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
            try:
                if handle.conn is not None:
                    handle.conn.close()
            except OSError:
                pass

    def _reconcile(self) -> None:
        root = self.config.service.sessions.snapshot_root
        if root is None:
            return
        try:
            merged = reconcile_worker_snapshots(root)
        except Exception:  # noqa: BLE001 - reconcile must not mask stop
            return
        with self._stats_lock:
            self.stats.reconciled_sessions += len(merged)

    async def __aenter__(self) -> "FleetService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- submission ------------------------------------------------------
    async def submit(
        self,
        request: GenerationRequest,
        *,
        session: "str | None" = None,
    ) -> ResultStream:
        """Queue a request for the fleet; returns its :class:`ResultStream`.

        Same contract as :meth:`GenerationService.submit`: awaits when
        the front routing queue is full (backpressure), refuses while
        draining or stopped, validates the session id on the submit
        path.  The arrival index assigned here is the global commit
        order — results publish in exactly this order fleet-wide.
        """
        if not self._running:
            raise RuntimeError("generation service is not running")
        if self._draining:
            raise RuntimeError(
                "generation service is draining (not accepting requests)"
            )
        if session is not None:
            SessionManager.validate_id(session)
        stream = ResultStream(request, self._loop)
        async with self._submit_lock:
            pending = _FleetPending(self._arrival, request, session, stream)
            self._arrival += 1
            with self._live_lock:
                self._live[request.request_id] = pending
            # Blocking put runs in the executor: backpressure without
            # stalling the event loop; the submit lock keeps routing-
            # queue order equal to arrival order.
            await self._loop.run_in_executor(
                None, self._route_queue.put, pending
            )
        with self._stats_lock:
            self.stats.submitted += 1
        return stream

    def cancel(self, request_id: str) -> bool:
        """Mark a live request cancelled; ``True`` when the mark took.

        Before routing, the router fails the request at dispatch; after
        routing, the mark is forwarded to the owning worker, whose
        service applies the usual stage-boundary cancellation.
        """
        with self._live_lock:
            pending = self._live.get(request_id)
            if pending is None or pending.stream.done:
                return False
            self._cancelled.add(request_id)
            worker_id = pending.worker_id
        if worker_id is not None:
            handle = self._workers.get(worker_id)
            if handle is not None:
                try:
                    handle.send(("cancel", request_id))
                except (OSError, ValueError):
                    pass  # dead worker: the death sweep fails it anyway
        return True

    # -- routing (router thread) ----------------------------------------
    def _routing_key(self, pending: _FleetPending) -> tuple:
        if pending.session_id is not None:
            return ("session", pending.session_id)
        return ("key",) + pending.request.compatibility_key()

    def _claim_worker(self, key: tuple) -> _WorkerHandle:
        """Sticky worker for ``key``; LRU claim on first sight.

        A known key goes back to its worker while that worker lives; an unknown (or orphaned)
        key claims the least-recently-claimed live worker.  The table is
        bounded (8 keys per worker), evicting least-recently-used keys —
        an evicted key that returns simply re-claims, which is safe
        because stickiness is a throughput property here, not a
        correctness one (sessions excepted, and live sessions are
        re-pinned before their table entry can be evicted by virtue of
        being re-used).
        """
        with self._route_lock:
            worker_id = self._routes.get(key)
            if worker_id is not None:
                handle = self._workers.get(worker_id)
                if handle is not None and handle.alive:
                    self._routes.move_to_end(key)
                    return handle
            live = [h for h in self._workers.values() if h.alive]
            if not live:
                raise RuntimeError("no live fleet workers")
            handle = min(live, key=lambda h: (h.last_claimed, h.worker_id))
            handle.last_claimed = self._route_clock
            self._route_clock += 1
            self._routes[key] = handle.worker_id
            self._routes.move_to_end(key)
            limit = 8 * max(1, len(self._workers))
            while len(self._routes) > limit:
                self._routes.popitem(last=False)
            return handle

    def _route_loop(self) -> None:
        while True:
            pending = self._route_queue.get()
            if pending is _ROUTE_STOP:
                return
            if self._stopping:
                self._resolve(
                    pending, error=RuntimeError("fleet service stopped")
                )
                continue
            with self._live_lock:
                cancelled = pending.request.request_id in self._cancelled
            if cancelled:
                self._resolve(
                    pending,
                    error=RequestCancelled(
                        f"request {pending.request.request_id} was cancelled"
                    ),
                )
                continue
            try:
                key = self._routing_key(pending)
            except Exception as error:  # noqa: BLE001 - poisoned request
                self._fail_unrouted(pending, error)
                continue
            routed = False
            for _ in range(max(1, len(self._workers))):
                try:
                    handle = self._claim_worker(key)
                except RuntimeError as error:
                    self._fail_unrouted(pending, error)
                    routed = True  # resolved (as a failure)
                    break
                with handle.lock:
                    if not handle.alive:
                        continue  # died since the claim: re-claim
                    handle.inflight[pending.request.request_id] = pending
                    pending.worker_id = handle.worker_id
                try:
                    handle.send(
                        ("submit", pending.request, pending.session_id)
                    )
                except (OSError, ValueError):
                    # Died between claim and send: pull the registration
                    # back (the death sweep may have missed it) and try
                    # another worker.
                    with handle.lock:
                        handle.inflight.pop(
                            pending.request.request_id, None
                        )
                    pending.worker_id = None
                    continue
                handle.routed += 1
                routed = True
                break
            if not routed:
                self._fail_unrouted(
                    pending, RuntimeError("no live fleet workers")
                )

    def _fail_unrouted(self, pending: _FleetPending, error: Exception) -> None:
        with self._stats_lock:
            self.stats.unroutable += 1
        self._resolve(pending, error=error)

    # -- worker events (reader threads) ---------------------------------
    def _read_loop(self, handle: _WorkerHandle, conn, process) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, TypeError, ValueError):
                # EOF/OSError: the worker died or the pipe tore.
                # TypeError/ValueError: the front closed this connection
                # out from under a blocked recv (shutdown race) — same
                # outcome, the worker is unreachable.
                break
            kind = message[0]
            if kind == "ready":
                handle.ready.set()
            elif kind == "chunk":
                _, request_id, chunk = message
                with handle.lock:
                    pending = handle.inflight.get(request_id)
                if pending is not None:
                    self._publish(
                        pending.stream, ResultStream._deliver_chunk, chunk
                    )
            elif kind == "result":
                self._terminal(handle, message[1], batch=message[2])
            elif kind == "error":
                self._terminal(handle, message[1], error=message[2])
            elif kind == "rsp":
                _, seq, ok, value = message
                with handle.lock:
                    future = handle.rpcs.pop(seq, None)
                if future is not None and not future.done():
                    if ok:
                        future.set_result(value)
                    else:
                        future.set_exception(value)
            elif kind == "fatal":
                handle.ready.set()  # unblock start(); death sweep follows
        self._worker_died(handle, conn, process)

    def _terminal(self, handle, request_id, *, batch=None, error=None) -> None:
        with handle.lock:
            pending = handle.inflight.pop(request_id, None)
        if pending is None:
            return
        self._resolve(pending, batch=batch, error=error)

    def _resolve(self, pending, *, batch=None, error=None) -> None:
        """Count + publish one terminal event, in arrival order.

        The single exactly-once funnel: every assigned arrival passes
        through here exactly once (worker event, unrouted failure,
        dead-worker sweep, or stop sweep) — duplicates are cut off by
        the live-registry pop.
        """
        with self._live_lock:
            live = self._live.pop(pending.request.request_id, None)
            self._cancelled.discard(pending.request.request_id)
        if live is None:
            return
        with self._stats_lock:
            if batch is not None:
                self.stats.completed += 1
            else:
                self.stats.failed += 1
                if isinstance(error, RequestCancelled):
                    self.stats.cancelled += 1
        if batch is not None:
            self._sequencer.release(
                pending.arrival,
                lambda: self._publish(
                    pending.stream, ResultStream._deliver_result, batch
                ),
            )
        else:
            self._sequencer.release(
                pending.arrival,
                lambda: self._publish(
                    pending.stream, ResultStream._deliver_error, error
                ),
            )

    def _publish(self, stream, deliver, payload) -> None:
        try:
            self._loop.call_soon_threadsafe(deliver.__get__(stream), payload)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _worker_died(self, handle: _WorkerHandle, conn, process) -> None:
        """EOF on a worker pipe: sweep, maybe respawn (reader thread)."""
        with handle.lock:
            if handle.conn is not conn:
                return  # a later respawn already owns this slot
            handle.alive = False
            swept = list(handle.inflight.values())
            handle.inflight.clear()
            rpcs = list(handle.rpcs.values())
            handle.rpcs.clear()
        expected = self._stopping or not self._running
        for future in rpcs:
            if not future.done():
                future.set_exception(
                    RuntimeError(f"fleet worker {handle.worker_id} died")
                )
        if expected:
            for pending in swept:
                self._resolve(
                    pending, error=RuntimeError("fleet service stopped")
                )
            return
        with self._stats_lock:
            self.stats.crashed_requests += len(swept)
        process.join(timeout=1.0)  # reap, so exitcode is real in the error
        for pending in swept:
            self._resolve(
                pending,
                error=RuntimeError(
                    f"fleet worker {handle.worker_id} died with "
                    f"{len(swept)} request(s) in flight "
                    f"(exitcode={process.exitcode})"
                ),
            )
        # Un-pin the dead worker's keys so they re-claim live workers.
        with self._route_lock:
            stale = [
                key for key, wid in self._routes.items()
                if wid == handle.worker_id
            ]
            for key in stale:
                del self._routes[key]
        handle.breaker.record_failure()
        # Gate on the state observed at death time (`expected` above),
        # not re-read state: resolving the swept requests unblocks their
        # clients, and a client that immediately closes the service must
        # not race the respawn decision out of existence.
        if (
            self.config.respawn
            and not self._draining
            and handle.breaker.allow()
        ):
            handle.respawns += 1
            with self._stats_lock:
                self.stats.respawns += 1
            # Fork from the reader thread is fine on Linux; the new
            # worker strips fleet-site fault specs so a kill schedule
            # cannot crash-loop the slot.
            self._fork_worker(handle, respawn=True)
            if self._stopping or not self._running:
                # stop() won the race while we forked: _stop_workers may
                # already have passed this slot, so reap the fresh
                # worker here instead of leaking it.
                with handle.lock:
                    handle.alive = False
                    process = handle.process
                process.terminate()
                process.join(timeout=5.0)

    # -- control plane ---------------------------------------------------
    def _rpc_start(self, handle: _WorkerHandle, verb: str, payload=None):
        seq = next(self._rpc_seq)
        future: concurrent.futures.Future = concurrent.futures.Future()
        with handle.lock:
            if not handle.alive:
                future.set_exception(
                    RuntimeError(f"fleet worker {handle.worker_id} is dead")
                )
                return future
            handle.rpcs[seq] = future
        try:
            handle.send(("rpc", seq, verb, payload))
        except (OSError, ValueError) as error:
            with handle.lock:
                handle.rpcs.pop(seq, None)
            if not future.done():
                future.set_exception(error)
        return future

    def _broadcast(self, verb: str, payload=None, *, timeout=None):
        """RPC every live worker; ``{worker_id: result | exception}``."""
        futures = {
            worker_id: self._rpc_start(handle, verb, payload)
            for worker_id, handle in self._workers.items()
            if handle.alive
        }
        results: "dict[int, object]" = {}
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.rpc_timeout_s
        )
        for worker_id, future in futures.items():
            remaining = max(0.05, deadline - time.monotonic())
            try:
                results[worker_id] = future.result(timeout=remaining)
            except Exception as error:  # noqa: BLE001 - per-worker verdict
                results[worker_id] = error
        return results

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Refuse new submissions; drain every worker; reconcile.

        The fleet half of graceful shutdown: stop accepting, wait for
        the front routing queue to empty, ask every worker to drain
        within the remaining budget, then checkpoint all workers and
        merge their session snapshots into the shared root — so the
        post-drain on-disk state is what a single-process service would
        have written.  Returns ``True`` when everything drained in time.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._drain_blocking, timeout)

    def _drain_blocking(self, timeout: "float | None") -> bool:
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while self._route_queue is not None and self._route_queue.qsize():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        remaining = (
            max(0.05, deadline - time.monotonic())
            if deadline is not None
            else None
        )
        results = self._broadcast(
            "drain",
            remaining,
            timeout=remaining if remaining is not None else None,
        )
        drained = all(result is True for result in results.values())
        self._broadcast("checkpoint")
        self._reconcile()
        return drained

    # -- observability ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting in the front routing queue."""
        return self._route_queue.qsize() if self._route_queue is not None else 0

    def queue_depths(self) -> dict:
        """Everything queued anywhere, now including the front.

        ``{"submit": N, "in_flight": M, "workers": {id: depth}}`` —
        ``submit`` is the front routing queue (the fleet's analogue of
        the single-process submit queue), ``in_flight`` every
        accepted-but-unresolved request fleet-wide, ``workers`` each
        live worker's forwarded-but-unresolved count.
        """
        workers = {}
        for worker_id, handle in self._workers.items():
            with handle.lock:
                if handle.alive:
                    workers[worker_id] = len(handle.inflight)
        with self._live_lock:
            in_flight = len(self._live)
        return {
            "submit": self.queue_depth,
            "in_flight": in_flight,
            "workers": workers,
        }

    def health(self) -> dict:
        """Fleet liveness: worker processes, breakers, recovery counters.

        ``status`` is ``"ok"`` (every slot live and reachable),
        ``"degraded"`` (a dead or unreachable slot, or an open respawn
        breaker) or ``"stopped"``.  Per-worker health payloads ride
        along under ``workers``; the single-process recovery counters
        (``retries``/``deadline_drops``/``cancelled``, snapshot load
        fallbacks) are summed fleet-wide so dashboards read one shape
        for both topologies.
        """
        per_worker = self._broadcast("health") if self._running else {}
        workers = []
        alive = 0
        degraded = False
        sums = {
            "retries": 0,
            "deadline_drops": 0,
            "cancelled": 0,
            "snapshot_load_fallbacks": 0,
        }
        for worker_id, handle in sorted(self._workers.items()):
            entry: dict = {
                "worker": worker_id,
                "alive": handle.alive,
                "respawns": handle.respawns,
                "breaker": {
                    "state": handle.breaker.state,
                    "trips": handle.breaker.trips,
                },
            }
            if handle.breaker.state == "open":
                degraded = True
            result = per_worker.get(worker_id)
            if isinstance(result, dict):
                entry["health"] = result
                for key in sums:
                    sums[key] += int(result.get(key, 0))
            elif result is not None:
                entry["health"] = {"status": "unreachable"}
                degraded = True
            if handle.alive:
                alive += 1
            else:
                degraded = True
            workers.append(entry)
        if not self._running:
            status = "stopped"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        with self._stats_lock:
            recovery = {
                "respawns": self.stats.respawns,
                "crashed_requests": self.stats.crashed_requests,
            }
        return {
            "status": status,
            "draining": self._draining,
            "worker_count": len(self._workers),
            "workers_alive": alive,
            "workers": workers,
            **recovery,
            **sums,
        }

    def stats_payload(self) -> dict:
        """The fleet-wide ``op: "stats"`` payload, same shape + a ``fleet``
        section.

        Counter fields sum across workers (front-side ``submitted``/
        ``completed``/``failed`` are authoritative — they include
        requests that never reached a worker), ``peak_coalesced`` takes
        the max, per-stage histograms merge through
        :meth:`~repro.service.stats.StageLatencies.merge_snapshot`, and
        each worker's full payload rides along under ``fleet.workers``
        for per-process drilldown.
        """
        per_worker = self._broadcast("stats") if self._running else {}
        payloads = {
            worker_id: result
            for worker_id, result in per_worker.items()
            if isinstance(result, dict)
        }
        summed = (
            "retries", "deadline_drops", "cancelled", "cycles",
            "micro_batches", "checkpoints", "packed_batches", "packed_jobs",
            "packed_fallbacks",
        )
        totals = {key: 0 for key in summed}
        peak = 0
        worker_queue_depth = 0
        stages = StageLatencies()
        for payload in payloads.values():
            for key in summed:
                totals[key] += int(payload.get(key, 0))
            peak = max(peak, int(payload.get("peak_coalesced", 0)))
            worker_queue_depth += int(payload.get("queue_depth", 0))
            stages.merge_snapshot(payload.get("stages", {}))
        from .faults import injection_stats

        with self._stats_lock:
            front = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "cancelled": self.stats.cancelled,
                "crashed_requests": self.stats.crashed_requests,
                "unroutable": self.stats.unroutable,
                "respawns": self.stats.respawns,
                "reconciled_sessions": self.stats.reconciled_sessions,
            }
        workers_section = []
        for worker_id, handle in sorted(self._workers.items()):
            entry: dict = {
                "worker": worker_id,
                "alive": handle.alive,
                "respawns": handle.respawns,
                "routed": handle.routed,
            }
            payload = payloads.get(worker_id)
            if payload is not None:
                entry["stats"] = payload
            workers_section.append(entry)
        return {
            "submitted": front["submitted"],
            "completed": front["completed"],
            "failed": front["failed"],
            **totals,
            "peak_coalesced": peak,
            # Front routing queue + every worker's submit queue: the
            # whole fleet's queued-anywhere gauge.
            "queue_depth": self.queue_depth + worker_queue_depth,
            "queue_depth_at_cycle": worker_queue_depth,
            "pack_fill": max(
                (float(p.get("pack_fill", 0.0)) for p in payloads.values()),
                default=0.0,
            ),
            # Front-process fault plan (workers report their own under
            # fleet.workers[*].stats) — kept for shape parity with the
            # single-process payload.
            "faults": injection_stats(),
            "stages": stages.snapshot(),
            "fleet": {
                "worker_count": len(self._workers),
                "workers_alive": sum(
                    1 for h in self._workers.values() if h.alive
                ),
                **{k: v for k, v in front.items() if k != "submitted"},
                "front_queue_depth": self.queue_depth,
                "sequencer_pending": (
                    self._sequencer.pending
                    if self._sequencer is not None
                    else 0
                ),
                "workers": workers_section,
            },
        }
