"""Multi-process shard-aware serving front: N worker processes, one wire.

One :class:`~repro.service.GenerationService` process runs one
micro-batch at a time on one compute thread.  :class:`FleetService` is
the one concurrency layer above that: it spawns ``workers`` child
*processes* (``fork`` start method), each running a full
``GenerationService``, and routes requests to them sticky-by-key:

* the routing key is the request's session id when it has one, else its
  :meth:`~repro.engine.GenerationRequest.compatibility_key`;
* a key's first request claims the least-recently-claimed live worker
  and the key stays pinned there.  A session's route is never evicted:
  its worker is the session's one owner until that worker dies, so one
  session's requests land on one worker in arrival order — exactly the
  property that makes a session's store deterministic in the
  single-process service, preserved across the process boundary.
  Compatibility-key routes live in a bounded LRU table (8 per worker),
  where stickiness only affects throughput;
* ``submit`` routes each request itself, under the lock that fixes
  arrival order, so a session's requests reach their owner worker in
  arrival order and that worker's commit stage admits them in that
  order.  Terminal events publish as soon as their worker delivers
  them, from that worker's reader thread; there is no cross-worker
  publish order, because no output depends on one.  Fleet outputs are
  bit-identical to a serial :func:`~repro.engine.run_generation` pass
  over the same submission order;
* ``submit`` awaits while ``workers × (queue_size + max(queue_size,
  max_batch_requests))`` requests are accepted and unresolved: what N
  single-process services hold before their own ``submit`` awaits.

The front speaks to each worker over a private :func:`multiprocessing
.Pipe` carrying Python objects (requests, batches, exceptions)
with full fidelity — no re-encoding — while the *public* surface stays
the :class:`GenerationService` one (``submit``/``cancel``/``health``/
``stats_payload``/``drain``/``stop``), so the line-JSON TCP server and
:class:`~repro.service.ServiceClient` work unchanged in front of a
fleet.

A session's store lives in its owner worker (results cross the pipe
with ``library=None``), and the owner checkpoints it straight into
``<snapshot_root>/<session>`` with the crash-safe generational
:func:`~repro.library.save_library`, exactly as the single-process
service does: one writer per session, so there is nothing to merge.
DRC verdicts stay in the worker that found them: each worker checks
through its own in-process shared stores, and nothing carries them
back to the front.

A worker crash (detected as EOF on its pipe) fails that worker's
in-flight requests with terminal error events and drops the dead
worker's routes: each of its sessions' next request makes a live worker
the new owner, which loads the session's last checkpoint.  The slot
respawns behind a :class:`~repro.engine.retry.CircuitBreaker`, so a
crash-looping worker degrades the fleet instead of fork-bombing the
host.  The ``fleet`` fault-injection site (``REPRO_FAULTS=fleet:kill@1``)
makes this path deterministically testable.

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

from ..engine import GenerationRequest
from ..engine.retry import CircuitBreaker
from .faults import maybe_fire, protected, reset_faults_for_worker
from .service import (
    Admissions,
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
]

#: A slot's respawn breaker: this many crashes within the window trip it
#: open for the cooldown, i.e. one respawn per crash burst rather than a
#: crash loop.
_RESPAWN_FAILURES = 2
_RESPAWN_WINDOW_S = 60.0
_RESPAWN_COOLDOWN_S = 30.0

#: Bound on one control-plane round trip (stats/health/stop).
_CONTROL_TIMEOUT_S = 60.0

#: Compatibility-key routes kept per worker (session routes are unbounded).
_KEY_ROUTES_PER_WORKER = 8

#: Exit code a worker uses for an injected ``fleet:kill`` crash.
_KILL_EXIT = 17


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (per-worker knobs live in ``service``).

    ``workers`` is the process count.  ``service`` is the
    :class:`~repro.service.ServiceConfig` every worker runs unchanged.
    ``respawn`` enables crash recovery: a dead worker slot is re-forked
    as long as its circuit breaker allows (one respawn per crash burst
    rather than a crash loop).
    """

    workers: int = 2
    service: ServiceConfig = field(default_factory=ServiceConfig)
    respawn: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")


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
    # request_id -> cancel mark, for each request sent here whose
    # service.submit has not returned yet: a cancel that overtakes the
    # registration is held here and applied once submit returns.  Only
    # the loop thread touches it.
    unregistered: "dict[str, bool]" = {}

    def _cancel(request_id: str) -> None:  # loop thread
        if not service.cancel(request_id) and request_id in unregistered:
            unregistered[request_id] = True

    async def _serve_one(request: GenerationRequest, session: "str | None"):
        request_id = request.request_id
        try:
            try:
                stream = await service.submit(request, session=session)
            finally:
                cancelled = unregistered.pop(request_id, False)
            if cancelled:
                service.cancel(request_id)
            batch = await stream.result()
            # The session store stays here: pickling it would make each
            # result grow with the session's length.
            out.put(("result", request_id, replace(batch, library=None)))
        except Exception as error:  # noqa: BLE001 - crosses the pipe
            out.put(("error", request_id, _safe_error(error)))

    def _rpc_result(verb: str) -> object:
        if verb == "stats":
            return service.stats_payload()
        if verb == "health":
            return service.health()
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
            # Ahead of the coroutine, so of any cancel for this id.
            loop.call_soon_threadsafe(
                unregistered.__setitem__, request.request_id, False
            )
            future = asyncio.run_coroutine_threadsafe(
                _serve_one(request, session), loop
            )
            serve_futures.add(future)
            future.add_done_callback(serve_futures.discard)
        elif kind == "cancel":
            # On the loop, behind this request's scheduled submit.
            loop.call_soon_threadsafe(_cancel, message[1])
        elif kind == "rpc":
            _, seq, verb = message
            try:
                result = _rpc_result(verb)
            except Exception as error:  # noqa: BLE001 - crosses the pipe
                out.put(("rsp", seq, False, _safe_error(error)))
            else:
                out.put(("rsp", seq, True, result))
        elif kind == "stop":
            _, seq, checkpoint = message
            # Let in-flight request coroutines deliver their terminal
            # events before the loop goes away; stop() resolves their
            # streams, the futures then enqueue the events.
            try:
                asyncio.run_coroutine_threadsafe(
                    service.stop(checkpoint=checkpoint), loop
                ).result()
                concurrent.futures.wait(list(serve_futures), timeout=10.0)
                out.put(("rsp", seq, True, None))
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
    """One in-flight request's front-side bookkeeping (an Admissions entry)."""

    __slots__ = ("request", "session_id", "stream", "worker_id", "cancelled")
    deadline_at = None  # the worker's service checks the deadline

    def __init__(self, request, session_id, stream):
        self.request = request
        self.session_id = session_id
        self.stream = stream
        self.worker_id: "int | None" = None
        self.cancelled = False


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
        """Serialised pipe send (routing, cancel and RPC callers share it)."""
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

    The front is a thin router: no thread or queue of its own between
    ``submit`` and the worker pipes.  Its one registry, the
    :class:`~repro.service.service.Admissions` ledger, holds every
    accepted-but-unresolved request; backpressure, drain and the stop
    sweep all read it.
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
        # Set (on the loop) whenever a request resolves or the fleet
        # stops: wakes a submit waiting for capacity.
        self._freed: "asyncio.Event | None" = None
        service = self.config.service
        self._capacity = self.config.workers * (
            service.queue_size
            + max(service.queue_size, service.scheduler.max_batch_requests)
        )
        self._workers: "dict[int, _WorkerHandle]" = {}
        self._session_routes: "dict[tuple, int]" = {}
        self._key_routes: "OrderedDict[tuple, int]" = OrderedDict()
        self._route_lock = threading.Lock()
        self._route_clock = 0
        self._admissions = Admissions()
        self._stats_lock = threading.Lock()
        self._rpc_seq = itertools.count()
        self._running = False

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> "FleetService":
        """Fork the workers and await their readiness (idempotent)."""
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._submit_lock = asyncio.Lock()
        self._freed = asyncio.Event()
        self._admissions.clear()
        for worker_id in range(self.config.workers):
            handle = _WorkerHandle(
                worker_id,
                CircuitBreaker(
                    _RESPAWN_FAILURES,
                    _RESPAWN_WINDOW_S,
                    _RESPAWN_COOLDOWN_S,
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
        return self

    def _fork_worker(self, handle: _WorkerHandle, *, respawn: bool) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.worker_id,
                child_conn,
                self.config.service,
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
        """Stop routing and stop every worker (idempotent).

        Submits still waiting for capacity fail with ``RuntimeError``.
        The submit lock is held while the workers stop, so no routing
        send races a worker's stop message.  Workers run their own
        ``GenerationService.stop`` (in-flight micro-batches finish and
        commit; queued requests fail), take a final checkpoint of the
        sessions they own unless ``checkpoint=False``, and exit.  Each
        session has one owner, so the shared snapshot root then holds
        one library per session, just as a single-process service
        leaves it.
        """
        if not self._running and not self._workers:
            return
        loop = asyncio.get_running_loop()
        self._running = False
        self._freed.set()
        async with self._submit_lock:
            await loop.run_in_executor(None, self._stop_workers, checkpoint)
        # Anything still unresolved (a worker died during stop) fails now.
        for pending in self._admissions.entries():
            self._resolve(
                pending, error=RuntimeError("fleet service stopped")
            )
        self._workers.clear()
        with self._route_lock:
            self._session_routes.clear()
            self._key_routes.clear()

    def _stop_workers(self, checkpoint: bool) -> None:
        pending: "list[concurrent.futures.Future]" = []
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
            pending.append(future)
        # A stop reply carries nothing: it says the worker's service has
        # stopped and its terminal events are queued ahead of the reply.
        for future in pending:
            try:
                future.result(timeout=_CONTROL_TIMEOUT_S)
            except Exception:  # noqa: BLE001 - worker died mid-stop
                pass  # the join below reaps it either way
        for handle in self._workers.values():
            process = handle.process
            if process is not None:
                process.join(timeout=_CONTROL_TIMEOUT_S)
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
        """Route a request to its worker; returns its :class:`ResultStream`.

        Same contract as :meth:`GenerationService.submit`: awaits while
        the fleet holds its capacity of accepted-but-unresolved requests
        (``workers × (queue_size + max(queue_size,
        max_batch_requests))``, what that many single-process services
        hold), refuses while draining or stopped, refuses a
        ``request_id`` that is still live with ``ValueError``, validates
        the session id on the submit path.  Routing runs here, in the
        executor, under the lock that fixes arrival order, so each
        worker receives its requests in arrival order.  A submit still
        waiting for capacity when the fleet stops raises
        ``RuntimeError``, and so does one when :meth:`drain` began.  A
        submit cancelled once its request was accepted cancels the
        request.
        """
        if not self._running:
            raise RuntimeError("generation service is not running")
        if session is not None:
            SessionManager.validate_id(session)
        stream = ResultStream(request, self._loop)
        pending = _FleetPending(request, session, stream)
        async with self._submit_lock:
            # Clear-then-wait on the loop thread cannot miss a wakeup:
            # _resolve sets the event with call_soon_threadsafe, which
            # runs only after this coroutine yields.
            while self._running and len(self._admissions) >= self._capacity:
                self._freed.clear()
                await self._freed.wait()
            if not self._running:
                raise RuntimeError("generation service is not running")
            self._admissions.register(pending)
            with self._stats_lock:
                self.stats.submitted += 1
            # The pipe send pickles the request and may block: it runs
            # in the executor, so the event loop keeps serving.  Shielded:
            # an unrun route job would leave the request live for good,
            # so a cancelled submit cancels its request instead.
            routed = self._loop.run_in_executor(None, self._route, pending)
            try:
                await asyncio.shield(routed)
            except asyncio.CancelledError:
                self.cancel(request.request_id)
                await routed  # hold the lock until it is off the front
                raise
        return stream

    def cancel(self, request_id: str) -> bool:
        """Mark a live request cancelled; ``True`` when the mark took,
        and then the request fails with :class:`RequestCancelled`
        unless a stage already past its last boundary completes it.

        Before routing, :meth:`_route` fails the request instead of
        sending it.  Once its submit is on the pipe, the mark is
        forwarded to the owning worker, whose service applies the usual
        stage-boundary cancellation (the worker holds a mark that
        arrives before its service registered the request).
        """
        pending = self._admissions.cancel(request_id)
        if pending is None:
            return False
        # Read after the mark: _route sets worker_id under the ledger
        # lock and forwards a mark it finds there, so one side forwards.
        if pending.worker_id is not None:
            self._forward_cancel(pending.worker_id, request_id)
        return True

    def _forward_cancel(self, worker_id: int, request_id: str) -> None:
        handle = self._workers.get(worker_id)
        if handle is not None:
            try:
                handle.send(("cancel", request_id))
            except (OSError, ValueError):
                pass  # dead worker: the death sweep fails it anyway

    # -- routing (submit's executor hop) --------------------------------
    def _routing_key(self, pending: _FleetPending) -> tuple:
        if pending.session_id is not None:
            return ("session", pending.session_id)
        return ("key",) + pending.request.compatibility_key()

    def _claim_worker(self, key: tuple) -> _WorkerHandle:
        """Sticky worker for ``key``; LRU claim on first sight.

        A known route goes back to its worker while that worker lives;
        an unknown one claims the least-recently-claimed live worker.
        A session route is never evicted: its
        worker owns the session's store until the worker dies (see
        :meth:`_worker_died`), so the session never lands on a second
        live worker.  Compatibility-key routes are bounded (8 per
        worker) and evict least-recently-used first; an evicted key
        that returns simply re-claims, because for them stickiness is a
        throughput property, not a correctness one.
        """
        session = key[0] == "session"
        routes = self._session_routes if session else self._key_routes
        with self._route_lock:
            worker_id = routes.get(key)
            if worker_id is not None:
                handle = self._workers.get(worker_id)
                if handle is not None and handle.alive:
                    if not session:
                        routes.move_to_end(key)
                    return handle
            live = [h for h in self._workers.values() if h.alive]
            if not live:
                raise RuntimeError("no live fleet workers")
            handle = min(live, key=lambda h: (h.last_claimed, h.worker_id))
            handle.last_claimed = self._route_clock
            self._route_clock += 1
            routes[key] = handle.worker_id
            if not session:
                routes.move_to_end(key)
                limit = _KEY_ROUTES_PER_WORKER * len(self._workers)
                while len(routes) > limit:
                    routes.popitem(last=False)
            return handle

    def _route(self, pending: _FleetPending) -> None:
        """Send one accepted request to its sticky worker, or fail it."""
        request_id = pending.request.request_id
        error = Admissions.boundary_error(pending)
        if error is not None:
            self._resolve(pending, error=error)
            return
        try:
            key = self._routing_key(pending)
        except Exception as error:  # noqa: BLE001 - poisoned request
            self._fail_unrouted(pending, error)
            return
        for _ in range(max(1, len(self._workers))):
            try:
                handle = self._claim_worker(key)
            except RuntimeError as error:
                self._fail_unrouted(pending, error)
                return
            with handle.lock:
                if not handle.alive:
                    continue  # died since the claim: re-claim
                handle.inflight[request_id] = pending
            try:
                handle.send(("submit", pending.request, pending.session_id))
            except (OSError, ValueError):
                # Died between claim and send: pull the registration back
                # (the death sweep may have missed it) and try another
                # worker.
                with handle.lock:
                    handle.inflight.pop(request_id, None)
                continue
            handle.routed += 1
            # Only now may cancel() forward a mark: a forwarded cancel
            # must follow the submit on the pipe.  One that landed since
            # the check above is forwarded here.
            with self._admissions.lock:
                pending.worker_id = handle.worker_id
                cancelled = pending.cancelled
            if cancelled:
                self._forward_cancel(handle.worker_id, request_id)
            return
        self._fail_unrouted(pending, RuntimeError("no live fleet workers"))

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
        """Count + publish one terminal event, now.

        The single exactly-once funnel: every accepted request passes
        through here exactly once (worker event, unrouted failure,
        dead-worker sweep, or stop sweep) — duplicates are cut off by
        the ledger's release.
        """
        if not self._admissions.release(pending):
            return
        with self._stats_lock:
            if batch is not None:
                self.stats.completed += 1
            else:
                self.stats.failed += 1
                if isinstance(error, RequestCancelled):
                    self.stats.cancelled += 1
        if batch is not None:
            self._publish(ResultStream._deliver_result, pending.stream, batch)
        else:
            self._publish(ResultStream._deliver_error, pending.stream, error)
        self._publish(self._freed.set)

    def _publish(self, callback, *args) -> None:
        """Run ``callback(*args)`` on the event loop (any thread)."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
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
        expected = not self._running
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
        # Un-pin the dead worker's routes so they re-claim live workers:
        # each of its sessions gets a new owner, which loads the
        # session's last checkpoint on first use.
        with self._route_lock:
            for routes in (self._session_routes, self._key_routes):
                stale = [
                    key for key, wid in routes.items()
                    if wid == handle.worker_id
                ]
                for key in stale:
                    del routes[key]
        handle.breaker.record_failure()
        # Gate on the state observed at death time (`expected` above),
        # not re-read state: resolving the swept requests unblocks their
        # clients, and a client that immediately closes the service must
        # not race the respawn decision out of existence.
        if (
            self.config.respawn
            and not self._admissions.draining
            and handle.breaker.allow()
        ):
            handle.respawns += 1
            with self._stats_lock:
                self.stats.respawns += 1
            # Fork from the reader thread is fine on Linux; the new
            # worker strips fleet-site fault specs so a kill schedule
            # cannot crash-loop the slot.
            self._fork_worker(handle, respawn=True)
            if not self._running:
                # stop() won the race while we forked: _stop_workers may
                # already have passed this slot, so reap the fresh
                # worker here instead of leaking it.
                with handle.lock:
                    handle.alive = False
                    process = handle.process
                process.terminate()
                process.join(timeout=5.0)

    # -- control plane ---------------------------------------------------
    def _rpc_start(self, handle: _WorkerHandle, verb: str):
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
            handle.send(("rpc", seq, verb))
        except (OSError, ValueError) as error:
            with handle.lock:
                handle.rpcs.pop(seq, None)
            if not future.done():
                future.set_exception(error)
        return future

    def _broadcast(self, verb: str) -> dict:
        """RPC every live worker; ``{worker_id: result | exception}``."""
        futures = {
            worker_id: self._rpc_start(handle, verb)
            for worker_id, handle in self._workers.items()
            if handle.alive
        }
        results: "dict[int, object]" = {}
        deadline = time.monotonic() + _CONTROL_TIMEOUT_S
        for worker_id, future in futures.items():
            remaining = max(0.05, deadline - time.monotonic())
            try:
                results[worker_id] = future.result(timeout=remaining)
            except Exception as error:  # noqa: BLE001 - per-worker verdict
                results[worker_id] = error
        return results

    async def drain(self, timeout: "float | None" = None) -> bool:
        """Same contract as :meth:`GenerationService.drain`: refuse new
        submissions and wait until every accepted request has resolved.
        Sessions checkpoint in :meth:`stop`, as in one process.
        """
        return await self._admissions.drain(timeout)

    # -- observability ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Accepted requests not yet routed to a worker."""
        routed = 0
        for handle in self._workers.values():
            with handle.lock:
                routed += len(handle.inflight)
        return max(0, len(self._admissions) - routed)

    def queue_depths(self) -> dict:
        """Everything queued anywhere, now including the front.

        ``{"submit": N, "in_flight": M, "workers": {id: depth}}`` —
        ``submit`` counts accepted requests not yet routed to a worker,
        ``in_flight`` every
        accepted-but-unresolved request fleet-wide, ``workers`` each
        live worker's forwarded-but-unresolved count.
        """
        workers = {}
        for worker_id, handle in self._workers.items():
            with handle.lock:
                if handle.alive:
                    workers[worker_id] = len(handle.inflight)
        return {
            "submit": self.queue_depth,
            "in_flight": len(self._admissions),
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
            "draining": self._admissions.draining,
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
            # Unrouted front requests + every worker's submit queue:
            # the whole fleet's queued-anywhere gauge.
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
                "workers": workers_section,
            },
        }
