"""Clients for the generation service: in-process and over the wire.

:class:`ServiceClient` runs a :class:`~repro.service.GenerationService`
on a private event loop in a background thread and exposes a blocking
API, so synchronous code — tests, benchmarks, notebooks — can exercise
the full queue/scheduler/streaming path without writing any asyncio:

    with ServiceClient(ServiceConfig(queue_size=16)) as client:
        batch = client.generate(GenerationRequest(backend="rule", count=20))
        batches = client.generate_many(requests)        # concurrent
        ticket = client.submit(request)                 # streaming
        for chunk in ticket.chunks():
            ...
        final = ticket.result()

``generate_many`` submits every request before waiting on any result,
which is what lets the service's gather window coalesce them into
micro-batches — the in-process equivalent of N concurrent clients.

:class:`RemoteClient` is the over-the-wire counterpart: a blocking
socket client for the TCP line-JSON protocol that requests clip
payloads and — with ``decode_clips=True`` — reassembles the paged
``payload_page`` frames back into numpy arrays bit-identical to what a
serial ``run_generation`` of the same request would produce.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import socket
import threading
from typing import Any, Iterator, Sequence

from ..engine import CandidateBatch, GenerationBatch, GenerationRequest
from .payload import PayloadAssembler
from .service import GenerationService, ResultStream, ServiceConfig

__all__ = ["ClientTicket", "RemoteClient", "ServiceClient"]


class ClientTicket:
    """Blocking view of one request's :class:`ResultStream`."""

    def __init__(
        self,
        stream: ResultStream,
        loop: asyncio.AbstractEventLoop,
        service: GenerationService | None = None,
    ):
        self._stream = stream
        self._loop = loop
        self._service = service

    @property
    def request_id(self) -> str:
        return self._stream.request_id

    def cancel(self) -> bool:
        """Ask the service to cancel this request at its next boundary."""
        if self._service is None:
            return False
        return self._service.cancel(self.request_id)

    def chunks(self) -> Iterator[CandidateBatch]:
        """Iterate streamed chunks, blocking until each arrives."""
        while True:
            if self._loop.is_closed():
                # Client closed mid-stream: deliveries have stopped, so
                # drain what already arrived and end the iteration.
                while (chunk := self._stream.next_chunk_now()) is not None:
                    yield chunk
                return
            chunk = asyncio.run_coroutine_threadsafe(
                self._stream.next_chunk(), self._loop
            ).result()
            if chunk is None:
                return
            yield chunk

    def result(self, timeout: float | None = None) -> GenerationBatch:
        """Block for the final batch (raises if the request failed).

        A resolved stream (also after close) answers at once, without
        the event-loop thread, so no ``timeout`` can expire on it.

        On ``timeout`` the waiting coroutine is cancelled *and* a
        service-side cancellation of the request is requested, so a
        caller that gave up does not leave the request burning compute
        time (and the abandoned awaiter does not leak on the loop).
        Cancellation lands at the request's next stage boundary: a
        request that already passed its last boundary when the timeout
        fired still commits normally service-side (its results are
        admitted to the session), even though this call raised —
        ``timeout`` bounds the *wait*, it is not a guarantee the
        request died.
        """
        if self._stream.done or self._loop.is_closed():
            return self._stream.result_now()
        future = asyncio.run_coroutine_threadsafe(
            self._stream.result(), self._loop
        )
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            # Since 3.11 this alias IS the builtin TimeoutError, so a
            # request that *failed* with a timeout-flavoured error (e.g.
            # DeadlineExceeded) lands here too — when the future is done
            # it carried the request's own error: let it propagate.
            if future.done():
                raise
            future.cancel()
            self.cancel()
            raise TimeoutError(
                f"request {self.request_id} did not finish within "
                f"{timeout:g}s (cancellation requested)"
            ) from None


class ServiceClient:
    """Drives a service on a background event-loop thread (context manager)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        service: GenerationService | None = None,
        workers: int | None = None,
    ):
        """``workers`` (when 2+) fronts a multi-process
        :class:`~repro.service.fleet.FleetService` instead of one
        in-process service — same blocking API, N worker processes.
        ``workers=1`` is explicitly the single-process service (the
        fleet bench's baseline arm).  Mutually exclusive with passing a
        prebuilt ``service``.
        """
        if service is not None and workers is not None:
            raise ValueError("pass either 'service' or 'workers', not both")
        if service is None and workers is not None and workers >= 2:
            from .fleet import FleetConfig, FleetService

            service = FleetService(
                FleetConfig(workers=workers, service=config or ServiceConfig())
            )
        self._service = service or GenerationService(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def service(self) -> GenerationService:
        return self._service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceClient":
        """Spin up the loop thread and start the service (idempotent)."""
        if self._loop is not None:
            return self
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(loop)
            started.set()
            loop.run_forever()

        thread = threading.Thread(
            target=runner, name="repro-service-loop", daemon=True
        )
        thread.start()
        started.wait()
        self._loop, self._thread = loop, thread
        asyncio.run_coroutine_threadsafe(self._service.start(), loop).result()
        return self

    def close(self, *, checkpoint: bool = True) -> None:
        """Stop the service and tear the loop thread down (idempotent)."""
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._service.stop(checkpoint=checkpoint), loop
        ).result()
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join()
        loop.close()

    def __enter__(self) -> "ServiceClient":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def submit(
        self, request: GenerationRequest, *, session: str | None = None
    ) -> ClientTicket:
        """Queue a request; returns a blocking ticket (chunks + result)."""
        if self._loop is None:
            raise RuntimeError("client is not started (use 'with' or start())")
        stream = asyncio.run_coroutine_threadsafe(
            self._service.submit(request, session=session), self._loop
        ).result()
        return ClientTicket(stream, self._loop, self._service)

    def generate(
        self,
        request: GenerationRequest,
        *,
        session: str | None = None,
        timeout: float | None = None,
    ) -> GenerationBatch:
        """Submit one request and block for its final batch."""
        return self.submit(request, session=session).result(timeout)

    def generate_many(
        self,
        requests: Sequence[GenerationRequest],
        *,
        session: str | None = None,
        timeout: float | None = None,
    ) -> list[GenerationBatch]:
        """Submit every request, then gather all results.

        Submission happens in sequence order (that order is the service's
        arrival order, hence the session-merge order); execution overlaps
        through the service's micro-batching.
        """
        tickets = [
            self.submit(request, session=session) for request in requests
        ]
        return [ticket.result(timeout) for ticket in tickets]


class RemoteClient:
    """Blocking TCP client for the line-JSON wire protocol.

    Speaks to a ``repro serve`` front (single service or fleet) over a
    plain socket — the out-of-process counterpart of
    :class:`ServiceClient`.  With ``decode_clips=True`` (the default),
    generate results that requested a payload come back with a
    ``"clips"`` key holding decoded numpy arrays — reassembled from the
    paged ``payload_page`` frames and bit-identical to a serial
    ``run_generation`` of the same request — plus the server's
    ``legal_mask``.  With ``decode_clips=False`` the raw payload frames
    are dropped and only accounting is returned.

        with RemoteClient(host, port) as client:
            result = client.generate(
                {"backend": "rule", "count": 8, "seed": 3, "payload": "npz"}
            )
            clips = result["clips"]           # list of numpy arrays

    ``generate_many`` pipelines every request on one connection before
    reading any result, so the server's gather window can coalesce them
    exactly like N concurrent clients.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8157,
        *,
        timeout: float = 120.0,
        decode_clips: bool = True,
    ):
        self._address = (host, port)
        self._timeout = timeout
        self._decode = decode_clips
        self._sock: socket.socket | None = None
        self._file = None
        #: Total payload-bearing bytes read off the wire (benchmarking).
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "RemoteClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                self._address, timeout=self._timeout
            )
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        sock, self._sock = self._sock, None
        file, self._file = self._file, None
        if file is not None:
            file.close()
        if sock is not None:
            sock.close()

    def __enter__(self) -> "RemoteClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------
    def send(self, message: dict) -> None:
        if self._sock is None:
            raise RuntimeError("client is not connected (use 'with' or connect())")
        self._sock.sendall(json.dumps(message).encode() + b"\n")

    def recv(self) -> dict:
        """Read one event frame (raises ``ConnectionError`` on EOF)."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        self.bytes_read += len(line)
        event = json.loads(line)
        if not isinstance(event, dict):
            raise ValueError("server sent a non-object frame")
        return event

    def _roundtrip(self, message: dict, expect: str) -> dict:
        self.send(message)
        event = self.recv()
        if event.get("event") == "error" and expect != "error":
            raise RuntimeError(event.get("message", "server error"))
        if event.get("event") != expect:
            raise RuntimeError(f"expected {expect!r} event, got {event!r}")
        return event

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def ping(self) -> None:
        self._roundtrip({"op": "ping"}, "pong")

    def stats(self) -> dict:
        return self._roundtrip({"op": "stats"}, "stats")

    def health(self) -> dict:
        return self._roundtrip({"op": "health"}, "health")

    def cancel(self, request_id: str) -> bool:
        event = self._roundtrip(
            {"op": "cancel", "request_id": request_id}, "cancelled"
        )
        return bool(event.get("cancelled"))

    def generate(self, message: dict) -> dict:
        """Submit one generate request and block for its result event.

        Returns the result event dict; when the request asked for a
        payload and ``decode_clips`` is on, ``"clips"`` (decoded numpy
        arrays) is attached once the payload frames reassemble.  A
        server-side failure raises ``RuntimeError`` with the error
        event's message.
        """
        return self.generate_many([message])[0]

    def generate_many(self, messages: "Sequence[dict]") -> "list[dict]":
        """Pipeline several generate requests on this one connection."""
        ids: list[str] = []
        for message in messages:
            event = self._roundtrip(message, "accepted")
            ids.append(event["request_id"])
        assembler = PayloadAssembler()
        results: dict[str, dict] = {}
        errors: dict[str, str] = {}
        chunks: dict[str, list[Any]] = {rid: [] for rid in ids}
        # A request is outstanding until its terminal event has fully
        # arrived: the result (or error) frame *and*, when the result
        # announced a payload, that payload's ``payload_done`` frame —
        # which trails the result event on the wire.
        outstanding = set(ids)
        while outstanding:
            event = self.recv()
            name = event.get("event")
            rid = event.get("request_id")
            if name == "error":
                errors[rid or "?"] = event.get("message", "server error")
                outstanding.discard(rid)
                continue
            if name == "result":
                results[rid] = event
                if "payload" not in event:
                    outstanding.discard(rid)
            if self._decode:
                done = assembler.feed(event)
                if done is not None:
                    if done.kind == "result":
                        results[done.request_id]["clips"] = done.arrays
                    else:
                        chunks[done.request_id].append(done.arrays)
            if name == "payload_done" and event.get("for") == "result":
                outstanding.discard(rid)
        out: list[dict] = []
        for rid in ids:
            if rid in errors:
                raise RuntimeError(errors[rid])
            result = results[rid]
            if self._decode and chunks.get(rid):
                result["chunk_arrays"] = chunks[rid]
            out.append(result)
        return out
