"""Newline-delimited-JSON TCP front end for the generation service.

``repro serve`` exposes :class:`~repro.service.GenerationService` over a
plain socket using only the standard library (asyncio streams — no web
framework).  One JSON object per line in, one JSON event per line out:

request::

    {"backend": "rule", "count": 8, "seed": 3}
    {"backend": "rule", "count": 8, "deck": "basic", "session": "tenant-a",
     "priority": 5, "deadline_s": 2.5, "payload": "npz", "params": {...}}
    {"op": "ping"}          {"op": "stats"}        {"op": "health"}
    {"op": "cancel", "request_id": "..."}

events (all carry ``request_id`` when tied to a request)::

    {"event": "accepted", "request_id": "..."}
    {"event": "chunk",    "request_id": "...", "chunk": 0, "proposed": 8}
    {"event": "result",   "request_id": "...", "attempts": 8, "legal": 7,
     "admitted": 5, "library_size": 5, "seconds": 0.41}
    {"event": "cancelled", "request_id": "...", "cancelled": true}
    {"event": "error",    "message": "..."}

A connection may pipeline: every request line spawns a forwarder task, so
several requests stream back interleaved (demultiplex on ``request_id``).

Clip delivery is opt-in per request: ``"payload": "b64"`` or ``"npz"``
(default ``"none"``) makes chunk and result events carry the generated
arrays as base64 text with dtype/shape metadata — see
:mod:`repro.service.payload`.  A payload larger than the connection's
line limit is *paged*: the parent event carries the metadata and page
count, then ``payload_page`` frames stream the base64 text in slices and
``payload_done`` terminates the sequence, so one oversized result can
never wedge the connection.  Result events additionally carry
``legal_mask`` (the per-clip DRC verdict) when a payload was requested.

Failure semantics (see ``docs/SERVING.md``):

* malformed frames — invalid JSON, a non-object line, a non-string
  ``op``, an unknown op, a bad ``payload`` mode — get a structured
  ``error`` event and the connection stays up;
* a line longer than the stream limit (``serve(..., limit=...)``) gets
  one ``error`` event and then the connection closes — the reader's
  buffer is unrecoverable mid-line;
* when the client disconnects, every request it submitted that has not
  finished is cancelled (:meth:`GenerationService.cancel`), so an
  abandoned connection cannot keep burning compute.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import AsyncIterator

from ..engine import GenerationRequest
from .payload import PAYLOAD_MODES, encode_payload, payload_frames
from .service import GenerationService, ResultStream

__all__ = [
    "serve",
    "handle_connection",
    "stream_events",
    "DEFAULT_LINE_LIMIT",
]

#: Default per-line byte limit for the TCP front end.  Payloads larger
#: than one line are paged (``payload_page`` frames), so the limit caps
#: buffering per frame, not result size.
DEFAULT_LINE_LIMIT = 256 * 1024

#: Client-supplied request ids must be wire-safe and bounded.
_REQUEST_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")


def _payload_mode(message: dict) -> str:
    """Validate the optional ``payload`` field of a generate request."""
    mode = message.get("payload", "none")
    if not isinstance(mode, str) or mode not in PAYLOAD_MODES:
        raise ValueError(
            "'payload' must be one of "
            + "|".join(repr(m) for m in PAYLOAD_MODES)
        )
    return mode


def _request_from_message(message: dict, default_deck: str | None) -> GenerationRequest:
    """Build a validated request from one decoded JSON line."""
    if "backend" not in message:
        raise ValueError("request needs a 'backend' field")
    if "count" not in message:
        raise ValueError("request needs a 'count' field")
    deck = None
    deck_name = message.get("deck", default_deck)
    if deck_name is not None:
        from ..drc.decks import deck_by_name
        from ..zoo.corpora import EXPERIMENT_GRID

        deck = deck_by_name(str(deck_name), EXPERIMENT_GRID)
    deadline_s = message.get("deadline_s")
    if deadline_s is not None:
        deadline_s = float(deadline_s)
    request_id = message.get("request_id", "")
    if request_id:
        if not isinstance(request_id, str) or not _REQUEST_ID_RE.fullmatch(
            request_id
        ):
            raise ValueError(
                "'request_id' must be 1-64 characters of [A-Za-z0-9_-]"
            )
    return GenerationRequest(
        backend=message["backend"],
        count=message["count"],
        seed=int(message.get("seed", 0)),
        deck=deck,
        params=message.get("params", {}),
        priority=int(message.get("priority", 0)),
        request_id=request_id or "",
        deadline_s=deadline_s,
    )


def _result_fields(batch, *, with_payload: bool) -> dict:
    """A finished request's accounting fields, in wire order.

    Shared by the TCP ``result`` event and the HTTP poll response;
    ``legal_mask`` rides along only when a clip payload was requested.
    """
    fields = {
        "attempts": batch.attempts,
        "legal": batch.legal_count,
        "admitted": batch.admitted,
        "library_size": batch.library_size,
        "seconds": round(batch.timings.total_seconds, 4),
    }
    if with_payload:
        fields["legal_mask"] = [int(v) for v in batch.legal]
    return fields


async def stream_events(
    stream: ResultStream,
    *,
    payload: str = "none",
    limit: int = DEFAULT_LINE_LIMIT,
) -> "AsyncIterator[dict]":
    """Yield one request's wire events (shared by TCP and HTTP fronts).

    Chunk events first (with paged payload frames interleaved when a
    payload mode is on), then the result event and its payload frames.
    Errors are *not* caught here: the caller owns the terminal ``error``
    event so each front keeps its own disconnect/cancel semantics.
    """
    request_id = stream.request_id
    index = 0
    async for chunk in stream.chunks():
        event = {
            "event": "chunk",
            "request_id": request_id,
            "chunk": index,
            "proposed": len(chunk.raws),
        }
        if payload != "none":
            meta, data = encode_payload(chunk.raws, payload)
            field, frames = payload_frames(
                request_id, "chunk", meta, data, limit=limit, chunk=index
            )
            event["payload"] = field
            yield event
            for frame in frames:
                yield frame
        else:
            yield event
        index += 1
    batch = await stream.result()
    event = {
        "event": "result",
        "request_id": request_id,
        **_result_fields(batch, with_payload=payload != "none"),
    }
    if payload != "none":
        meta, data = encode_payload(batch.clips, payload)
        field, frames = payload_frames(
            request_id, "result", meta, data, limit=limit
        )
        event["payload"] = field
        yield event
        for frame in frames:
            yield frame
    else:
        yield event


async def _forward(
    stream: ResultStream,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
    service: "GenerationService | None" = None,
    *,
    payload: str = "none",
    limit: int = DEFAULT_LINE_LIMIT,
) -> None:
    """Relay one request's chunks and final result onto the wire."""

    async def emit(event: dict) -> None:
        async with write_lock:
            writer.write(json.dumps(event).encode() + b"\n")
            await writer.drain()

    try:
        async for event in stream_events(stream, payload=payload, limit=limit):
            await emit(event)
    except (ConnectionError, asyncio.CancelledError):
        # The client vanished mid-stream (possibly mid-payload-paging):
        # stop the request's remaining work instead of computing results
        # nobody will read.  ``cancel`` is a no-op once the stream
        # resolved, so a disconnect after the terminal event never
        # double-counts.
        if service is not None and not stream.done:
            service.cancel(stream.request_id)
        raise
    except Exception as error:  # noqa: BLE001 - reported on the wire
        try:
            await emit({
                "event": "error",
                "request_id": stream.request_id,
                "message": str(error),
            })
        except ConnectionError:
            pass


async def handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: GenerationService,
    *,
    default_deck: str | None = None,
    limit: int = DEFAULT_LINE_LIMIT,
) -> None:
    """Serve one client connection until EOF.

    Malformed frames (bad JSON, non-object lines, non-string or unknown
    ops, invalid request fields) are answered with a structured ``error``
    event; the connection — and the accept loop — survive them.  The one
    exception is an oversized line (beyond the stream's byte limit):
    after reporting it the connection closes, because the reader's
    buffer can no longer be resynchronised to line boundaries.  On
    disconnect, all of the connection's unfinished requests are
    cancelled — exactly once each: the cancel mark is idempotent and a
    request resolves through the commit stage's single terminal event
    regardless of how many sweeps requested the cancellation.

    ``limit`` sizes outbound payload pages; it should match the byte
    limit the connection's reader was created with (``serve`` wires the
    two together).
    """
    write_lock = asyncio.Lock()
    forwarders: set[asyncio.Task] = set()
    # Streams whose forwarder has not finished yet: an entry leaves when
    # its forwarder does, so a long-lived connection holds no results.
    unfinished: set[ResultStream] = set()

    async def emit(payload: dict) -> None:
        async with write_lock:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()

    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Line exceeded the stream limit: the buffer now holds a
                # partial line we cannot re-frame.  Report and hang up.
                try:
                    await emit({
                        "event": "error",
                        "message": "line too long (exceeds server limit)",
                    })
                except ConnectionError:
                    pass
                break
            if not line:
                break
            text = line.strip()
            if not text:
                continue
            try:
                message = json.loads(text)
                if not isinstance(message, dict):
                    raise ValueError("expected a JSON object per line")
                op = message.get("op")
                if op is not None and not isinstance(op, str):
                    raise ValueError("'op' must be a string")
                if op == "ping":
                    await emit({"event": "pong"})
                    continue
                if op == "cancel":
                    request_id = message.get("request_id")
                    if not isinstance(request_id, str) or not request_id:
                        raise ValueError(
                            "'cancel' needs a string 'request_id'"
                        )
                    await emit({
                        "event": "cancelled",
                        "request_id": request_id,
                        "cancelled": service.cancel(request_id),
                    })
                    continue
                if op == "health":
                    await emit({"event": "health", **service.health()})
                    continue
                if op == "stats":
                    # The payload shape lives on the service itself: a
                    # plain GenerationService reports its own counters
                    # and histograms, a FleetService aggregates all of
                    # its worker processes' payloads into one.
                    await emit({"event": "stats", **service.stats_payload()})
                    continue
                if op is not None:
                    raise ValueError(f"unknown op {op!r}")
                payload_mode = _payload_mode(message)
                request = _request_from_message(message, default_deck)
                stream = await service.submit(
                    request, session=message.get("session")
                )
            except (
                ValueError,
                TypeError,
                KeyError,
                RuntimeError,  # service draining / not running
                json.JSONDecodeError,
            ) as error:
                await emit({"event": "error", "message": str(error)})
                continue
            unfinished.add(stream)
            await emit({"event": "accepted", "request_id": stream.request_id})
            task = asyncio.ensure_future(
                _forward(
                    stream,
                    writer,
                    write_lock,
                    service,
                    payload=payload_mode,
                    limit=limit,
                )
            )
            forwarders.add(task)
            task.add_done_callback(forwarders.discard)
            task.add_done_callback(
                lambda _task, stream=stream: unfinished.discard(stream)
            )
        if forwarders:
            await asyncio.gather(*forwarders, return_exceptions=True)
    except ConnectionError:
        pass
    finally:
        # A vanished client's unfinished requests are cancelled so they
        # stop consuming compute time; finished streams are left alone.
        for stream in unfinished:
            if not stream.done:
                service.cancel(stream.request_id)
        for task in list(forwarders):
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve(
    service: GenerationService,
    host: str = "127.0.0.1",
    port: int = 8157,
    *,
    default_deck: str | None = None,
    limit: int = DEFAULT_LINE_LIMIT,
) -> asyncio.AbstractServer:
    """Open the TCP front end (the service must already be started).

    ``service`` is anything with the :class:`GenerationService` surface
    (``submit``/``cancel``/``health``/``stats_payload``/``queue_depth``)
    — in particular a :class:`~repro.service.fleet.FleetService`, so the
    same wire protocol fronts one process or a whole worker fleet.

    ``limit`` bounds one line's size in both directions: an overlong
    inbound line draws a structured error and closes that connection
    (only), and outbound clip payloads are paged so no emitted frame
    exceeds it either.
    """

    async def handler(reader, writer):
        await handle_connection(
            reader, writer, service, default_deck=default_deck, limit=limit
        )

    return await asyncio.start_server(handler, host, port, limit=limit)
