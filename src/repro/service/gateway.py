"""Stdlib HTTP/1.1 gateway over the generation service.

``repro serve --http-port N`` puts a small asyncio HTTP front next to
the TCP one, so any language with an HTTP client can submit, poll and
stream — no python, no filesystem access, no web framework.  The same
``service`` object backs both fronts, so the gateway works unchanged
over a single-process :class:`~repro.service.GenerationService` or a
multi-process :class:`~repro.service.fleet.FleetService`.

Routes (all JSON in, JSON out):

``POST /v1/generate``
    Body is the same typed schema as a TCP generate line (``backend``,
    ``count``, ``seed``, ``deck``, ``session``, ``priority``,
    ``deadline_s``, ``params``, ``payload``, optional ``request_id``),
    validated server-side through the same code path.  Returns ``202``
    with the request id and the poll/stream URLs.
``GET /v1/requests/<id>``
    Poll: ``{"status": "pending"}`` while running; on completion the
    result accounting plus — when the request asked for a payload —
    the encoded clips inline (HTTP bodies are not line-limited, so the
    poll response never pages).
``GET /v1/requests/<id>/events``
    Chunked streaming of exactly the TCP event frames (chunk/result
    and paged ``payload_page``/``payload_done`` continuation frames),
    one JSON object per line.
``POST /v1/requests/<id>/cancel``
    The ``cancel`` verb; ``GET /v1/stats`` and ``GET /v1/healthz`` map
    the ``stats`` and ``health`` verbs (``healthz`` answers 503 once
    the service stopped).

Error contract (fuzz-tested): any malformed input — bad request line,
bad JSON, wrong types, unknown payload modes, oversized bodies — draws
a structured JSON error with a 4xx status, or a clean close when the
connection cannot be re-synchronised; never a traceback, never a
wedged request.  Completed requests are retained in a bounded LRU;
evicted or unknown ids answer 404.
"""

from __future__ import annotations

import asyncio
import collections
import json
from dataclasses import dataclass, field

from .payload import encode_payload
from .server import (
    DEFAULT_LINE_LIMIT,
    _payload_mode,
    _request_from_message,
    _result_fields,
    stream_events,
)
from .service import (
    DeadlineExceeded,
    GenerationService,
    RequestCancelled,
    ResultStream,
)

__all__ = ["HttpGateway", "serve_http", "DEFAULT_MAX_BODY"]

#: Largest accepted request body.  Generate requests are accounting-
#: sized; anything bigger is a client bug, answered with 413.
DEFAULT_MAX_BODY = 1 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Maps straight to one structured JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class _Entry:
    """One submitted request tracked for polling."""

    stream: ResultStream
    payload: str
    encoded: "tuple[dict, str] | None" = field(default=None)


class HttpGateway:
    """The HTTP front; hold one per service (it owns the poll registry)."""

    def __init__(
        self,
        service: GenerationService,
        *,
        default_deck: "str | None" = None,
        limit: int = DEFAULT_LINE_LIMIT,
        max_body: int = DEFAULT_MAX_BODY,
        keep: int = 1024,
    ):
        self._service = service
        self._default_deck = default_deck
        self._limit = limit
        self._max_body = max_body
        self._keep = keep
        self._entries: "collections.OrderedDict[str, _Entry]" = (
            collections.OrderedDict()
        )
        self.server: "asyncio.AbstractServer | None" = None

    async def start(
        self, host: str = "127.0.0.1", port: int = 8080
    ) -> "asyncio.AbstractServer":
        self.server = await asyncio.start_server(
            self.handle, host, port, limit=max(self._limit, 64 * 1024)
        )
        return self.server

    async def close(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: parse, route, respond, close.

        One request per connection (the response always carries
        ``Connection: close``): the gateway is a control plane, and
        closing eagerly keeps the fuzz contract simple — any framing
        confusion ends at the connection boundary.
        """
        try:
            try:
                method, path = await self._read_head(reader)
                headers = await self._read_headers(reader)
                body = await self._read_body(reader, headers)
                status, payload = await self._route(
                    method, path, body, writer
                )
                if status == 0:  # streaming route already wrote the response
                    return
            except _HttpError as error:
                status, payload = error.status, {"error": error.message}
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except Exception as error:  # noqa: BLE001 - backstop: no tracebacks
                status, payload = 500, {"error": str(error) or "internal error"}
            await self._respond(writer, status, payload)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_head(self, reader) -> "tuple[str, str]":
        try:
            line = await reader.readline()
        except ValueError:
            raise _HttpError(431, "request line too long") from None
        if not line:
            raise ConnectionError("empty request")
        try:
            text = line.decode("ascii").strip()
            method, path, version = text.split(" ")
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _HttpError(400, f"unsupported protocol {version!r}")
        return method.upper(), path.split("?", 1)[0]

    async def _read_headers(self, reader) -> "dict[str, str]":
        headers: dict[str, str] = {}
        for _ in range(100):
            try:
                line = await reader.readline()
            except ValueError:
                raise _HttpError(431, "header line too long") from None
            if not line.strip():
                return headers
            try:
                name, _, value = line.decode("latin-1").partition(":")
            except UnicodeDecodeError:  # pragma: no cover - latin-1 total
                raise _HttpError(400, "undecodable header") from None
            if not _:
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        raise _HttpError(431, "too many headers")

    async def _read_body(self, reader, headers: dict) -> bytes:
        raw = headers.get("content-length")
        if raw is None:
            return b""
        try:
            length = int(raw)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if length < 0:
            raise _HttpError(400, "invalid Content-Length")
        if length > self._max_body:
            raise _HttpError(
                413, f"body exceeds {self._max_body} byte limit"
            )
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ConnectionError("body truncated") from None

    async def _respond(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes, writer
    ) -> "tuple[int, dict]":
        if path == "/v1/generate":
            if method != "POST":
                raise _HttpError(405, "use POST /v1/generate")
            return await self._generate(body)
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "use GET /v1/stats")
            return 200, self._service.stats_payload()
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /v1/healthz")
            health = self._service.health()
            return (503 if health.get("status") == "stopped" else 200), health
        if path.startswith("/v1/requests/"):
            rest = path[len("/v1/requests/") :]
            if rest.endswith("/events"):
                request_id = rest[: -len("/events")]
                if method != "GET":
                    raise _HttpError(405, "use GET for the events stream")
                await self._events(request_id, writer)
                return 0, {}
            if rest.endswith("/cancel"):
                request_id = rest[: -len("/cancel")]
                if method != "POST":
                    raise _HttpError(405, "use POST to cancel")
                self._lookup(request_id)  # 404 for unknown ids
                return 200, {
                    "request_id": request_id,
                    "cancelled": self._service.cancel(request_id),
                }
            if method != "GET":
                raise _HttpError(405, "use GET to poll a request")
            return self._poll(rest)
        raise _HttpError(404, f"no route for {path!r}")

    async def _generate(self, body: bytes) -> "tuple[int, dict]":
        try:
            message = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"body is not valid JSON: {error}") from None
        if not isinstance(message, dict):
            raise _HttpError(400, "body must be a JSON object")
        try:
            payload_mode = _payload_mode(message)
            request = _request_from_message(message, self._default_deck)
            stream = await self._service.submit(
                request, session=message.get("session")
            )
        except (ValueError, TypeError, KeyError) as error:
            raise _HttpError(400, str(error)) from None
        except RuntimeError as error:  # draining / not running
            raise _HttpError(503, str(error)) from None
        request_id = stream.request_id
        self._entries[request_id] = _Entry(stream=stream, payload=payload_mode)
        self._entries.move_to_end(request_id)
        self._evict()
        return 202, {
            "request_id": request_id,
            "status": "accepted",
            "payload": payload_mode,
            "poll": f"/v1/requests/{request_id}",
            "events": f"/v1/requests/{request_id}/events",
        }

    def _lookup(self, request_id: str) -> _Entry:
        entry = self._entries.get(request_id)
        if entry is None:
            raise _HttpError(404, f"unknown request {request_id!r}")
        return entry

    def _evict(self) -> None:
        """Drop the oldest *finished* entries beyond the retention cap.

        Unfinished requests are never evicted — their results must stay
        pollable — so the registry is bounded by ``keep`` plus whatever
        the service itself admits in flight (its queue is bounded).
        """
        excess = len(self._entries) - self._keep
        if excess <= 0:
            return
        for request_id in [
            rid for rid, e in self._entries.items() if e.stream.done
        ][:excess]:
            del self._entries[request_id]

    def _poll(self, request_id: str) -> "tuple[int, dict]":
        entry = self._lookup(request_id)
        stream = entry.stream
        if not stream.done:
            return 200, {"request_id": request_id, "status": "pending"}
        try:
            batch = stream.result_now()
        except RequestCancelled as error:
            return 200, {
                "request_id": request_id,
                "status": "cancelled",
                "message": str(error),
            }
        except DeadlineExceeded as error:
            return 200, {
                "request_id": request_id,
                "status": "deadline",
                "message": str(error),
            }
        except Exception as error:  # noqa: BLE001 - request's own failure
            return 200, {
                "request_id": request_id,
                "status": "error",
                "message": str(error),
            }
        response = {
            "request_id": request_id,
            "status": "done",
            **_result_fields(batch, with_payload=entry.payload != "none"),
        }
        if entry.payload != "none":
            if entry.encoded is None:
                entry.encoded = encode_payload(batch.clips, entry.payload)
            meta, data = entry.encoded
            response["payload"] = {**meta, "data": data}
        return 200, response

    async def _events(self, request_id: str, writer) -> None:
        """Stream the TCP event frames over chunked transfer encoding.

        The stream's chunk queue is consumed as it is relayed, so the
        events route is effectively single-consumer per request; the
        final result stays separately pollable.  A client that drops
        the stream does *not* cancel the request — polling still works;
        ``POST .../cancel`` is the explicit way to stop it.
        """
        entry = self._lookup(request_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")

        async def emit(event: dict) -> None:
            line = json.dumps(event).encode() + b"\n"
            writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
            await writer.drain()

        try:
            writer.write(head)
            await writer.drain()
            try:
                async for event in stream_events(
                    entry.stream, payload=entry.payload, limit=self._limit
                ):
                    await emit(event)
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as error:  # noqa: BLE001 - reported in-stream
                await emit({
                    "event": "error",
                    "request_id": request_id,
                    "message": str(error),
                })
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def serve_http(
    service: GenerationService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    default_deck: "str | None" = None,
    limit: int = DEFAULT_LINE_LIMIT,
    max_body: int = DEFAULT_MAX_BODY,
    keep: int = 1024,
) -> HttpGateway:
    """Start the HTTP gateway (the service must already be started).

    Returns the :class:`HttpGateway`; its ``server`` attribute is the
    listening ``asyncio.AbstractServer`` and :meth:`HttpGateway.close`
    shuts it down.  Like :func:`~repro.service.server.serve`, the
    ``service`` may be a fleet — the gateway only uses the shared
    submit/cancel/stats/health surface.
    """
    gateway = HttpGateway(
        service,
        default_deck=default_deck,
        limit=limit,
        max_body=max_body,
        keep=keep,
    )
    await gateway.start(host, port)
    return gateway
