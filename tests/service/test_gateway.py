"""End-to-end tests for the HTTP gateway.

The acceptance bar for the delivery path: a client with nothing but an
HTTP connection — no python API, no filesystem access — retrieves clips
bit-identical to a serial ``run_generation`` of the same request, for
both payload encodings, including when the events stream is forced to
page.  All HTTP calls here go through ``http.client`` on a worker
thread (the gateway runs on this test's event loop, so blocking I/O on
the loop thread would deadlock).
"""

import asyncio
import http.client
import json

import numpy as np
import pytest

from repro.drc.decks import deck_by_name
from repro.engine import GenerationRequest, run_generation
from repro.service import (
    FleetConfig,
    FleetService,
    GenerationService,
    PayloadAssembler,
    ServiceConfig,
    decode_payload,
    serve_http,
)
from repro.zoo.corpora import EXPERIMENT_GRID


def _request(port, method, path, body=None, timeout=60):
    """One blocking HTTP round-trip: ``(status, parsed-JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw)
    finally:
        conn.close()


def _stream_events(port, path, timeout=120):
    """Consume the chunked ndjson events route into a list of frames."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        body = response.read()  # http.client undoes the chunked framing
        return [json.loads(line) for line in body.splitlines() if line]
    finally:
        conn.close()


async def _poll_done(port, poll_path, timeout=60):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, body = await asyncio.to_thread(_request, port, "GET", poll_path)
        assert status == 200
        if body["status"] != "pending":
            return body
        assert asyncio.get_running_loop().time() < deadline, "poll timed out"
        await asyncio.sleep(0.05)


class _GatewayHarness:
    """A started service + gateway on an ephemeral port."""

    def __init__(self, service):
        self.service = service
        self.gateway = None
        self.port = None

    async def __aenter__(self):
        await self.service.start()
        self.gateway = await serve_http(self.service, "127.0.0.1", 0)
        self.port = self.gateway.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        await self.gateway.close()
        await self.service.stop()


def _serial(count=8, seed=5):
    deck = deck_by_name("basic", EXPERIMENT_GRID)
    return run_generation(
        GenerationRequest(backend="rule", count=count, seed=seed, deck=deck)
    )


def _assert_clips_identical(arrays, serial):
    assert len(arrays) == len(serial.clips)
    for got, want in zip(arrays, serial.clips):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestPollDelivery:
    @pytest.mark.parametrize("encoding", ["b64", "npz"])
    def test_poll_returns_bit_identical_clips(self, encoding):
        serial = _serial()

        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                status, accepted = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 8, "seed": 5,
                     "deck": "basic", "payload": encoding},
                )
                assert status == 202
                assert accepted["status"] == "accepted"
                assert accepted["payload"] == encoding
                return await _poll_done(h.port, accepted["poll"])

        body = asyncio.run(run())
        assert body["status"] == "done"
        assert body["attempts"] == 8
        assert body["legal_mask"] == [int(v) for v in serial.legal]
        payload = body["payload"]
        arrays = decode_payload(payload, payload["data"])
        _assert_clips_identical(arrays, serial)

    def test_payload_none_poll_has_accounting_only(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                _, accepted = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 4, "seed": 1,
                     "deck": "basic"},
                )
                return await _poll_done(h.port, accepted["poll"])

        body = asyncio.run(run())
        assert body["status"] == "done"
        assert "payload" not in body
        assert "legal_mask" not in body

    def test_client_supplied_request_id_is_honoured(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                _, accepted = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 2, "seed": 1,
                     "deck": "basic", "request_id": "my-req-01"},
                )
                assert accepted["request_id"] == "my-req-01"
                return await _poll_done(h.port, "/v1/requests/my-req-01")

        assert asyncio.run(run())["status"] == "done"


class TestEventsStream:
    def test_paged_event_stream_reassembles_bit_identical(self):
        """Forced paging (small line limit) over the chunked stream."""
        serial = _serial()

        async def run():
            service = GenerationService(ServiceConfig())
            await service.start()
            gateway = await serve_http(service, "127.0.0.1", 0, limit=1024)
            port = gateway.server.sockets[0].getsockname()[1]
            try:
                _, accepted = await asyncio.to_thread(
                    _request, port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 8, "seed": 5,
                     "deck": "basic", "payload": "b64"},
                )
                return await asyncio.to_thread(
                    _stream_events, port, accepted["events"]
                )
            finally:
                await gateway.close()
                await service.stop()

        frames = asyncio.run(run())
        result = next(f for f in frames if f["event"] == "result")
        assert result["payload"]["pages"] >= 3
        pages = [
            f for f in frames
            if f["event"] == "payload_page" and f["for"] == "result"
        ]
        assert len(pages) == result["payload"]["pages"]
        assembler = PayloadAssembler()
        done = [out for f in frames if (out := assembler.feed(f))]
        final = next(d for d in done if d.kind == "result")
        _assert_clips_identical(final.arrays, serial)

    def test_events_for_unknown_request_is_404(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                return await asyncio.to_thread(
                    _request, h.port, "GET", "/v1/requests/nope/events"
                )

        status, body = asyncio.run(run())
        assert status == 404
        assert "error" in body


class TestControlPlane:
    def test_stats_and_healthz(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                stats = await asyncio.to_thread(
                    _request, h.port, "GET", "/v1/stats"
                )
                health = await asyncio.to_thread(
                    _request, h.port, "GET", "/v1/healthz"
                )
                return stats, health

        (stats_status, stats), (health_status, health) = asyncio.run(run())
        assert stats_status == 200
        assert "submitted" in stats
        assert health_status == 200
        assert health["status"] in ("ok", "draining")

    def test_healthz_503_after_stop(self):
        async def run():
            service = GenerationService(ServiceConfig())
            await service.start()
            gateway = await serve_http(service, "127.0.0.1", 0)
            port = gateway.server.sockets[0].getsockname()[1]
            try:
                await service.stop()
                return await asyncio.to_thread(
                    _request, port, "GET", "/v1/healthz"
                )
            finally:
                await gateway.close()

        status, body = asyncio.run(run())
        assert status == 503
        assert body["status"] == "stopped"

    def test_cancel_endpoint(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                _, accepted = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 4, "seed": 1,
                     "deck": "basic"},
                )
                rid = accepted["request_id"]
                cancel = await asyncio.to_thread(
                    _request, h.port, "POST", f"/v1/requests/{rid}/cancel"
                )
                body = await _poll_done(h.port, accepted["poll"])
                unknown = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/requests/nope/cancel"
                )
                return cancel, body, unknown

        (cancel_status, cancel), body, (unknown_status, _) = asyncio.run(run())
        assert cancel_status == 200
        # The request may already have finished — either way the poll
        # resolves to a terminal status and the verb answered cleanly.
        assert isinstance(cancel["cancelled"], bool)
        assert body["status"] in ("done", "cancelled")
        assert unknown_status == 404


class TestErrorContract:
    CASES = [
        ("GET", "/nope", None, 404),
        ("GET", "/v1/generate", None, 405),
        ("POST", "/v1/stats", None, 405),
        ("POST", "/v1/requests/abc", None, 405),
        ("GET", "/v1/requests/unknown", None, 404),
        ("POST", "/v1/generate", {"count": 4}, 400),
        ("POST", "/v1/generate", {"backend": "rule"}, 400),
        ("POST", "/v1/generate", {"backend": "nope", "count": 4}, 400),
        ("POST", "/v1/generate",
         {"backend": "rule", "count": 4, "payload": "zip"}, 400),
        ("POST", "/v1/generate",
         {"backend": "rule", "count": 4, "request_id": "bad id!"}, 400),
        # A trailing newline is no id character, and 64 is the most.
        ("POST", "/v1/generate",
         {"backend": "rule", "count": 4, "request_id": "ok\n"}, 400),
        ("POST", "/v1/generate",
         {"backend": "rule", "count": 4, "request_id": "a" * 64 + "\n"}, 400),
        ("POST", "/v1/generate",
         {"backend": "rule", "count": 4, "session": "tenant\n"}, 400),
        ("POST", "/v1/generate",
         {"backend": "rule", "count": 4, "session": 5}, 400),
    ]

    def test_structured_errors(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                out = []
                for method, path, body, expected in self.CASES:
                    status, parsed = await asyncio.to_thread(
                        _request, h.port, method, path, body
                    )
                    out.append((method, path, status, parsed, expected))
                # The gateway survives all of it: a valid request after.
                status, accepted = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 2, "seed": 1,
                     "deck": "basic"},
                )
                final = await _poll_done(h.port, accepted["poll"])
                return out, status, final

        out, status, final = asyncio.run(run())
        for method, path, got, parsed, expected in out:
            assert got == expected, (method, path, got, parsed)
            assert "error" in parsed
        assert status == 202
        assert final["status"] == "done"

    def test_bad_json_body_and_non_object(self):
        async def run():
            async with _GatewayHarness(
                GenerationService(ServiceConfig())
            ) as h:
                def raw_post(body_bytes):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", h.port, timeout=30
                    )
                    try:
                        conn.request("POST", "/v1/generate", body=body_bytes)
                        response = conn.getresponse()
                        return response.status, json.loads(response.read())
                    finally:
                        conn.close()

                return [
                    await asyncio.to_thread(raw_post, b'{"backend": "ru'),
                    await asyncio.to_thread(raw_post, b"[1, 2, 3]"),
                    await asyncio.to_thread(raw_post, b"\xff\xfe\x00"),
                ]

        for status, body in asyncio.run(run()):
            assert status == 400
            assert "error" in body

    def test_oversized_body_is_413(self):
        async def run():
            service = GenerationService(ServiceConfig())
            await service.start()
            gateway = await serve_http(
                service, "127.0.0.1", 0, max_body=1024
            )
            port = gateway.server.sockets[0].getsockname()[1]
            try:
                return await asyncio.to_thread(
                    _request, port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 4, "params": {
                        "pad": "x" * 4096
                    }},
                )
            finally:
                await gateway.close()
                await service.stop()

        status, body = asyncio.run(run())
        assert status == 413
        assert "error" in body


class TestFleetBackedGateway:
    def test_npz_round_trip_against_two_worker_fleet(self):
        """The CI gateway-smoke scenario: HTTP + fleet + npz payloads."""
        serial = _serial(count=6, seed=7)

        async def run():
            async with _GatewayHarness(
                FleetService(FleetConfig(
                    workers=2, service=ServiceConfig(),
                ))
            ) as h:
                status, accepted = await asyncio.to_thread(
                    _request, h.port, "POST", "/v1/generate",
                    {"backend": "rule", "count": 6, "seed": 7,
                     "deck": "basic", "payload": "npz"},
                )
                assert status == 202
                body = await _poll_done(h.port, accepted["poll"])
                _, stats = await asyncio.to_thread(
                    _request, h.port, "GET", "/v1/stats"
                )
                return body, stats

        body, stats = asyncio.run(run())
        assert body["status"] == "done"
        payload = body["payload"]
        assert payload["encoding"] == "npz"
        arrays = decode_payload(payload, payload["data"])
        _assert_clips_identical(arrays, serial)
        assert body["legal_mask"] == [int(v) for v in serial.legal]
        assert len(stats["fleet"]["workers"]) == 2
