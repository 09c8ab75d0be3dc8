"""Golden wire-protocol conformance suite + delivery regressions.

The TCP line-JSON protocol is consumed by clients the repo never sees,
so drift must break CI, not them.  ``fixtures/protocol_frames.json``
records, for every verb (generate / cancel / ping / stats / health,
error frames, and the clip-payload continuation frames), the exact
bytes the server answered with at recording time; the suite replays
each session against a live server and asserts the frames byte-for-byte
— after substituting declared *volatile* fields (wall-clock ``seconds``)
with the recorded values, so timing noise cannot mask a format change.
Canonical formatting is pinned separately: every emitted line must equal
``json.dumps(json.loads(line))``.

Regenerate after an intentional protocol change with::

    PYTHONPATH=src python tests/service/test_protocol.py --record

The file also carries the delivery regressions that ride the protocol:
``RemoteClient`` bit-identity (b64 + npz, paging forced to several
pages), the disconnect-mid-payload-paging exactly-once cancellation
(single-process and fleet), and the ``ClientTicket.result(timeout=)``
contract.
"""

import asyncio
import json
import socket
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import GenerationRequest, run_generation
from repro.engine.executor import BatchExecutor
from repro.service import (
    FleetConfig,
    FleetService,
    GenerationService,
    RemoteClient,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
    serve,
)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "protocol_frames.json"

#: Fields whose values depend on wall clock, never on the protocol.
VOLATILE = {"result": ["seconds"]}

#: Paging is part of the golden surface: a limit small enough that the
#: recorded generate-with-payload session pages its clips.
GOLDEN_LIMIT = 2048

#: The recorded sessions.  Each is replayed on a fresh service against
#: a fresh connection, all lines pipelined then EOF, frames read until
#: the server closes — so ordering is deterministic (one generate per
#: session at most, as the last line).
SESSIONS = [
    {"name": "ping", "send": ['{"op": "ping"}']},
    {"name": "cancel-unknown", "send": ['{"op": "cancel", "request_id": "nope"}']},
    {"name": "error-bad-json", "send": ['{"backend": "rule", "count']},
    {"name": "error-non-object", "send": ['[1, 2, 3]']},
    {"name": "error-op-not-string", "send": ['{"op": 7}']},
    {"name": "error-unknown-op", "send": ['{"op": "reboot"}']},
    {"name": "error-missing-backend", "send": ['{"count": 4}']},
    {"name": "error-missing-count", "send": ['{"backend": "rule"}']},
    {
        # The message lists the registered backends, and other test
        # modules register extras — the text is volatile, the shape not.
        "name": "error-unknown-backend",
        "send": ['{"backend": "nope", "count": 4}'],
        "volatile": {"error": ["message"]},
    },
    {"name": "error-bad-count", "send": ['{"backend": "rule", "count": -2}']},
    {
        "name": "error-bad-payload-mode",
        "send": ['{"backend": "rule", "count": 4, "payload": "zip"}'],
    },
    {
        "name": "error-bad-payload-type",
        "send": ['{"backend": "rule", "count": 4, "payload": 7}'],
    },
    {
        "name": "error-bad-request-id",
        "send": ['{"backend": "rule", "count": 4, "request_id": "a b!"}'],
    },
    {
        "name": "error-bad-deadline",
        "send": ['{"backend": "rule", "count": 4, "deadline_s": -1}'],
    },
    {
        "name": "error-cancel-without-id",
        "send": ['{"op": "cancel"}'],
    },
    {
        "name": "generate-accounting",
        "send": [
            '{"backend": "rule", "count": 4, "seed": 3, "deck": "basic", '
            '"request_id": "golden-acct"}'
        ],
    },
    {
        "name": "generate-payload-b64-paged",
        "send": [
            '{"backend": "rule", "count": 6, "seed": 3, "deck": "basic", '
            '"payload": "b64", "request_id": "golden-b64"}'
        ],
    },
]


def canonical(obj) -> str:
    """The server's JSON form: ``json.dumps`` defaults, insertion order."""
    return json.dumps(obj)


async def _session(lines, *, limit=GOLDEN_LIMIT):
    """Run one recorded session: fresh service, pipelined lines, EOF."""
    service = GenerationService(ServiceConfig())
    await service.start()
    server = await serve(
        service, "127.0.0.1", 0, default_deck="advanced", limit=limit
    )
    port = server.sockets[0].getsockname()[1]
    raw_frames = []
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for line in lines:
            writer.write(line.encode() + b"\n")
        await writer.drain()
        writer.write_eof()
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=60)
            if not raw:
                break
            raw_frames.append(raw.decode().rstrip("\n"))
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()
    return raw_frames


def _record() -> dict:
    fixture = {"limit": GOLDEN_LIMIT, "sessions": []}
    for spec in SESSIONS:
        frames = asyncio.run(_session(spec["send"]))
        volatile = {**VOLATILE, **spec.get("volatile", {})}
        fixture["sessions"].append({
            "name": spec["name"],
            "send": spec["send"],
            "frames": [
                {
                    "raw": raw,
                    "volatile": volatile.get(
                        json.loads(raw).get("event"), []
                    ),
                }
                for raw in frames
            ],
        })
    stats_frames = asyncio.run(_session(['{"op": "stats"}']))
    health_frames = asyncio.run(_session(['{"op": "health"}']))
    fixture["stats_keys"] = sorted(json.loads(stats_frames[0]).keys())
    fixture["health_keys"] = sorted(json.loads(health_frames[0]).keys())
    return fixture


def _load_fixture() -> dict:
    assert FIXTURE_PATH.exists(), (
        "protocol fixture missing; regenerate with "
        "PYTHONPATH=src python tests/service/test_protocol.py --record"
    )
    return json.loads(FIXTURE_PATH.read_text())


_FIXTURE = _load_fixture() if FIXTURE_PATH.exists() else None


class TestGoldenFrames:
    """Byte-for-byte replay of every recorded session."""

    @pytest.mark.parametrize(
        "recorded",
        (_FIXTURE or {}).get("sessions", []),
        ids=lambda s: s["name"],
    )
    def test_session_matches_recording(self, recorded):
        actual = asyncio.run(
            _session(recorded["send"], limit=_FIXTURE["limit"])
        )
        expected = recorded["frames"]
        names = [json.loads(raw).get("event") for raw in actual]
        assert len(actual) == len(expected), (
            f"frame count drifted: {names}"
        )
        for raw, exp in zip(actual, expected):
            # 1. The server emits canonical json.dumps formatting.
            obj = json.loads(raw)
            assert raw == canonical(obj), "non-canonical frame formatting"
            # 2. Byte-for-byte against the recording, volatile fields
            #    substituted with the recorded values first.
            exp_obj = json.loads(exp["raw"])
            for key in exp["volatile"]:
                assert key in obj, f"volatile field {key!r} disappeared"
                assert type(obj[key]) is type(exp_obj[key])
                obj[key] = exp_obj[key]
            assert canonical(obj) == exp["raw"]

    def test_recorded_sessions_cover_the_verb_surface(self):
        recorded = {s["name"] for s in _FIXTURE["sessions"]}
        assert recorded == {s["name"] for s in SESSIONS}
        all_events = {
            json.loads(f["raw"])["event"]
            for s in _FIXTURE["sessions"]
            for f in s["frames"]
        }
        # Every wire event kind the server can emit (stats/health are
        # pinned by key-set below; their values are live counters).
        assert {
            "pong", "cancelled", "error", "accepted", "chunk",
            "result", "payload_page", "payload_done",
        } <= all_events

    def test_paged_payload_recorded_with_multiple_pages(self):
        session = next(
            s for s in _FIXTURE["sessions"]
            if s["name"] == "generate-payload-b64-paged"
        )
        pages = [
            f for f in session["frames"]
            if json.loads(f["raw"])["event"] == "payload_page"
        ]
        assert len(pages) >= 3

    def test_stats_and_health_key_sets(self):
        stats = asyncio.run(_session(['{"op": "stats"}']))
        health = asyncio.run(_session(['{"op": "health"}']))
        assert sorted(json.loads(stats[0]).keys()) == _FIXTURE["stats_keys"]
        assert (
            sorted(json.loads(health[0]).keys()) == _FIXTURE["health_keys"]
        )


class TestRemoteClientDelivery:
    """A remote TCP client gets clips bit-identical to serial runs."""

    @pytest.mark.parametrize("encoding", ["b64", "npz"])
    def test_decoded_clips_match_run_generation(self, encoding):
        from repro.drc.decks import deck_by_name
        from repro.zoo.corpora import EXPERIMENT_GRID

        deck = deck_by_name("basic", EXPERIMENT_GRID)
        serial = run_generation(
            GenerationRequest(backend="rule", count=8, seed=5, deck=deck)
        )

        async def run():
            service = GenerationService(ServiceConfig())
            await service.start()
            # A line limit small enough that the clip payload must page.
            server = await serve(service, "127.0.0.1", 0, limit=1024)
            port = server.sockets[0].getsockname()[1]
            try:
                def client_part():
                    with RemoteClient(port=port) as client:
                        client.ping()
                        return client.generate({
                            "backend": "rule", "count": 8, "seed": 5,
                            "deck": "basic", "payload": encoding,
                        })
                return await asyncio.to_thread(client_part)
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        result = asyncio.run(run())
        assert result["payload"]["pages"] >= 3
        assert result["legal_mask"] == [int(v) for v in serial.legal]
        assert len(result["clips"]) == len(serial.clips)
        for got, want in zip(result["clips"], serial.clips):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # Chunk payloads decode too (one chunk for count <= 32).
        assert result.get("chunk_arrays")

    def test_pipelined_payload_requests_demultiplex(self):
        async def run():
            service = GenerationService(ServiceConfig())
            await service.start()
            server = await serve(service, "127.0.0.1", 0, limit=1024)
            port = server.sockets[0].getsockname()[1]
            try:
                def client_part():
                    with RemoteClient(port=port) as client:
                        return client.generate_many([
                            {"backend": "rule", "count": 4, "seed": s,
                             "deck": "basic", "payload": "b64"}
                            for s in range(3)
                        ])
                return await asyncio.to_thread(client_part)
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        results = asyncio.run(run())
        assert len(results) == 3
        from repro.drc.decks import deck_by_name
        from repro.zoo.corpora import EXPERIMENT_GRID

        deck = deck_by_name("basic", EXPERIMENT_GRID)
        for s, result in enumerate(results):
            serial = run_generation(
                GenerationRequest(backend="rule", count=4, seed=s, deck=deck)
            )
            for got, want in zip(result["clips"], serial.clips):
                assert np.array_equal(got, want)


def _slow_drc(monkeypatch, seconds=0.8):
    """Make the DRC stage slow so a client can vanish mid-paging."""
    original = BatchExecutor.check_batch

    def slow(self, clips):
        time.sleep(seconds)
        return original(self, clips)

    monkeypatch.setattr(BatchExecutor, "check_batch", slow)


async def _vanish_mid_paging(service, *, limit=1024):
    """Submit a payload request, read until mid-paging, then RST."""
    server = await serve(
        service, "127.0.0.1", 0, default_deck="basic", limit=limit
    )
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            b'{"backend": "rule", "count": 8, "seed": 3, "payload": "b64"}\n'
        )
        await writer.drain()
        saw_page = False
        while not saw_page:
            frame = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=60)
            )
            # Chunk payload pages stream while DRC is still running, so
            # the request is mid-flight when we vanish.
            saw_page = frame.get("event") == "payload_page"
        sock = writer.transport.get_extra_info("socket")
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        writer.close()
        # The request must resolve as cancelled — exactly once — and the
        # commit stage must stay live for later requests.
        for _ in range(600):
            if service.stats_payload().get("cancelled", 0) or (
                getattr(getattr(service, "stats", None), "cancelled", 0)
            ):
                break
            await asyncio.sleep(0.02)
    finally:
        server.close()
        await server.wait_closed()
    return port


class TestDisconnectMidPaging:
    def test_single_process_cancels_exactly_once(self, monkeypatch):
        _slow_drc(monkeypatch)

        async def run():
            service = GenerationService(ServiceConfig(
                scheduler=SchedulerConfig(gather_window_s=0.05),
            ))
            await service.start()
            try:
                await _vanish_mid_paging(service)
                cancelled = service.stats.cancelled
                failed = service.stats.failed
                completed = service.stats.completed
                # The commit stage survived: a follow-up request on the
                # same service completes normally.
                stream = await service.submit(
                    GenerationRequest(backend="rule", count=2, seed=9)
                )
                batch = await asyncio.wait_for(stream.result(), timeout=60)
                return cancelled, failed, completed, batch.attempts, (
                    service.stats.cancelled
                )
            finally:
                await service.stop()

        cancelled, failed, completed, attempts, cancelled_after = (
            asyncio.run(run())
        )
        assert cancelled == 1          # exactly once, not once per sweep
        assert failed == 1
        assert completed == 0
        assert attempts == 2
        assert cancelled_after == 1    # the follow-up did not re-count

    def test_fleet_cancels_exactly_once(self, monkeypatch):
        # The fork start method inherits the patched (slow) DRC stage.
        _slow_drc(monkeypatch)

        async def run():
            fleet = FleetService(FleetConfig(
                workers=2, service=ServiceConfig(
                    scheduler=SchedulerConfig(gather_window_s=0.05),
                ),
            ))
            await fleet.start()
            try:
                await _vanish_mid_paging(fleet)
                for _ in range(600):
                    if fleet.stats.cancelled:
                        break
                    await asyncio.sleep(0.02)
                cancelled = fleet.stats.cancelled
                # The cancelled arrival holds nothing up: a later
                # arrival still publishes.
                stream = await fleet.submit(
                    GenerationRequest(backend="rule", count=2, seed=9)
                )
                batch = await asyncio.wait_for(stream.result(), timeout=60)
                return cancelled, batch.attempts, fleet.stats.cancelled
            finally:
                await fleet.stop()

        cancelled, attempts, cancelled_after = asyncio.run(run())
        assert cancelled == 1
        assert attempts == 2
        assert cancelled_after == 1


class TestClientTicketTimeout:
    """``result(timeout=)``: the documented contract, regression-tested.

    The docstring promises: on timeout the wait is abandoned *and* a
    service-side cancellation is requested (landing at the next stage
    boundary) — but a request already past its last boundary still
    commits.  Both halves are asserted here so docs and behavior cannot
    drift apart silently.
    """

    def test_timeout_requests_service_side_cancel(self, monkeypatch):
        _slow_drc(monkeypatch, seconds=1.0)
        with ServiceClient(ServiceConfig()) as client:
            ticket = client.submit(
                GenerationRequest(backend="rule", count=4, seed=1)
            )
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.2)
            # The cancel mark lands at the DRC->commit boundary.
            from repro.service import RequestCancelled

            with pytest.raises(RequestCancelled):
                ticket.result(timeout=30)
            assert client.service.stats.cancelled == 1

    def test_completed_request_still_returns_after_late_timeout(self):
        with ServiceClient(ServiceConfig()) as client:
            ticket = client.submit(
                GenerationRequest(backend="rule", count=2, seed=1)
            )
            batch = ticket.result(timeout=60)
            assert batch.attempts == 2
            # A second wait on a resolved ticket returns immediately and
            # never raises the shim TimeoutError.
            assert ticket.result(timeout=0.001).attempts == 2

    def test_resolved_ticket_does_not_wait_on_a_busy_loop(self):
        """A resolved ticket answers without the event-loop thread."""
        with ServiceClient(ServiceConfig()) as client:
            ticket = client.submit(
                GenerationRequest(backend="rule", count=2, seed=1)
            )
            ticket.result(timeout=60)
            client._loop.call_soon_threadsafe(time.sleep, 1.0)
            assert ticket.result(timeout=0.01).attempts == 2
            assert client.service.stats.cancelled == 0


if __name__ == "__main__":
    import sys

    if "--record" in sys.argv:
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE_PATH.write_text(json.dumps(_record(), indent=1) + "\n")
        print(f"recorded {FIXTURE_PATH}")
    else:
        print("usage: python tests/service/test_protocol.py --record")
