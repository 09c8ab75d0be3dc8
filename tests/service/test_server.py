"""TCP line-JSON front end: protocol round-trips and error reporting."""

import asyncio
import json

import pytest

from repro.service import GenerationService, ServiceConfig, serve


async def _round_trip(lines, *, config=None, stop_after=None, default_deck="advanced"):
    """Start service+server, send ``lines``, read events until done."""
    service = GenerationService(config or ServiceConfig())
    await service.start()
    server = await serve(service, "127.0.0.1", 0, default_deck=default_deck)
    port = server.sockets[0].getsockname()[1]
    events = []
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for line in lines:
            writer.write(json.dumps(line).encode() + b"\n")
        await writer.drain()
        writer.write_eof()
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=30)
            if not raw:
                break
            events.append(json.loads(raw))
            if stop_after is not None and stop_after(events):
                break
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()
    return events


def _results(events):
    return [e for e in events if e.get("event") == "result"]


class TestProtocol:
    def test_request_streams_accepted_chunks_result(self):
        events = asyncio.run(_round_trip(
            [{"backend": "rule", "count": 4, "seed": 3}]
        ))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert "chunk" in kinds
        (result,) = _results(events)
        assert result["attempts"] == 4
        assert result["legal"] <= 4
        assert result["request_id"] == events[0]["request_id"]

    def test_pipelined_requests_demultiplex_by_id(self):
        events = asyncio.run(_round_trip([
            {"backend": "rule", "count": 3, "seed": s} for s in range(3)
        ]))
        accepted = [e for e in events if e["event"] == "accepted"]
        results = _results(events)
        assert len(accepted) == len(results) == 3
        assert {e["request_id"] for e in accepted} == {
            e["request_id"] for e in results
        }

    def test_session_scope_shares_one_store_across_wire_requests(self):
        # Same seed twice into one session: the second request's clips are
        # all duplicates of the first's, so it admits nothing.
        events = asyncio.run(_round_trip([
            {"backend": "rule", "count": 4, "seed": 3, "session": "t"}
            for _ in range(2)
        ]))
        results = _results(events)
        assert len(results) == 2
        assert sorted(e["admitted"] for e in results)[0] == 0
        assert sum(e["admitted"] for e in results) == max(
            e["library_size"] for e in results
        )

    def test_ping_and_stats(self):
        events = asyncio.run(_round_trip([
            {"op": "ping"},
            {"backend": "rule", "count": 2, "seed": 0},
            {"op": "stats"},
        ]))
        kinds = [e["event"] for e in events]
        assert "pong" in kinds
        stats = next(e for e in events if e["event"] == "stats")
        assert stats["submitted"] >= 1

    def test_stats_counters_under_pipelined_clients(self):
        """Satellite: ServiceStats stays consistent when one connection
        pipelines many requests and polls stats afterwards."""
        n = 5
        lines = [
            {"backend": "rule", "count": 3, "seed": s} for s in range(n)
        ]
        lines.append({"op": "stats"})

        def got_all(events):
            results = [e for e in events if e.get("event") == "result"]
            stats = [e for e in events if e.get("event") == "stats"]
            # The stats line may be answered before the generation
            # cycles drain; keep reading until everything resolved.
            return len(results) == n and len(stats) == 1

        events = asyncio.run(_round_trip(lines, stop_after=got_all))
        results = _results(events)
        assert len(results) == n
        stats = next(e for e in events if e["event"] == "stats")
        # Counter consistency: everything pipelined was submitted, and
        # nothing failed.
        assert stats["submitted"] == n
        assert stats["failed"] == 0
        assert stats["completed"] + stats["queue_depth"] <= n
        # The queue-depth gauge and packing telemetry ride the same verb.
        for field in (
            "queue_depth", "queue_depth_at_cycle", "packed_batches",
            "packed_jobs", "pack_fill",
        ):
            assert field in stats
        assert stats["queue_depth"] >= 0
        assert 0.0 <= stats["pack_fill"] <= 1.0
        # The rule backend is not pack-capable: the packed counters must
        # stay untouched rather than miscounting.
        assert stats["packed_jobs"] == 0
        # Per-stage latency histograms (all five stages) ride the same
        # verb.
        assert set(stats["stages"]) == {
            "queue", "gather", "model", "drc", "admit"
        }
        # The stats op may be answered while cycles are still in flight,
        # so only structural invariants hold here (per-stage counts are
        # asserted on a drained service in test_service.py).
        for histogram in stats["stages"].values():
            assert histogram["p50_ms"] <= histogram["p95_ms"]
            assert sum(n_ for _, n_ in histogram["buckets"]) == (
                histogram["count"]
            )

    def test_open_connection_keeps_no_finished_streams(self):
        # One long-lived connection: once a request's result is on the
        # wire, the handler must let go of its ResultStream (and with it
        # the final batch and its clips).
        import gc

        from repro.service import ResultStream

        n = 60

        def live_streams():
            gc.collect()
            return sum(isinstance(o, ResultStream) for o in gc.get_objects())

        async def run():
            service = GenerationService()
            await service.start()
            server = await serve(service, "127.0.0.1", 0,
                                 default_deck="advanced")
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                for seed in range(n):
                    writer.write(json.dumps(
                        {"backend": "rule", "count": 1, "seed": seed}
                    ).encode() + b"\n")
                await writer.drain()
                results = 0
                while results < n:
                    raw = await asyncio.wait_for(reader.readline(), timeout=30)
                    results += json.loads(raw)["event"] == "result"
                # The connection is still open; a forwarder finishes just
                # after writing its result, so give the last ones a beat.
                for _ in range(25):
                    live = live_streams()
                    if live < n // 10:
                        break
                    await asyncio.sleep(0.02)
                writer.close()
                await writer.wait_closed()
                return live
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        assert asyncio.run(run()) < n // 10


class TestFaultVerbs:
    def test_health_verb_reports_ok_with_recovery_counters(self):
        events = asyncio.run(_round_trip([{"op": "health"}]))
        (health,) = [e for e in events if e["event"] == "health"]
        assert health["status"] == "ok"
        assert health["draining"] is False
        for field in (
            "retries", "deadline_drops", "cancelled",
            "snapshot_load_fallbacks",
        ):
            assert field in health

    def test_stats_exports_faults_and_recovery_counters(self):
        from repro.service import clear_faults

        clear_faults()  # a REPRO_FAULTS chaos schedule may be installed
        events = asyncio.run(_round_trip([{"op": "stats"}]))
        (stats,) = [e for e in events if e["event"] == "stats"]
        assert stats["faults"] == {"installed": False, "fired": []}
        assert stats["retries"] == 0
        assert stats["deadline_drops"] == 0
        assert stats["cancelled"] == 0

    def test_cancel_verb_unknown_id_reports_false(self):
        events = asyncio.run(_round_trip(
            [{"op": "cancel", "request_id": "no-such"}],
        ))
        (reply,) = [e for e in events if e["event"] == "cancelled"]
        assert reply["request_id"] == "no-such"
        assert reply["cancelled"] is False

    def test_cancel_verb_requires_request_id(self):
        events = asyncio.run(_round_trip(
            [{"op": "cancel"}],
            stop_after=lambda ev: ev[-1]["event"] == "error",
        ))
        assert "request_id" in events[-1]["message"]

    def test_deadline_s_rides_the_wire(self):
        # An already-expired deadline: the request is accepted, then
        # fails with exactly one error event naming the deadline.
        events = asyncio.run(_round_trip(
            [{"backend": "rule", "count": 2, "deadline_s": 1e-9}],
        ))
        kinds = [e["event"] for e in events]
        assert kinds.count("error") == 1
        assert "deadline" in events[kinds.index("error")]["message"]
        assert "result" not in kinds

    def test_bad_deadline_s_rejected(self):
        events = asyncio.run(_round_trip(
            [{"backend": "rule", "count": 2, "deadline_s": "soon"}],
            stop_after=lambda ev: ev[-1]["event"] == "error",
        ))
        assert events[-1]["event"] == "error"


class TestErrors:
    def test_unknown_backend_reports_error_event(self):
        events = asyncio.run(_round_trip(
            [{"backend": "no-such-backend", "count": 1}],
            stop_after=lambda ev: ev[-1]["event"] == "error",
        ))
        assert "unknown backend" in events[-1]["message"]

    def test_bad_json_reports_error_and_keeps_connection(self):
        async def run():
            service = GenerationService()
            await service.start()
            server = await serve(service, "127.0.0.1", 0,
                                 default_deck="advanced")
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"this is not json\n")
                writer.write(b'{"backend": "rule", "count": 2}\n')
                await writer.drain()
                writer.write_eof()
                events = []
                while True:
                    raw = await asyncio.wait_for(reader.readline(), timeout=30)
                    if not raw:
                        break
                    events.append(json.loads(raw))
                writer.close()
                await writer.wait_closed()
                return events
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        events = asyncio.run(run())
        kinds = [e["event"] for e in events]
        assert kinds[0] == "error"  # the bad line
        assert "result" in kinds  # the good line still served

    def test_missing_fields_rejected(self):
        events = asyncio.run(_round_trip(
            [{"count": 3}],
            stop_after=lambda ev: ev[-1]["event"] == "error",
        ))
        assert "backend" in events[-1]["message"]

    def test_non_positive_count_rejected(self):
        events = asyncio.run(_round_trip(
            [{"backend": "rule", "count": 0}],
            stop_after=lambda ev: ev[-1]["event"] == "error",
        ))
        assert "count" in events[-1]["message"]

    @pytest.mark.parametrize("request_id", ["ok\n", "a" * 64 + "\n"])
    def test_trailing_newline_request_id_rejected(self, request_id):
        events = asyncio.run(_round_trip(
            [{"backend": "rule", "count": 2, "request_id": request_id}],
            stop_after=lambda ev: ev[-1]["event"] == "error",
        ))
        assert "request_id" in events[-1]["message"]


class TestHardening:
    """Satellite: malformed frames get structured errors, never a dead
    accept loop."""

    async def _raw_session(self, payloads, *, limit=None, extra_lines=()):
        """Send raw byte lines; collect events until EOF."""
        from repro.service.server import serve as serve_fn

        service = GenerationService()
        await service.start()
        kwargs = {"default_deck": "advanced"}
        if limit is not None:
            kwargs["limit"] = limit
        server = await serve_fn(service, "127.0.0.1", 0, **kwargs)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for payload in payloads:
                writer.write(payload)
            await writer.drain()
            writer.write_eof()
            events = []
            while True:
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                if not raw:
                    break
                events.append(json.loads(raw))
            writer.close()
            await writer.wait_closed()
            return events
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()

    def test_non_dict_json_line_reports_error_and_survives(self):
        events = asyncio.run(self._raw_session([
            b"[1, 2, 3]\n",
            b'"just a string"\n',
            b'{"op": "ping"}\n',
        ]))
        kinds = [e["event"] for e in events]
        assert kinds[:2] == ["error", "error"]
        assert "JSON object" in events[0]["message"]
        assert kinds[-1] == "pong"  # connection survived both

    def test_non_string_op_reports_error_and_survives(self):
        events = asyncio.run(self._raw_session([
            b'{"op": 42}\n',
            b'{"op": {"nested": true}}\n',
            b'{"op": "ping"}\n',
        ]))
        kinds = [e["event"] for e in events]
        assert kinds[:2] == ["error", "error"]
        assert "'op' must be a string" in events[0]["message"]
        assert kinds[-1] == "pong"

    def test_unknown_op_reports_error_and_survives(self):
        events = asyncio.run(self._raw_session([
            b'{"op": "reboot"}\n',
            b'{"op": "ping"}\n',
        ]))
        assert events[0]["event"] == "error"
        assert "unknown op" in events[0]["message"]
        assert events[-1]["event"] == "pong"

    def test_oversized_line_reports_error_then_closes(self):
        # Beyond the stream limit the reader cannot resynchronise, so
        # the server reports once and hangs up — without crashing the
        # accept loop (a fresh connection still works).
        async def run():
            from repro.service.server import serve as serve_fn

            service = GenerationService()
            await service.start()
            server = await serve_fn(
                service, "127.0.0.1", 0,
                default_deck="advanced", limit=1024,
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=1 << 20
                )
                writer.write(b"x" * 4096 + b"\n")
                await writer.drain()
                events = []
                while True:
                    raw = await asyncio.wait_for(
                        reader.readline(), timeout=30
                    )
                    if not raw:
                        break  # server closed the connection
                    events.append(json.loads(raw))
                writer.close()
                await writer.wait_closed()
                # The accept loop must still be alive for new clients.
                reader2, writer2 = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer2.write(b'{"op": "ping"}\n')
                await writer2.drain()
                pong = json.loads(await asyncio.wait_for(
                    reader2.readline(), timeout=30
                ))
                writer2.close()
                await writer2.wait_closed()
                return events, pong
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        events, pong = asyncio.run(run())
        assert len(events) == 1
        assert events[0]["event"] == "error"
        assert "too long" in events[0]["message"]
        assert pong["event"] == "pong"

    def test_disconnect_cancels_unfinished_requests(self):
        # A client that submits and vanishes must not leave its request
        # burning compute time.  A clean FIN is indistinguishable from the
        # legitimate write_eof() pipelining pattern, so "vanished" means
        # the connection *errors*: an abortive close (RST) aborts the
        # server's pending read, and the handler cancels every submitted
        # request that has not finished.  The wide gather window keeps
        # the request at the dispatch boundary so the cancel lands.
        import socket
        import struct

        from repro.service import SchedulerConfig, ServiceConfig

        async def run():
            from repro.service.server import serve as serve_fn

            service = GenerationService(ServiceConfig(
                scheduler=SchedulerConfig(gather_window_s=0.5),
            ))
            await service.start()
            server = await serve_fn(service, "127.0.0.1", 0,
                                    default_deck="advanced")
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b'{"backend": "rule", "count": 3}\n')
                await writer.drain()
                accepted = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=30
                ))
                assert accepted["event"] == "accepted"
                # Vanish abortively: SO_LINGER(on, 0) turns close() into
                # an RST, the kernel-level signature of a dead client.
                sock = writer.transport.get_extra_info("socket")
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                writer.close()
                for _ in range(200):
                    if service.stats.cancelled:
                        break
                    await asyncio.sleep(0.02)
                return service.stats.cancelled
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()

        assert asyncio.run(run()) == 1
