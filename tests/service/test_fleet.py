"""Fleet front behaviour: cross-process bit-identity, routing, session
ownership, crash recovery, and the aggregated stats/health surface.

The determinism tests here mirror ``test_service.py`` one level up:
fleet outputs must be bit-identical to a serial
``run_generation`` pass (and hence to a 1-worker service) for any fleet
width.  ``TestFleetChaos`` runs only under a ``fleet``-site fault plan
(the CI chaos job exports ``REPRO_FAULTS=fleet:kill@1``) because killed
workers legitimately fail their in-flight requests.
"""

import asyncio
import concurrent.futures
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.library import PatternLibrary
from repro.drc import advanced_deck
from repro.engine import GenerationRequest, run_generation
from repro.geometry import Grid
from repro.library import load_library
from repro.service import (
    FleetConfig,
    FleetService,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
    SessionConfig,
    active_plan,
)

GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)


@pytest.fixture(scope="module")
def deck():
    return advanced_deck(GRID)


def _requests(deck, n, *, count=5, base_seed=0):
    return [
        GenerationRequest(backend="rule", count=count, seed=base_seed + i,
                          deck=deck)
        for i in range(n)
    ]


def _assert_batches_identical(a, b):
    assert a.attempts == b.attempts
    assert len(a.clips) == len(b.clips)
    for x, y in zip(a.clips, b.clips):
        np.testing.assert_array_equal(x, y)
    assert a.legal_count == b.legal_count
    assert a.admitted == b.admitted
    assert a.library_size == b.library_size


def _fleet_client(workers, config=None):
    return ServiceClient(
        service=FleetService(
            FleetConfig(workers=workers, service=config or ServiceConfig())
        )
    )


def _has_fleet_faults():
    plan = active_plan()
    return plan is not None and any(s.site == "fleet" for s in plan)


#: Applied per-class (not module-wide, so TestFleetChaos still runs):
#: under a fleet kill schedule, requests legitimately fail, so the
#: determinism/observability assertions move to TestFleetChaos.
_skip_under_fleet_faults = pytest.mark.skipif(
    _has_fleet_faults(),
    reason="fleet kill schedule active: determinism tests move to "
           "TestFleetChaos",
)


@_skip_under_fleet_faults
class TestFleetDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mixed_keys_bit_identical_to_serial(self, deck, workers):
        requests = [
            GenerationRequest(backend="rule", count=4, seed=s, deck=deck,
                              params={"variant": s % 3})
            for s in range(9)
        ]
        serial = [run_generation(request) for request in requests]
        with _fleet_client(workers) as client:
            batches = client.generate_many(requests)
        for expected, got in zip(serial, batches):
            _assert_batches_identical(expected, got)

    def test_jobs_inside_workers_stay_identical(self, deck):
        # An explicit ServiceConfig crosses into the forked workers intact.
        requests = _requests(deck, 6, base_seed=40)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(queue_size=3)
        with _fleet_client(2, config) as client:
            batches = client.generate_many(requests)
        for expected, got in zip(serial, batches):
            _assert_batches_identical(expected, got)

    def test_threaded_clients_bit_identical_to_serial(self, deck):
        requests = _requests(deck, 8, base_seed=70)
        serial = [run_generation(request) for request in requests]
        with _fleet_client(2) as client:
            results = [None] * len(requests)
            barrier = threading.Barrier(len(requests))

            def worker(index):
                barrier.wait()
                results[index] = client.generate(requests[index], timeout=120)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for expected, got in zip(serial, results):
            _assert_batches_identical(expected, got)

    def test_fleet_matches_one_worker_service(self, deck):
        requests = [
            GenerationRequest(backend="rule", count=4, seed=300 + s,
                              deck=deck, params={"variant": s % 2})
            for s in range(6)
        ]
        with ServiceClient(ServiceConfig()) as client:
            single = client.generate_many(requests)
        with _fleet_client(3) as client:
            fleet = client.generate_many(requests)
        for expected, got in zip(single, fleet):
            _assert_batches_identical(expected, got)


@_skip_under_fleet_faults
class TestFleetSessions:
    def test_session_store_matches_serial_growth(self, deck, tmp_path):
        requests = _requests(deck, 5, base_seed=10)
        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path)
        )
        with _fleet_client(2, config) as client:
            for request in requests:
                client.generate(request, session="tenant-a", timeout=120)
        reference = PatternLibrary(name="reference")
        for request in requests:
            run_generation(request, library=reference)
        merged = load_library(tmp_path / "tenant-a", name="tenant-a")
        assert len(merged) == len(reference)
        for got, expected in zip(merged.clips, reference.clips):
            np.testing.assert_array_equal(got, expected)
        # The owner worker checkpointed into the shared root directly.
        assert not (tmp_path / "workers").exists()

    def test_results_stay_small_as_the_session_grows(self, deck):
        # The session store stays in its worker: a result's pickled size
        # must not grow with the session's length.
        requests = _requests(deck, 200, count=2, base_seed=1000)
        with _fleet_client(1) as client:
            batches = client.generate_many(requests, session="long")
        first, last = (len(pickle.dumps(b)) for b in (batches[0], batches[-1]))
        assert last < 2 * first
        assert all(batch.library is None for batch in batches)
        reference = PatternLibrary(name="reference")
        sizes = [
            run_generation(request, library=reference).library_size
            for request in requests
        ]
        assert [batch.library_size for batch in batches] == sizes
        assert sizes[-1] == len(reference) > 100

    def test_sessions_pin_to_one_worker(self, deck, tmp_path):
        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path)
        )
        with _fleet_client(2, config) as client:
            for request in _requests(deck, 4, base_seed=20):
                client.generate(request, session="pinned", timeout=120)
            depths = client.service.queue_depths()
            assert set(depths) == {"submit", "in_flight", "workers"}
            workers = client.service.stats_payload()["fleet"]["workers"]
        # One worker owns the session: it was routed all four requests.
        assert sorted(entry["routed"] for entry in workers) == [0, 4]

    def test_sessions_beyond_the_key_table_keep_their_owner(self, deck):
        # More sessions than the 8-per-worker compatibility-key table
        # holds: a session's route must never be evicted, or a returning
        # session lands on a worker with an empty store.
        sessions = [f"s{i}" for i in range(17)]
        rounds = [
            _requests(deck, len(sessions), count=4, base_seed=base)
            for base in (800, 900)
        ]
        references = {sid: PatternLibrary(name=sid) for sid in sessions}
        expected = [
            run_generation(request, library=references[sid])
            for requests in rounds
            for sid, request in zip(sessions, requests)
        ]
        with _fleet_client(2) as client:
            got = [
                client.generate(request, session=sid, timeout=120)
                for requests in rounds
                for sid, request in zip(sessions, requests)
            ]
        assert [(b.admitted, b.library_size) for b in got] == [
            (b.admitted, b.library_size) for b in expected
        ]

    def test_two_tenants_reconcile_independently(self, deck, tmp_path):
        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path)
        )
        a = _requests(deck, 3, base_seed=30)
        b = _requests(deck, 3, base_seed=60)
        with _fleet_client(2, config) as client:
            for request in a:
                client.generate(request, session="tenant-a", timeout=120)
            for request in b:
                client.generate(request, session="tenant-b", timeout=120)
        for session_id, requests in (("tenant-a", a), ("tenant-b", b)):
            reference = PatternLibrary(name="reference")
            for request in requests:
                run_generation(request, library=reference)
            merged = load_library(tmp_path / session_id, name=session_id)
            assert len(merged) == len(reference)


@_skip_under_fleet_faults
class TestFleetObservability:
    def test_stats_payload_aggregates_workers(self, deck):
        requests = _requests(deck, 6, base_seed=80)
        with _fleet_client(2) as client:
            client.generate_many(requests)
            payload = client.service.stats_payload()
        assert payload["submitted"] == len(requests)
        assert payload["completed"] == len(requests)
        assert payload["failed"] == 0
        fleet = payload["fleet"]
        assert fleet["worker_count"] == 2
        assert fleet["workers_alive"] == 2
        assert len(fleet["workers"]) == 2
        routed = sum(entry["routed"] for entry in fleet["workers"])
        assert routed == len(requests)
        # Worker-side counters summed through the wire-format histogram
        # merge: every request passed the queue stage somewhere.
        assert payload["stages"]["queue"]["count"] == len(requests)
        assert payload["micro_batches"] >= 1
        # Single-process payload shape parity (the TCP stats verb).
        for key in ("faults", "queue_depth", "pack_fill"):
            assert key in payload

    def test_health_aggregates_workers(self, deck):
        with _fleet_client(2) as client:
            client.generate(
                _requests(deck, 1, base_seed=90)[0], timeout=120
            )
            health = client.service.health()
        assert health["status"] == "ok"
        assert health["worker_count"] == 2
        assert health["workers_alive"] == 2
        assert len(health["workers"]) == 2
        for entry in health["workers"]:
            assert entry["alive"] is True
            assert entry["health"]["status"] == "ok"
        for key in ("retries", "deadline_drops", "cancelled",
                    "respawns", "crashed_requests"):
            assert key in health

    def test_queue_depths_includes_front_queue(self, deck):
        with _fleet_client(2) as client:
            depths = client.service.queue_depths()
        assert depths["submit"] == 0
        assert depths["in_flight"] == 0
        assert set(depths["workers"]) == {0, 1}

    def test_stopped_fleet_reports_stopped(self):
        client = _fleet_client(2)
        client.start()
        client.close()
        assert client.service.health()["status"] == "stopped"
        assert client.service.running is False


@_skip_under_fleet_faults
class TestFleetFront:
    """The front only routes: no cross-worker publish order, a real
    capacity bound on accepted requests, and drain on that registry."""

    def test_slow_worker_does_not_hold_back_another(self, deck, sleepy):
        with _fleet_client(2) as client:
            slow = client.submit(sleepy(0, sleep_s=2.0))
            fast = client.submit(_requests(deck, 1, base_seed=1100)[0])
            # The rule request's key claims the idle worker; its result
            # publishes as soon as that worker commits it.
            assert fast.result(timeout=1.0).attempts == 5
            assert client.service.queue_depths()["in_flight"] == 1
            assert slow.result(timeout=30).attempts == 2
            names = {thread.name for thread in threading.enumerate()}
        assert "repro-fleet-router" not in names

    def test_submit_awaits_while_the_fleet_is_full(self, sleepy):
        # One worker with queue_size=1 and max_batch_requests=1 holds
        # 1 × (1 + max(1, 1)) = 2 accepted requests, like one process.
        config = ServiceConfig(
            queue_size=1, scheduler=SchedulerConfig(max_batch_requests=1)
        )
        with _fleet_client(1, config) as client:
            started = time.monotonic()
            first, second = (client.submit(sleepy(s)) for s in (1, 2))
            assert time.monotonic() - started < 0.5
            third = []

            def submit_third():
                ticket = client.submit(sleepy(3))
                # Capacity frees only when a request resolves, and the
                # first one resolves first: it is already done here.
                third.append((ticket, first.result(timeout=0)))

            thread = threading.Thread(target=submit_third)
            thread.start()
            thread.join(0.5)
            assert not third, "the third submit must await capacity"
            thread.join(60)
            assert third
            ticket, _ = third[0]
            for pending in (second, ticket):
                assert pending.result(timeout=60).attempts == 2

    def test_submit_cancelled_while_routing_resolves(self, deck):
        """A submit cancelled during its routing hop leaves no live entry:
        its accepted request resolves as cancelled, and drain returns."""
        release = threading.Event()
        with _fleet_client(1) as client:
            loop = client._loop
            # One executor thread, held busy, so the hop is still queued
            # when the submit is cancelled.
            executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
            loop.call_soon_threadsafe(loop.set_default_executor, executor)
            executor.submit(release.wait, 30)
            timer = threading.Timer(0.3, release.set)
            timer.start()
            request = _requests(deck, 1, base_seed=1400)[0]
            with pytest.raises(asyncio.TimeoutError):
                asyncio.run_coroutine_threadsafe(
                    asyncio.wait_for(client.service.submit(request), 0.05),
                    loop,
                ).result(timeout=30)
            timer.join(30)
            assert asyncio.run_coroutine_threadsafe(
                client.service.drain(10), loop
            ).result(timeout=30) is True
            assert client.service.queue_depths()["in_flight"] == 0
            assert client.service.stats.cancelled == 1

    def test_threaded_submits_at_capacity_resolve_once(self, deck):
        # More workers than cores, a capacity of 3 × 2 = 6 and eight
        # submitting threads on a short switch interval: a lost wakeup
        # hangs a submit, a lost update leaves a request live.
        import sys

        requests = _requests(deck, 24, count=2, base_seed=1300)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            queue_size=1, scheduler=SchedulerConfig(max_batch_requests=1)
        )
        results = [None] * len(requests)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _fleet_client(3, config) as client:

                def worker(offset):
                    for index in range(offset, len(requests), 8):
                        results[index] = client.generate(
                            requests[index], timeout=60
                        )

                threads = [
                    threading.Thread(target=worker, args=(offset,))
                    for offset in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
                depths = client.service.queue_depths()
                payload = client.service.stats_payload()
        finally:
            sys.setswitchinterval(interval)
        assert depths["in_flight"] == depths["submit"] == 0
        assert payload["submitted"] == payload["completed"] == len(requests)
        for expected, got in zip(serial, results):
            _assert_batches_identical(expected, got)

    def test_stop_fails_submits_waiting_for_capacity(self, sleepy):
        config = ServiceConfig(
            queue_size=1, scheduler=SchedulerConfig(max_batch_requests=1)
        )
        client = _fleet_client(1, config).start()
        for seed in (4, 5):
            client.submit(sleepy(seed))
        errors = []

        def submit_waiting():
            try:
                client.submit(sleepy(6))
            except RuntimeError as error:
                errors.append(error)

        thread = threading.Thread(target=submit_waiting)
        thread.start()
        thread.join(0.3)
        client.close()
        thread.join(30)
        assert not thread.is_alive()
        assert len(errors) == 1

@_skip_under_fleet_faults
class TestFleetConfigResolution:
    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)

    def test_client_rejects_service_plus_workers(self):
        from repro.service import GenerationService

        with pytest.raises(ValueError, match="not both"):
            ServiceClient(service=GenerationService(None), workers=2)


@_skip_under_fleet_faults
class TestFleetCrashRecovery:
    """Deterministic crash-path tests via a programmatic fleet kill plan.

    These install their own ``fleet:kill`` schedule (scope="all"; the
    forked workers inherit it and restart its counters), and are
    skipped when an environment schedule is already active — the CI
    chaos job covers that combination through ``TestFleetChaos``.
    """

    @staticmethod
    def _await_respawn(service, *, timeout=30.0):
        """Respawn is asynchronous (it runs on the dead worker's reader
        thread); poll health until the slot is live again."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            health = service.health()
            if health["respawns"] >= 1 and health["workers_alive"] >= 1:
                return health
            time.sleep(0.05)
        return service.health()

    def test_worker_crash_fails_inflight_survivors_identical(self, deck):
        from repro.service import clear_faults, install_faults

        burst = _requests(deck, 6, base_seed=400)
        followups = _requests(deck, 3, base_seed=450)
        serial_burst = [run_generation(request) for request in burst]
        serial_followups = [run_generation(request) for request in followups]
        install_faults("fleet:kill@2", scope="all")
        try:
            with _fleet_client(1) as client:
                tickets = [client.submit(r) for r in burst]
                outcomes = []
                for ticket in tickets:
                    try:
                        outcomes.append(ticket.result(timeout=120))
                    except Exception as error:  # noqa: BLE001
                        outcomes.append(error)
                health = self._await_respawn(client.service)
                # The respawned worker (kill spec stripped) serves new
                # requests bit-identically to serial.
                after = client.generate_many(followups)
                payload = client.service.stats_payload()
        finally:
            clear_faults()
        errors = [o for o in outcomes if isinstance(o, Exception)]
        assert errors, "the killed worker should fail its in-flight request"
        assert any("died" in str(e) for e in errors)
        # Exactly-once resolution: every ticket resolved one way.
        assert len(outcomes) == len(burst)
        # Requests that resolved before the crash match serial exactly.
        for expected, got in zip(serial_burst, outcomes):
            if not isinstance(got, Exception):
                _assert_batches_identical(expected, got)
        for expected, got in zip(serial_followups, after):
            _assert_batches_identical(expected, got)
        assert health["respawns"] >= 1
        assert payload["fleet"]["crashed_requests"] >= 1
        assert payload["completed"] + payload["failed"] == (
            len(burst) + len(followups)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_respawned_worker_reloads_session_snapshot(
        self, deck, tmp_path, workers
    ):
        from repro.service import clear_faults, install_faults

        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path,
                                   checkpoint_every=1)
        )
        requests = _requests(deck, 5, base_seed=500)
        # The session's owner dies on its third request.  With one
        # worker the respawned slot takes the session over; with two,
        # the other worker does.  Either way the new owner loads the
        # last checkpoint.
        install_faults("fleet:kill@3", scope="all")
        try:
            with _fleet_client(workers, config) as client:
                grown = []
                for request in requests:
                    try:
                        batch = client.generate(
                            request, session="t", timeout=120
                        )
                        grown.append(batch.library_size)
                    except Exception:  # noqa: BLE001 - the killed one
                        grown.append(None)
                        self._await_respawn(client.service)
        finally:
            clear_faults()
        assert grown[2] is None
        assert None not in grown[:2] + grown[3:]
        # The post-crash batches saw the checkpointed store, not an
        # empty one: library size keeps growing across the crash.
        assert grown[3] > grown[1]
        sizes = [g for g in grown if g is not None]
        assert sizes == sorted(sizes)

    def test_no_respawn_when_disabled(self, deck):
        from repro.service import clear_faults, install_faults

        install_faults("fleet:kill@1", scope="all")
        try:
            config = FleetConfig(
                workers=1, service=ServiceConfig(), respawn=False
            )
            with ServiceClient(service=FleetService(config)) as client:
                with pytest.raises(Exception, match="died|no live"):
                    client.generate(
                        _requests(deck, 1, base_seed=600)[0], timeout=120
                    )
                health = client.service.health()
                assert health["respawns"] == 0
                assert health["workers_alive"] == 0
                assert health["status"] == "degraded"
        finally:
            clear_faults()


@pytest.mark.skipif(
    not _has_fleet_faults(),
    reason="needs a fleet-site REPRO_FAULTS schedule (CI chaos job)",
)
class TestFleetChaos:
    """Run under ``REPRO_FAULTS=fleet:kill@1``: every worker's first
    submit kills it; the front must fail those requests terminally,
    respawn each slot once, and serve the survivors bit-identically."""

    def test_kill_schedule_resolves_every_request(self, deck):
        requests = _requests(deck, 8, base_seed=700)
        serial = [run_generation(request) for request in requests]
        with _fleet_client(2) as client:
            outcomes = []
            for request in requests:
                try:
                    outcomes.append(client.generate(request, timeout=120))
                except Exception as error:  # noqa: BLE001
                    outcomes.append(error)
            health = client.service.health()
        assert len(outcomes) == len(requests)
        survivors = [o for o in outcomes if not isinstance(o, Exception)]
        assert survivors, "respawned workers must serve later requests"
        for expected, got in zip(serial, outcomes):
            if not isinstance(got, Exception):
                _assert_batches_identical(expected, got)
        assert health["respawns"] >= 1
