"""Fleet front behaviour: cross-process bit-identity, routing, snapshot
reconciliation, crash recovery, and the aggregated stats/health surface.

The determinism tests here mirror ``test_service.py`` one level up:
fleet outputs must be bit-identical to a serial
``run_generation`` pass (and hence to a 1-worker service) for any fleet
width.  ``TestFleetChaos`` runs only under a ``fleet``-site fault plan
(the CI chaos job exports ``REPRO_FAULTS=fleet:kill@1``) because killed
workers legitimately fail their in-flight requests.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.library import PatternLibrary
from repro.drc import advanced_deck
from repro.engine import GenerationRequest, run_generation
from repro.geometry import Grid
from repro.library import load_library, save_library
from repro.service import (
    FleetConfig,
    FleetService,
    ServiceClient,
    ServiceConfig,
    SessionConfig,
    active_plan,
)
from repro.service.fleet import WORKER_SUBDIR, reconcile_worker_snapshots

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
        requests = _requests(deck, 6, base_seed=40)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(jobs=2)
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

    def test_sessions_pin_to_one_worker(self, deck, tmp_path):
        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path)
        )
        with _fleet_client(2, config) as client:
            for request in _requests(deck, 4, base_seed=20):
                client.generate(request, session="pinned", timeout=120)
            depths = client.service.queue_depths()
            assert set(depths) == {"submit", "in_flight", "workers"}
        # Exactly one worker directory holds the session's snapshot.
        worker_dirs = sorted((tmp_path / WORKER_SUBDIR).iterdir())
        holders = [d for d in worker_dirs if (d / "pinned").is_dir()]
        assert len(holders) == 1

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


class TestReconcileWorkerSnapshots:
    """Pure on-disk merge logic — fault plans are irrelevant here."""

    def _store_from(self, deck, seeds, name):
        store = PatternLibrary(name=name)
        for seed in seeds:
            run_generation(
                GenerationRequest(backend="rule", count=4, seed=seed,
                                  deck=deck),
                library=store,
            )
        return store

    def test_merge_order_is_base_then_worker_index(self, deck, tmp_path):
        base = self._store_from(deck, [1], "s")
        w0 = self._store_from(deck, [2], "s")
        w1 = self._store_from(deck, [3], "s")
        save_library(base, tmp_path / "s")
        save_library(w0, tmp_path / WORKER_SUBDIR / "0000" / "s")
        save_library(w1, tmp_path / WORKER_SUBDIR / "0001" / "s")
        merged = reconcile_worker_snapshots(tmp_path)
        assert set(merged) == {"s"}
        store = load_library(tmp_path / "s", name="s")
        # Ordered delta merge: the shared root defines the base order,
        # then each worker's unseen patterns append in worker-index
        # order — same sequence as merging by hand.
        from repro.library import store_delta

        by_hand = base
        by_hand.merge(store_delta(w0))
        by_hand.merge(store_delta(w1))
        assert len(store) == len(by_hand)
        for got, want in zip(store.clips, by_hand.clips):
            np.testing.assert_array_equal(got, want)

    def test_single_worker_session_round_trips(self, deck, tmp_path):
        only = self._store_from(deck, [4, 5], "solo")
        save_library(only, tmp_path / WORKER_SUBDIR / "0000" / "solo")
        merged = reconcile_worker_snapshots(tmp_path)
        assert merged == {"solo": len(only)}
        store = load_library(tmp_path / "solo", name="solo")
        for got, want in zip(store.clips, only.clips):
            np.testing.assert_array_equal(got, want)

    def test_no_worker_dir_is_a_noop(self, tmp_path):
        assert reconcile_worker_snapshots(tmp_path) == {}

    def test_reconcile_is_idempotent(self, deck, tmp_path):
        solo = self._store_from(deck, [6], "t")
        save_library(solo, tmp_path / WORKER_SUBDIR / "0000" / "t")
        first = reconcile_worker_snapshots(tmp_path)
        second = reconcile_worker_snapshots(tmp_path)
        assert first == second


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
        for key in ("warm_caches", "faults", "queue_depth", "pack_fill"):
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
class TestFleetConfigResolution:
    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)

    def test_process_pool_service_config_rejected(self):
        # Daemonic workers cannot open process pools; the config must
        # say so up front instead of failing every affected request.
        with pytest.raises(ValueError, match="--workers"):
            FleetConfig(workers=2, service=ServiceConfig(model_jobs=2))
        # Thread pools inside a worker stay allowed.
        assert FleetConfig(workers=2, service=ServiceConfig(jobs=2)).workers == 2

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

    def test_respawned_worker_reloads_session_snapshot(self, deck, tmp_path):
        from repro.service import clear_faults, install_faults

        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path,
                                   checkpoint_every=1)
        )
        requests = _requests(deck, 4, base_seed=500)
        install_faults("fleet:kill@3", scope="all")
        try:
            with _fleet_client(1, config) as client:
                grown = []
                for request in requests:
                    try:
                        batch = client.generate(
                            request, session="t", timeout=120
                        )
                        grown.append(len(batch.library))
                    except Exception:  # noqa: BLE001 - the killed one
                        grown.append(None)
        finally:
            clear_faults()
        assert None in grown
        # The post-crash batches saw the checkpointed store, not an
        # empty one: library size keeps growing across the respawn.
        sizes = [g for g in grown if g is not None]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

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
