"""GenerationService behaviour: determinism under concurrency, streaming,
session merges, arrival-ordered commits across compatibility keys and
priorities, crash isolation, stage histograms, error paths."""

import threading

import numpy as np
import pytest

from repro.core.library import PatternLibrary
from repro.drc import advanced_deck
from repro.engine import BatchExecutor, GenerationRequest, run_generation
from repro.engine.backends import RuleBackend
from repro.geometry import Grid
from repro.service import (
    STAGES,
    GenerationService,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
    SessionConfig,
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


def _mixed_requests(deck, *, keys=3, per_key=2, count=4, base_seed=0):
    """Requests spanning ``keys`` compatibility keys (distinct params),
    grouped by key: k0, k0, k1, k1, ..."""
    return [
        GenerationRequest(
            backend="rule", count=count, seed=base_seed + 10 * k + j,
            deck=deck, params={"variant": k},
        )
        for k in range(keys)
        for j in range(per_key)
    ]


class _BombBackend:
    """A backend whose model stage always raises."""

    name = "test-bomb"

    def __init__(self, deck=None):
        self._deck = deck

    @property
    def deck(self):
        return self._deck

    def propose(self, request, rng):
        raise RuntimeError("compute bomb")


def _assert_batches_identical(a, b):
    assert a.attempts == b.attempts
    assert len(a.clips) == len(b.clips)
    for x, y in zip(a.clips, b.clips):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.legal, b.legal)
    assert a.admitted == b.admitted


class TestDeterminismUnderConcurrency:
    """Satellite: N concurrent clients == N serial run_generation calls."""

    def test_concurrent_submissions_bit_identical_to_serial(self, deck):
        requests = _requests(deck, 8)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.02)
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            assert client.service.stats.peak_coalesced > 1  # really coalesced
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)

    def test_concurrent_client_threads_bit_identical_to_serial(self, deck):
        requests = _requests(deck, 6, count=4, base_seed=20)
        serial = [run_generation(request) for request in requests]
        results: dict[int, object] = {}
        with ServiceClient() as client:
            def worker(i):
                results[i] = client.generate(requests[i])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(requests))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, reference in enumerate(serial):
            _assert_batches_identical(reference, results[i])

    def test_pooled_service_matches_serial(self, deck):
        # A concurrent batch through the whole service stack (coalesced
        # micro-batch, one DRC sweep, ordered commit) stays bit-identical.
        requests = _requests(deck, 4, count=6, base_seed=40)
        serial = [run_generation(request) for request in requests]
        with ServiceClient(ServiceConfig()) as client:
            served = client.generate_many(requests)
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)

    def test_arrival_order_session_merge_is_deterministic(self, deck):
        """Satellite: session deltas merge in arrival order -> one snapshot."""
        requests = _requests(deck, 6, count=4, base_seed=7)
        # Serial reference: one store, requests admitted in order.
        reference = PatternLibrary(name="ref")
        for request in requests:
            run_generation(request, library=reference)

        for trial in range(2):  # repeatable across service instances
            config = ServiceConfig(
                scheduler=SchedulerConfig(gather_window_s=0.02)
            )
            with ServiceClient(config) as client:
                client.generate_many(requests, session="tenant")
                store = client.service.sessions.get("tenant").store
            assert len(store) == len(reference)
            for a, b in zip(reference, store):
                np.testing.assert_array_equal(a, b)

    def test_session_admission_counts_reflect_cross_client_dedup(self, deck):
        request = GenerationRequest(backend="rule", count=5, seed=3, deck=deck)
        twin = GenerationRequest(backend="rule", count=5, seed=3, deck=deck)
        with ServiceClient() as client:
            first = client.generate(request, session="shared")
            second = client.generate(twin, session="shared")
        assert first.admitted > 0
        assert second.admitted == 0  # same seed: all duplicates in-session


class TestMixedKeys:
    """Several compatibility keys in one burst: served output stays
    bit-identical to serial, and admissions stay in arrival order."""

    @pytest.mark.parametrize("keys", [1, 2, 4])
    def test_mixed_keys_bit_identical_to_serial(self, deck, keys):
        requests = _mixed_requests(deck, keys=keys, per_key=2, base_seed=100)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.02),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
        for reference, got in zip(serial, served):
            _assert_batches_identical(reference, got)

    def test_pooled_mixed_keys_bit_identical_to_serial(self, deck):
        requests = _mixed_requests(
            deck, keys=2, per_key=2, count=5, base_seed=200
        )
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.02),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
        for reference, got in zip(serial, served):
            _assert_batches_identical(reference, got)

    def test_threaded_mixed_key_clients_bit_identical_to_serial(self, deck):
        requests = _mixed_requests(
            deck, keys=4, per_key=2, count=3, base_seed=300
        )
        serial = [run_generation(request) for request in requests]
        results = [None] * len(requests)
        with ServiceClient() as client:
            def worker(i):
                results[i] = client.generate(requests[i])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(requests))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for reference, got in zip(serial, results):
            _assert_batches_identical(reference, got)

    @pytest.mark.parametrize("order", ["grouped", "interleaved"])
    def test_mixed_key_admissions_in_arrival_order(
        self, deck, order, monkeypatch
    ):
        """The ordered commit stage: the session store must grow exactly
        like a serial loop.  Interleaved keys (k0, k1, k2, k0, k1, k2)
        coalesce into per-key micro-batches that compute arrivals 0, 3,
        1, 4, 2, 5, so the commit stage has to put them back in order.
        Every admission runs on the compute thread: the service starts
        no thread of its own besides it."""
        requests = _mixed_requests(
            deck, keys=3, per_key=2, count=4, base_seed=400
        )
        if order == "interleaved":
            requests = requests[0::2] + requests[1::2]
        reference = PatternLibrary(name="ref")
        for request in requests:
            run_generation(request, library=reference)

        admitted_on = []
        admit_batch = BatchExecutor.admit_batch

        def recording_admit_batch(self, *args, **kwargs):
            admitted_on.append(threading.current_thread().name)
            return admit_batch(self, *args, **kwargs)

        monkeypatch.setattr(BatchExecutor, "admit_batch", recording_admit_batch)
        for trial in range(2):
            config = ServiceConfig(
                scheduler=SchedulerConfig(gather_window_s=0.02),
            )
            with ServiceClient(config) as client:
                client.generate_many(requests, session="tenant")
                store = client.service.sessions.get("tenant").store
                running = [t.name for t in threading.enumerate()]
            assert not any(n.startswith("repro-service-commit") for n in running)
            assert len(store) == len(reference)
            for a, b in zip(reference, store):
                np.testing.assert_array_equal(a, b)
        assert len(admitted_on) == 2 * len(requests)
        assert all(n.startswith("repro-service-compute") for n in admitted_on)

    def test_priority_runs_later_arrival_first_but_commits_in_arrival_order(
        self, deck, monkeypatch
    ):
        """In one gather window, later arrivals on a second key carry a
        higher priority, so their micro-batch runs first; the session
        store still grows exactly like a serial loop in submission order."""
        requests = [
            GenerationRequest(
                backend="rule", count=4, seed=600 + i, deck=deck,
                params={"variant": variant}, priority=priority,
            )
            for i, (variant, priority) in enumerate(
                [(0, 0), (0, 0), (1, 5), (1, 0)]
            )
        ]
        reference = PatternLibrary(name="ref")
        serial = [
            run_generation(request, library=reference) for request in requests
        ]

        proposed = []
        propose = RuleBackend.propose

        def recording_propose(self, request, *args, **kwargs):
            proposed.append(request.params["variant"])
            return propose(self, request, *args, **kwargs)

        monkeypatch.setattr(RuleBackend, "propose", recording_propose)
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.5),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests, session="tenant")
            store = client.service.sessions.get("tenant").store
            stats = client.service.stats
        assert (stats.cycles, stats.micro_batches) == (1, 2)
        # Every variant-1 proposal (arrivals 2, 3) ran before any
        # variant-0 one (arrivals 0, 1).
        first_k0 = proposed.index(0)
        assert set(proposed[:first_k0]) == {1}
        assert 1 not in proposed[first_k0:]
        for reference_batch, got in zip(serial, served):
            _assert_batches_identical(reference_batch, got)
        assert len(store) == len(reference)
        for a, b in zip(reference, store):
            np.testing.assert_array_equal(a, b)


class TestCrashIsolation:
    @pytest.fixture(autouse=True)
    def _bomb(self):
        from repro.engine import register_backend

        register_backend("test-bomb", _BombBackend, overwrite=True)

    def test_crash_spares_other_keys_and_admission_order(self, deck):
        """A backend blowing up fails only its own requests; co-arriving
        requests of other keys still serve, and the session store still
        matches the serial reference of the survivors in arrival order."""
        good = _mixed_requests(deck, keys=2, per_key=2, count=4, base_seed=500)
        bad = [
            GenerationRequest(backend="test-bomb", count=1, deck=deck)
            for _ in range(2)
        ]
        # Interleave: good, bad, good, bad, good, good (arrival order).
        submissions = [good[0], bad[0], good[1], bad[1], good[2], good[3]]
        reference = PatternLibrary(name="ref")
        for request in good:
            run_generation(request, library=reference)

        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            tickets = [
                client.submit(request, session="t") for request in submissions
            ]
            for request, ticket in zip(submissions, tickets):
                if request.backend == "test-bomb":
                    with pytest.raises(RuntimeError, match="compute bomb"):
                        ticket.result(timeout=60)
                else:
                    ticket.result(timeout=60)
            stats = client.service.stats
            store = client.service.sessions.get("t").store
            assert len(store) == len(reference)
            for a, b in zip(reference, store):
                np.testing.assert_array_equal(a, b)
        assert stats.failed == len(bad)
        assert stats.completed == len(good)

    def test_service_survives_crash_for_later_requests(self, deck):
        with ServiceClient() as client:
            bomb = client.submit(
                GenerationRequest(backend="test-bomb", count=1, deck=deck)
            )
            with pytest.raises(RuntimeError, match="compute bomb"):
                bomb.result(timeout=60)
            # The compute thread and the commit stage both survived:
            # later requests (any key) still serve.
            after = client.generate(
                GenerationRequest(backend="rule", count=3, seed=9, deck=deck),
                timeout=60,
            )
            assert after.legal_count == 3


class TestStageTelemetry:
    def test_stage_histograms_cover_every_request(self, deck):
        requests = _mixed_requests(deck, keys=2, per_key=2, base_seed=600)
        with ServiceClient() as client:
            client.generate_many(requests)
            stats = client.service.stats
            depths = client.service.queue_depths()
        n = len(requests)
        for stage in STAGES:
            assert stats.stages[stage].count == n, stage
        assert depths == {"submit": 0, "in_flight": 0}


class TestStreaming:
    def test_result_without_consuming_chunks(self, deck):
        request = GenerationRequest(backend="rule", count=3, seed=2, deck=deck)
        with ServiceClient() as client:
            assert client.generate(request).legal_count == 3


class TestLifecycleAndErrors:
    def test_submit_requires_running_service(self, deck):
        client = ServiceClient()
        with pytest.raises(RuntimeError):
            client.submit(
                GenerationRequest(backend="rule", count=1, deck=deck)
            )

    def test_failing_backend_fails_only_its_request(self, deck):
        from repro.engine import CandidateBatch, register_backend

        class ExplodingBackend:
            name = "test-exploding"

            def __init__(self, deck=None):
                self._deck = deck

            @property
            def deck(self):
                return self._deck

            def propose(self, request, rng):
                raise RuntimeError("boom")

        register_backend("test-exploding", ExplodingBackend, overwrite=True)
        good = GenerationRequest(backend="rule", count=3, seed=0, deck=deck)
        bad = GenerationRequest(backend="test-exploding", count=1, deck=deck)
        with ServiceClient() as client:
            bad_ticket = client.submit(bad)
            good_ticket = client.submit(good)
            with pytest.raises(RuntimeError, match="boom"):
                bad_ticket.result()
            assert good_ticket.result().legal_count == 3
            assert client.service.stats.failed == 1
            assert client.service.stats.completed == 1

    def test_close_is_idempotent(self, deck):
        client = ServiceClient().start()
        client.generate(GenerationRequest(backend="rule", count=2, deck=deck))
        client.close()
        client.close()

    def test_stopped_service_restarts_and_serves(self, deck):
        # Nothing from the last run (its arrival indices included) may
        # hold a restarted service's first request back.
        service = GenerationService()
        for seed in range(2):
            request = GenerationRequest(
                backend="rule", count=2, seed=seed, deck=deck
            )
            with ServiceClient(service=service) as client:
                _assert_batches_identical(
                    run_generation(request), client.generate(request, timeout=60)
                )

    def test_stop_mid_gather_fails_dequeued_requests(self, deck):
        # A request pulled into a (long) gather window when the service
        # stops must resolve with an error, not hang forever.
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=30.0)
        )
        client = ServiceClient(config).start()
        ticket = client.submit(
            GenerationRequest(backend="rule", count=2, deck=deck)
        )
        import time

        time.sleep(0.05)  # let the scheduler dequeue it into the window
        client.close()
        with pytest.raises(RuntimeError, match="stopped"):
            ticket.result(timeout=10)

    def test_poisoned_request_fields_fail_only_their_batch(self, deck):
        # compatibility_key() reprs user-supplied params on the
        # scheduler loop; a repr that raises must fail that request,
        # not kill the scheduler for every later client.
        class ReprBomb:
            def __repr__(self):
                raise RuntimeError("repr bomb")

        bad = GenerationRequest(
            backend="rule", count=1, deck=deck, params={"x": ReprBomb()}
        )
        good = GenerationRequest(backend="rule", count=2, seed=1, deck=deck)
        with ServiceClient() as client:
            bad_ticket = client.submit(bad)
            with pytest.raises(RuntimeError, match="repr bomb"):
                bad_ticket.result(timeout=30)
            # The scheduler loop survived: later requests still serve.
            assert client.generate(good, timeout=30).legal_count == 2
            assert client.service.stats.failed == 1

    def test_poisoned_request_does_not_fail_co_arriving_requests(self, deck):
        # Both requests land in ONE gather window; only the poisoned one
        # may fail.
        class ReprBomb:
            def __repr__(self):
                raise RuntimeError("repr bomb")

        bad = GenerationRequest(
            backend="rule", count=1, deck=deck, params={"x": ReprBomb()}
        )
        good = GenerationRequest(backend="rule", count=2, seed=9, deck=deck)
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.2)
        )
        with ServiceClient(config) as client:
            bad_ticket = client.submit(bad)
            good_ticket = client.submit(good)
            with pytest.raises(RuntimeError, match="repr bomb"):
                bad_ticket.result(timeout=30)
            assert good_ticket.result(timeout=30).legal_count == 2
            assert client.service.stats.failed == 1
            assert client.service.stats.completed == 1

    def test_factories_without_tuning_kwargs_still_work(self, deck):
        from repro.engine import get_backend
        from repro.service import GenerationService

        def strict_factory(name, deck=None):
            kwargs = {"deck": deck} if deck is not None else {}
            return get_backend(name, **kwargs)

        service = GenerationService(
            ServiceConfig(), backend_factory=strict_factory
        )
        request = GenerationRequest(backend="rule", count=2, deck=deck)
        with ServiceClient(service=service) as client:
            assert client.generate(request).attempts == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_size=0)
        with pytest.raises(TypeError):  # no worker-count knob
            ServiceConfig(jobs=2)


class TestSessionPersistence:
    def test_checkpoints_between_batches_and_at_shutdown(self, tmp_path, deck):
        from repro.library import load_library

        config = ServiceConfig(
            sessions=SessionConfig(
                snapshot_root=tmp_path,
                checkpoint_every=2,
            ),
        )
        requests = _requests(deck, 3, count=4, base_seed=60)
        with ServiceClient(config) as client:
            batches = client.generate_many(requests, session="tenant-a")
            total = sum(b.admitted for b in batches)
            # Two of the three merged batches crossed the interval.
            assert client.service.sessions.get("tenant-a").checkpoints >= 1
        # close() checkpoints once more: the snapshot holds everything.
        store = load_library(tmp_path / "tenant-a")
        assert len(store) == total
        assert store.name == "tenant-a"

    def test_restarted_service_resumes_from_snapshot(self, tmp_path, deck):
        config = ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path)
        )
        request = GenerationRequest(backend="rule", count=5, seed=3, deck=deck)
        with ServiceClient(config) as client:
            first = client.generate(request, session="t")
        assert first.admitted > 0
        # New service, same snapshot root: same seed is all duplicates.
        twin = GenerationRequest(backend="rule", count=5, seed=3, deck=deck)
        with ServiceClient(ServiceConfig(
            sessions=SessionConfig(snapshot_root=tmp_path)
        )) as client:
            second = client.generate(twin, session="t")
        assert second.admitted == 0
