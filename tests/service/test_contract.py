"""The admission contract both serving topologies keep: cancellation,
drain, duplicate ids and session-id checks.

Every test runs once against a single-process ``GenerationService`` and
once against a two-worker ``FleetService`` (ids ``[service]`` and
``[fleet]``); both fronts keep these rules in one
:class:`~repro.service.service.Admissions` ledger.  The fleet cases skip
under a ``fleet``-site fault plan, where killed workers legitimately
fail requests.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.drc import advanced_deck
from repro.engine import GenerationRequest, run_generation
from repro.geometry import Grid
from repro.service import (
    FleetConfig,
    FleetService,
    RequestCancelled,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
    active_plan,
)

GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)


@pytest.fixture(scope="module")
def deck():
    return advanced_deck(GRID)


def _rule_requests(n, *, count=3, base_seed=0):
    return [
        GenerationRequest(backend="rule", count=count, seed=base_seed + i)
        for i in range(n)
    ]


def _assert_batches_identical(a, b):
    assert a.attempts == b.attempts
    assert len(a.clips) == len(b.clips)
    for x, y in zip(a.clips, b.clips):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.legal, b.legal)
    assert a.legal_count == b.legal_count
    assert a.admitted == b.admitted
    assert a.library_size == b.library_size


def _has_fleet_faults():
    plan = active_plan()
    return plan is not None and any(s.site == "fleet" for s in plan)


_skip_under_fleet_faults = pytest.mark.skipif(
    _has_fleet_faults(),
    reason="fleet kill schedule active: killed workers fail requests",
)

_FLEET_WORKERS = 2


@pytest.fixture(params=[
    pytest.param("service", id="service"),
    pytest.param("fleet", id="fleet", marks=_skip_under_fleet_faults),
])
def make_client(request):
    """A :class:`ServiceClient` factory over this case's topology."""

    def make(config=None):
        config = config or ServiceConfig()
        if request.param == "fleet":
            return ServiceClient(service=FleetService(
                FleetConfig(workers=_FLEET_WORKERS, service=config)
            ))
        return ServiceClient(config)

    return make


def _held(client, config):
    """How many requests the topology accepts before a ``submit`` awaits:
    ``queue_size + max(queue_size, max_batch_requests)`` per process."""
    workers = _FLEET_WORKERS if isinstance(client.service, FleetService) else 1
    per_process = config.queue_size + max(
        config.queue_size, config.scheduler.max_batch_requests
    )
    return workers * per_process


def _drain(client, timeout):
    return asyncio.run_coroutine_threadsafe(
        client.service.drain(timeout), client._loop
    ).result(timeout=120)


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_unknown_or_done_request_returns_false(self, make_client):
        with make_client() as client:
            assert client.service.cancel("no-such-id") is False
            ticket = client.submit(_rule_requests(1)[0])
            ticket.result(timeout=60)
            assert client.service.cancel(ticket.request_id) is False

    def test_cancelled_request_fails_with_request_cancelled(self, make_client):
        # A wide gather window keeps the request at the dispatch boundary
        # long enough for the cancel to land deterministically.
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.5),
        )
        with make_client(config) as client:
            ticket = client.submit(_rule_requests(1)[0])
            assert ticket.cancel() is True
            with pytest.raises(RequestCancelled):
                ticket.result(timeout=60)
            stats = client.service.stats
            assert stats.cancelled == 1
            assert stats.failed == 1

    def test_result_timeout_cancels_the_request(self, make_client):
        # A caller that gives up does not leak the request: the timeout
        # cancels it service-side.
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.5),
        )
        with make_client(config) as client:
            ticket = client.submit(_rule_requests(1)[0])
            with pytest.raises(TimeoutError, match="cancellation requested"):
                ticket.result(timeout=0.01)
            with pytest.raises(RequestCancelled):
                ticket.result(timeout=60)
            assert client.service.stats.cancelled == 1

    def test_cancel_right_after_submit_lands(self, make_client):
        """A ``True`` cancel right behind its submit lands: in a fleet the
        mark may reach the worker before its service registered the
        request, and must be held until it has."""
        # One gather window holds all 20 and stays open far longer than
        # the 20 submit+cancel pairs take, so every mark lands before
        # dispatch.
        config = ServiceConfig(scheduler=SchedulerConfig(
            gather_window_s=1.0, max_batch_requests=32
        ))
        with make_client(config) as client:
            tickets = []
            for request in _rule_requests(20, base_seed=60):
                ticket = client.submit(request)
                assert ticket.cancel() is True
                tickets.append(ticket)
            for ticket in tickets:
                with pytest.raises(RequestCancelled):
                    ticket.result(timeout=60)
            assert client.service.stats.cancelled == 20


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_refuses_new_work_and_finishes_inflight(self, make_client):
        with make_client(ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.02),
        )) as client:
            tickets = [client.submit(r) for r in _rule_requests(3)]
            assert _drain(client, 60) is True
            with pytest.raises(RuntimeError, match="draining"):
                client.submit(_rule_requests(1, base_seed=9)[0])
            for ticket in tickets:
                ticket.result(timeout=60)  # in-flight work completed
            assert client.service.health()["draining"] is True

    def test_drain_waits_for_a_request_in_the_gather_window(self, make_client):
        """A request the gather loop has dequeued but not yet dispatched
        is accepted work: drain must wait for it, so the stop() that
        follows (as in ``repro serve`` on SIGTERM) cannot drop it."""
        request = _rule_requests(1, base_seed=40)[0]
        serial = run_generation(request)
        client = make_client(ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.5),
        )).start()
        try:
            ticket = client.submit(request)
            time.sleep(0.05)  # inside the gather window
            assert _drain(client, 10) is True
        finally:
            client.close()
        _assert_batches_identical(serial, ticket.result(timeout=0))

    def test_drain_waits_for_accepted_requests(
        self, make_client, deck, sleepy
    ):
        with make_client() as client:
            ticket = client.submit(sleepy(7))
            assert _drain(client, 0.2) is False
            assert client.service.health()["draining"] is True
            with pytest.raises(RuntimeError, match="draining"):
                client.submit(GenerationRequest(
                    backend="rule", count=5, seed=1200, deck=deck
                ))
            assert _drain(client, None) is True
            assert client.service.queue_depths()["in_flight"] == 0
            assert ticket.result(timeout=0).attempts == 2

    def test_cancelled_submit_is_not_accepted(self, make_client, sleepy):
        """A submit cancelled while it waits for room was never accepted:
        later requests still commit, and drain does not wait for it."""
        config = ServiceConfig(
            queue_size=1,
            scheduler=SchedulerConfig(
                gather_window_s=0.0, max_batch_requests=1
            ),
        )
        with make_client(config) as client:
            held = _held(client, config)
            # Each request sleeps 1 s in propose, which holds the
            # topology full while the next submit waits.
            accepted = [client.submit(sleepy(0))]  # dispatched, computing
            time.sleep(0.05)
            accepted += [client.submit(sleepy(s)) for s in range(1, held)]
            with pytest.raises(asyncio.TimeoutError):
                asyncio.run_coroutine_threadsafe(
                    asyncio.wait_for(
                        client.service.submit(sleepy(held)), 0.05
                    ),
                    client._loop,
                ).result(timeout=30)
            later = client.submit(sleepy(held + 1))
            for ticket in accepted + [later]:
                ticket.result(timeout=30)
            assert _drain(client, 10) is True

    def test_submit_waiting_when_drain_begins_is_refused(
        self, make_client, sleepy
    ):
        """A submit that is not yet accepted when drain begins is refused
        with the draining error, wherever it waits: for the submit lock
        (service) or for capacity (fleet)."""
        config = ServiceConfig(
            queue_size=1,
            scheduler=SchedulerConfig(
                gather_window_s=0.0, max_batch_requests=1
            ),
        )
        with make_client(config) as client:
            held = _held(client, config)
            accepted = [client.submit(sleepy(seed)) for seed in range(held)]
            # Two more submits wait: a service accepts the first (it
            # holds the submit lock while the queue is full) and keeps
            # the second on the lock; a fleet keeps both outside.
            outcomes = [None, None]

            def submit(index):
                try:
                    outcomes[index] = client.submit(sleepy(held + index))
                except RuntimeError as error:
                    outcomes[index] = error

            threads = []
            for index in range(2):
                threads.append(threading.Thread(target=submit, args=(index,)))
                threads[-1].start()
                time.sleep(0.1)
            assert outcomes == [None, None], "both submits must still wait"
            assert _drain(client, 60) is True
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            last = outcomes[-1]
            assert isinstance(last, RuntimeError)
            assert "draining" in str(last)
            for ticket in accepted:
                assert ticket.result(timeout=0).attempts == 2
            first = outcomes[0]
            if isinstance(first, RuntimeError):
                assert "draining" in str(first)
            else:
                assert first.result(timeout=0).attempts == 2


# ----------------------------------------------------------------------
# Submission checks
# ----------------------------------------------------------------------
class TestSubmit:
    def test_invalid_session_id_fails_at_submit(self, make_client, deck):
        with make_client() as client:
            with pytest.raises(ValueError, match="session id"):
                client.submit(
                    GenerationRequest(backend="rule", count=1, deck=deck),
                    session="../escape",
                )

    def test_duplicate_live_request_id_is_refused(self, make_client, deck):
        # The first request waits in a gather window that only a second
        # accepted request closes, so it is live at the duplicate submit.
        # Both share one compatibility key, so a fleet routes them to
        # one worker.
        first, dup, other = (
            GenerationRequest(backend="rule", count=3, seed=seed, deck=deck,
                              request_id=rid)
            for seed, rid in ((1, "dup"), (2, "dup"), (3, "other"))
        )
        config = ServiceConfig(scheduler=SchedulerConfig(
            max_batch_requests=2, gather_window_s=30.0
        ))
        with make_client(config) as client:
            ticket = client.submit(first)
            with pytest.raises(ValueError, match="already in flight"):
                client.submit(dup)
            client.submit(other)
            _assert_batches_identical(
                ticket.result(timeout=60), run_generation(first)
            )
            # A resolved id is free again.
            again = client.submit(dup)
            client.submit(GenerationRequest(backend="rule", count=1,
                                            deck=deck))
            _assert_batches_identical(
                again.result(timeout=60), run_generation(dup)
            )
