"""Chaos suite: deterministic fault injection across the serving stack.

Every test drives a real failure through the real recovery path — retry,
deadline drop, torn checkpoint — under a
:class:`~repro.service.FaultPlan`, and asserts the tentpole contracts:
surviving requests are **bit-identical** to a fault-free serial run,
every failed/cancelled/expired request gets **exactly one** terminal
error, and the ordered commit stage never stalls (every ticket
resolves) at any executor job count.  Cancellation and drain, which
both topologies must honour alike, live in ``test_contract.py``.
"""

import json

import numpy as np
import pytest

from repro.engine import GenerationRequest, RetryPolicy, run_generation
from repro.library import InMemoryStore, load_library, save_library
from repro.service import (
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
    active_plan,
    clear_faults,
    injection_stats,
    install_faults,
    maybe_fire,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks into (or out of) any test."""
    clear_faults()
    yield
    clear_faults()


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
    assert a.admitted == b.admitted


# ----------------------------------------------------------------------
# Plan parsing and the injector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trips(self):
        plan = FaultPlan.parse("model:raise@2, snapshot:crash@1,snapshot:torn,")
        assert [str(s) for s in plan] == [
            "model:raise@2", "snapshot:crash@1", "snapshot:torn@1",
        ]

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="bad fault entry"):
            FaultPlan.parse("model")
        with pytest.raises(ValueError, match="occurrence"):
            FaultPlan.parse("model:raise@soon")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("warp:raise@1")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("pool:crash@1")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.parse("model:explode@1")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("model", "raise", 0)
        with pytest.raises(ValueError):
            FaultSpec("nowhere", "raise")


class TestInjector:
    def test_fires_at_the_named_occurrence_exactly_once(self):
        install_faults("model:raise@2")
        assert maybe_fire("model") is None  # call 1: no fault
        with pytest.raises(InjectedFault):
            maybe_fire("model")  # call 2: fires
        assert maybe_fire("model") is None  # call 3: spent
        stats = injection_stats()
        assert stats["installed"] is True
        assert stats["fired"] == ["model:raise@2"]
        assert stats["calls"]["model"] == 3
        assert stats["pending"] == 0

    def test_non_raise_actions_are_returned_for_the_site(self):
        install_faults("snapshot:torn@1")
        assert maybe_fire("snapshot") == "torn"
        assert maybe_fire("snapshot") is None

    def test_sites_count_independently(self):
        install_faults("model:raise@1,drc:raise@1")
        # Each site keeps its own occurrence counter: both @1 specs fire.
        with pytest.raises(InjectedFault):
            maybe_fire("drc")
        with pytest.raises(InjectedFault):
            maybe_fire("model")
        assert injection_stats()["pending"] == 0

    def test_protected_scope_fires_only_inside_protected_regions(self):
        from repro.service.faults import protected

        install_faults("model:raise@1", scope="protected")
        # Unprotected calls neither fire nor advance the counter...
        assert maybe_fire("model") is None
        assert injection_stats()["calls"] == {}
        # ...so the first *protected* call is occurrence 1 and fires.
        with protected():
            with pytest.raises(InjectedFault):
                maybe_fire("model")
        assert injection_stats()["fired"] == ["model:raise@1"]
        assert injection_stats()["scope"] == "protected"

    def test_protected_scope_plan_covers_a_served_request(self):
        # The service marks its retried stages as protected regions, so
        # an env-style protected plan injects into a served request and
        # is recovered transparently — while a bare run_generation of
        # the same request (unprotected engine path) never sees it.
        from repro.engine import run_generation

        request = _rule_requests(1)[0]
        reference = run_generation(request)
        install_faults("model:raise@1", scope="protected")
        assert run_generation(_rule_requests(1)[0]).attempts  # untouched
        assert injection_stats()["fired"] == []
        with ServiceClient(ServiceConfig()) as client:
            served = client.generate(_rule_requests(1)[0])
        assert injection_stats()["fired"] == ["model:raise@1"]
        assert client.service.stats.retries == 1
        _assert_batches_identical(served, reference)

    def test_install_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="scope"):
            install_faults("model:raise@1", scope="everywhere")

    def test_install_replaces_and_clear_disarms(self):
        install_faults("model:raise@1")
        assert len(active_plan()) == 1
        install_faults(FaultPlan((FaultSpec("drc", "raise"),)))
        assert [s.site for s in active_plan()] == ["drc"]
        clear_faults()
        assert active_plan() is None
        assert injection_stats() == {"installed": False, "fired": []}
        assert maybe_fire("model") is None  # disarmed sites are no-ops


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_s_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest(backend="rule", count=1, deadline_s=0.0)
        with pytest.raises(ValueError):
            GenerationRequest(backend="rule", count=1, deadline_s=-2.0)
        with pytest.raises(ValueError):
            GenerationRequest(backend="rule", count=1, deadline_s=float("inf"))
        with pytest.raises(ValueError):
            GenerationRequest(backend="rule", count=1, deadline_s=True)

    def test_expired_request_fails_with_exactly_one_error(self):
        with ServiceClient(ServiceConfig()) as client:
            ticket = client.submit(GenerationRequest(
                backend="rule", count=2, seed=0, deadline_s=1e-9,
            ))
            with pytest.raises(DeadlineExceeded, match="deadline"):
                ticket.result(timeout=60)
            stats = client.service.stats
            assert stats.deadline_drops == 1
            assert stats.failed == 1
            assert stats.completed == 0

    def test_generous_deadline_serves_normally(self):
        request = GenerationRequest(backend="rule", count=3, seed=5)
        reference = run_generation(request)
        with ServiceClient(ServiceConfig()) as client:
            served = client.generate(GenerationRequest(
                backend="rule", count=3, seed=5, deadline_s=300.0,
            ))
            assert client.service.stats.deadline_drops == 0
        _assert_batches_identical(reference, served)

    def test_expired_request_never_stalls_later_commits(self):
        # The expired request is dropped at dispatch and holds nothing
        # up: requests behind it in arrival order commit normally.
        with ServiceClient(ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )) as client:
            doomed = client.submit(GenerationRequest(
                backend="rule", count=2, seed=0, deadline_s=1e-9,
            ))
            healthy = [client.submit(r) for r in _rule_requests(3, base_seed=1)]
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=60)
            for ticket in healthy:
                ticket.result(timeout=60)  # must not hang
            assert client.service.stats.completed == 3


# ----------------------------------------------------------------------
# Retry and degradation
# ----------------------------------------------------------------------
class TestRetryRecovery:
    def test_injected_model_fault_is_retried_bit_identically(self):
        """Tentpole: a transient model-stage fault is retried with a
        re-seeded rng; the served result equals the fault-free run."""
        requests = _rule_requests(3, base_seed=10)
        reference = [run_generation(r) for r in requests]
        install_faults("model:raise@1")
        with ServiceClient(ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )) as client:
            served = client.generate_many(requests)
            stats = client.service.stats
        assert injection_stats()["fired"] == ["model:raise@1"]
        assert stats.retries == 1
        assert stats.failed == 0
        for a, b in zip(reference, served):
            _assert_batches_identical(a, b)

    def test_injected_drc_fault_is_retried_bit_identically(self):
        requests = _rule_requests(2, base_seed=30)
        reference = [run_generation(r) for r in requests]
        install_faults("drc:raise@1")
        with ServiceClient(ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )) as client:
            served = client.generate_many(requests)
            stats = client.service.stats
        assert stats.retries >= 1
        assert stats.failed == 0
        for a, b in zip(reference, served):
            _assert_batches_identical(a, b)

    @pytest.mark.parametrize(
        "site, max_batch",
        [pytest.param("model", n, id=str(n)) for n in (1, 2, 4)]
        + [pytest.param("drc", n, id=f"drc-{n}") for n in (1, 2, 4)],
    )
    def test_exhausted_retries_fail_exactly_one_request(self, site, max_batch):
        """With retries disabled, one injected model or DRC fault fails
        exactly one request; survivors are bit-identical and the ordered
        commit stage never stalls — at any micro-batch size.  Only the
        packed model stage is shared, and the rule backend has none."""
        requests = _rule_requests(4, base_seed=50)
        reference = [run_generation(r) for r in requests]
        install_faults(f"{site}:raise@1")
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=1),
            scheduler=SchedulerConfig(
                max_batch_requests=max_batch, gather_window_s=0.05
            ),
        )
        with ServiceClient(config) as client:
            tickets = [client.submit(r) for r in requests]
            outcomes = []
            for ticket in tickets:
                try:
                    outcomes.append(ticket.result(timeout=120))
                except InjectedFault as error:
                    outcomes.append(error)
            stats = client.service.stats
        failures = [o for o in outcomes if isinstance(o, Exception)]
        assert len(failures) == 1, "exactly one terminal error expected"
        assert stats.failed == 1
        assert stats.completed == len(requests) - 1
        assert stats.retries == 0
        for outcome, ref in zip(outcomes, reference):
            if not isinstance(outcome, Exception):
                _assert_batches_identical(outcome, ref)

    def test_admit_fault_fails_only_its_request(self):
        requests = _rule_requests(3, base_seed=70)
        reference = [run_generation(r) for r in requests]
        install_faults("admit:raise@1")
        with ServiceClient(ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )) as client:
            tickets = [client.submit(r) for r in requests]
            outcomes = []
            for ticket in tickets:
                try:
                    outcomes.append(ticket.result(timeout=120))
                except InjectedFault as error:
                    outcomes.append(error)
            stats = client.service.stats
        failures = [o for o in outcomes if isinstance(o, Exception)]
        assert len(failures) == 1
        assert stats.failed == 1
        assert stats.completed == 2
        for outcome, ref in zip(outcomes, reference):
            if not isinstance(outcome, Exception):
                _assert_batches_identical(outcome, ref)


# ----------------------------------------------------------------------
# Crash-safe checkpoints under injection
# ----------------------------------------------------------------------
def _clip(seed):
    img = np.zeros((8, 8), dtype=np.uint8)
    img[:, seed % 5: seed % 5 + 2 + seed % 3] = 1
    return img


def _same_library(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


class TestSnapshotFaults:
    def test_torn_snapshot_loses_only_the_new_generation(self, tmp_path):
        """Tentpole: a torn write during checkpoint N+1 leaves the
        directory loading checkpoint N."""
        first = [_clip(i) for i in range(6)]
        store = InMemoryStore(list(first), name="chk")
        save_library(store, tmp_path / "lib")
        store.admit(_clip(7))
        install_faults("snapshot:torn@1")
        with pytest.raises(InjectedFault):
            save_library(store, tmp_path / "lib")
        clear_faults()
        _same_library(load_library(tmp_path / "lib"),
                      InMemoryStore(first))

    def test_crash_before_manifest_promotion_keeps_current(self, tmp_path):
        first = [_clip(i) for i in range(5)]
        store = InMemoryStore(list(first), name="chk")
        save_library(store, tmp_path / "lib")
        store.admit(_clip(6))
        install_faults("snapshot:crash@1")
        with pytest.raises(InjectedFault):
            save_library(store, tmp_path / "lib")
        clear_faults()
        # The manifest was never promoted: the old generation still loads,
        # and the next save supersedes the orphaned shard files cleanly.
        _same_library(load_library(tmp_path / "lib"),
                      InMemoryStore(first))
        save_library(store, tmp_path / "lib")
        _same_library(load_library(tmp_path / "lib"), store)

    def test_raise_action_aborts_before_writing(self, tmp_path):
        store = InMemoryStore([_clip(i) for i in range(4)])
        save_library(store, tmp_path / "lib")
        before = sorted(p.name for p in (tmp_path / "lib").iterdir())
        install_faults("snapshot:raise@1")
        with pytest.raises(InjectedFault):
            save_library(store, tmp_path / "lib")
        clear_faults()
        assert sorted(p.name for p in (tmp_path / "lib").iterdir()) == before

    def test_session_with_unloadable_snapshot_starts_cold(self, tmp_path):
        """Satellite: a session whose snapshot is torn beyond fallback
        serves from an empty store instead of refusing the tenant."""
        from repro.library import MANIFEST_NAME
        from repro.service import SessionConfig, SessionManager

        root = tmp_path / "sessions"
        store = InMemoryStore([_clip(i) for i in range(4)])
        save_library(store, root / "tenant")
        (root / "tenant" / MANIFEST_NAME).write_text("torn{")
        manager = SessionManager(SessionConfig(snapshot_root=root))
        session = manager.get("tenant")
        assert len(session.store) == 0
        assert manager.load_fallbacks == 1
