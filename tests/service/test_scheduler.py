"""Micro-batch coalescing rules: grouping, ordering, splitting."""

import pytest

from repro.drc import advanced_deck, basic_deck
from repro.engine import GenerationRequest
from repro.geometry import Grid
from repro.service import MicroBatchScheduler, PendingRequest, SchedulerConfig
from repro.service.scheduler import MAX_BATCH_ATTEMPTS

GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)


def _pending(arrival, *, backend="rule", deck=None, count=4, seed=0, priority=0):
    return PendingRequest(
        arrival=arrival,
        request=GenerationRequest(
            backend=backend, count=count, seed=seed, deck=deck,
            priority=priority,
        ),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_requests=0)
        with pytest.raises(ValueError):
            SchedulerConfig(gather_window_s=-1.0)


class TestCoalescing:
    def test_compatible_requests_share_one_batch(self):
        deck = advanced_deck(GRID)
        pending = [_pending(i, deck=deck, seed=i) for i in range(5)]
        batches = MicroBatchScheduler().coalesce(pending)
        assert len(batches) == 1
        assert len(batches[0]) == 5
        assert [e.arrival for e in batches[0].entries] == [0, 1, 2, 3, 4]

    def test_incompatible_backends_split(self):
        deck = advanced_deck(GRID)
        pending = [
            _pending(0, backend="rule", deck=deck),
            _pending(1, backend="solver", deck=deck),
            _pending(2, backend="rule", deck=deck),
        ]
        batches = MicroBatchScheduler().coalesce(pending)
        assert len(batches) == 2
        by_backend = {b.entries[0].request.backend: b for b in batches}
        assert [e.arrival for e in by_backend["rule"].entries] == [0, 2]
        assert [e.arrival for e in by_backend["solver"].entries] == [1]

    def test_different_decks_split(self):
        pending = [
            _pending(0, deck=advanced_deck(GRID)),
            _pending(1, deck=basic_deck(GRID)),
        ]
        assert len(MicroBatchScheduler().coalesce(pending)) == 2

    def test_equal_decks_coalesce_across_instances(self):
        # Two independently built but identical decks are compatible.
        pending = [
            _pending(0, deck=advanced_deck(GRID)),
            _pending(1, deck=advanced_deck(GRID)),
        ]
        assert len(MicroBatchScheduler().coalesce(pending)) == 1

    def test_same_name_different_rules_never_coalesce(self):
        # Rule content participates in the key: a customized deck must not
        # share the other deck's DRC sweep just because the names match.
        from dataclasses import replace

        stock = advanced_deck(GRID)
        relaxed = replace(stock, rules=stock.rules[:-1])
        assert stock.name == relaxed.name
        pending = [_pending(0, deck=stock), _pending(1, deck=relaxed)]
        assert len(MicroBatchScheduler().coalesce(pending)) == 2

    def test_arrival_order_preserved_regardless_of_input_order(self):
        deck = advanced_deck(GRID)
        pending = [_pending(i, deck=deck) for i in (3, 0, 2, 1)]
        batches = MicroBatchScheduler().coalesce(pending)
        assert [e.arrival for e in batches[0].entries] == [0, 1, 2, 3]


class TestSplitting:
    def test_max_batch_requests_splits(self):
        deck = advanced_deck(GRID)
        scheduler = MicroBatchScheduler(SchedulerConfig(max_batch_requests=3))
        batches = scheduler.coalesce([_pending(i, deck=deck) for i in range(7)])
        assert [len(b) for b in batches] == [3, 3, 1]
        # Splits keep contiguous arrival ranges.
        assert [e.arrival for b in batches for e in b.entries] == list(range(7))

    def test_max_batch_attempts_splits(self):
        deck = advanced_deck(GRID)
        batches = MicroBatchScheduler().coalesce(
            [_pending(i, deck=deck, count=400) for i in range(4)]
        )
        assert MAX_BATCH_ATTEMPTS == 1024
        assert [b.attempts for b in batches] == [800, 800]

    def test_oversized_single_request_still_served(self):
        deck = advanced_deck(GRID)
        batches = MicroBatchScheduler().coalesce(
            [_pending(0, deck=deck, count=5000)]
        )
        assert len(batches) == 1 and batches[0].attempts == 5000


class TestPriorities:
    def test_higher_priority_batch_runs_first(self):
        deck = advanced_deck(GRID)
        pending = [
            _pending(0, backend="rule", deck=deck, priority=0),
            _pending(1, backend="solver", deck=deck, priority=5),
        ]
        batches = MicroBatchScheduler().coalesce(pending)
        assert batches[0].entries[0].request.backend == "solver"
        assert batches[0].priority == 5

    def test_priority_does_not_reorder_within_a_batch(self):
        deck = advanced_deck(GRID)
        pending = [
            _pending(0, deck=deck, priority=0),
            _pending(1, deck=deck, priority=9),
        ]
        batches = MicroBatchScheduler().coalesce(pending)
        assert len(batches) == 1
        assert [e.arrival for e in batches[0].entries] == [0, 1]

    def test_equal_priority_ties_break_by_arrival(self):
        deck = advanced_deck(GRID)
        pending = [
            _pending(0, backend="solver", deck=deck),
            _pending(1, backend="rule", deck=deck),
        ]
        batches = MicroBatchScheduler().coalesce(pending)
        assert batches[0].entries[0].request.backend == "solver"

