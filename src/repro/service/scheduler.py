"""Cross-client micro-batching: coalesce compatible queued requests.

The scheduler is deliberately pure — it takes the requests one gather
window collected off the queue and groups them into :class:`MicroBatch`\\ es
by :meth:`~repro.engine.GenerationRequest.compatibility_key` (same
backend, deck geometry, clip shape and params), preserving arrival order
inside every group.  The asyncio machinery that feeds it lives in
:mod:`repro.service.service`; keeping the grouping side-effect-free makes
the coalescing rules unit-testable without an event loop.

Ordering rules:

* within a micro-batch, requests keep **arrival order** — this is what
  makes session-store merges deterministic for a fixed submission order;
* micro-batches are ordered by the highest ``priority`` they contain
  (descending), ties broken by earliest arrival — priorities reorder
  whole batches, never the requests inside one;
* a group splits when it exceeds ``max_batch_requests`` requests or
  :data:`MAX_BATCH_ATTEMPTS` summed attempt counts, so one large client
  cannot stretch a micro-batch (and every co-batched client's latency)
  without bound.

Requests in one micro-batch share a compatibility key by construction,
which is exactly the precondition for their sampling chunks to share a
model invocation: the service hands their job lists and the backend's
chunk size to :meth:`repro.engine.BatchExecutor.run_model_packed`,
which packs the chunks with :func:`repro.engine.pack_chunks`.

Coalescing can run a later arrival before an earlier one (groups are
per key, ordered by priority), so the service's compute thread commits
each gather window in arrival order after its micro-batches run (see
:meth:`repro.service.GenerationService._serve_window`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..engine import GenerationRequest

__all__ = [
    "SchedulerConfig",
    "PendingRequest",
    "MicroBatch",
    "MicroBatchScheduler",
]

#: Summed attempt counts one micro-batch may hold (a single larger
#: request still gets a micro-batch of its own).
MAX_BATCH_ATTEMPTS = 1024


@dataclass(frozen=True)
class SchedulerConfig:
    """Coalescing knobs.

    ``gather_window_s`` is how long the service keeps the window open for
    co-arriving requests after the first one is dequeued (the classic
    micro-batching latency/throughput trade); ``max_batch_requests``
    and :data:`MAX_BATCH_ATTEMPTS` bound what one micro-batch may
    contain.
    """

    max_batch_requests: int = 8
    gather_window_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be positive")
        if self.gather_window_s < 0:
            raise ValueError("gather_window_s must be non-negative")


@dataclass
class PendingRequest:
    """A queued request plus its service-side bookkeeping.

    ``arrival`` is the service's increasing submission index — the
    canonical order for session merges (a gap in it is harmless).
    ``stream`` is the :class:`~repro.service.ResultStream` results are
    published to (typed ``Any`` to keep the scheduler import-light and
    testable standalone).
    ``submitted_at``/``dequeued_at`` are ``time.perf_counter()`` stamps
    feeding the service's ``queue``/``gather`` latency histograms.
    ``deadline_at`` is the absolute ``perf_counter`` deadline derived
    from the request's ``deadline_s`` at submission (``None`` = no
    deadline); the service checks it at stage boundaries and fails the
    request with ``DeadlineExceeded`` once passed.  ``cancelled`` is the
    cancel mark, set by the service's admission ledger and honoured at
    the same boundaries.
    """

    arrival: int
    request: GenerationRequest
    session_id: str | None = None
    stream: Any = None
    submitted_at: float = 0.0
    dequeued_at: float = 0.0
    deadline_at: float | None = None
    cancelled: bool = False


@dataclass
class MicroBatch:
    """Compatible requests the executor will serve as one unit."""

    key: tuple
    entries: list[PendingRequest] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        """Summed attempt counts across the batch's requests."""
        return sum(entry.request.count for entry in self.entries)

    @property
    def priority(self) -> int:
        """The batch's scheduling priority (highest member wins)."""
        return max(entry.request.priority for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class MicroBatchScheduler:
    """Groups pending requests into ordered micro-batches."""

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()

    def coalesce(self, pending: Sequence[PendingRequest]) -> list[MicroBatch]:
        """Group one gather window's requests into micro-batches."""
        cfg = self.config
        groups: dict[tuple, list[PendingRequest]] = {}
        for entry in sorted(pending, key=lambda p: p.arrival):
            key = entry.request.compatibility_key()
            groups.setdefault(key, []).append(entry)

        batches: list[MicroBatch] = []
        for key, entries in groups.items():
            batch = MicroBatch(key)
            attempts = 0
            for entry in entries:
                overfull = batch.entries and (
                    len(batch) >= cfg.max_batch_requests
                    or attempts + entry.request.count > MAX_BATCH_ATTEMPTS
                )
                if overfull:
                    batches.append(batch)
                    batch = MicroBatch(key)
                    attempts = 0
                batch.entries.append(entry)
                attempts += entry.request.count
            batches.append(batch)

        batches.sort(
            key=lambda b: (-b.priority, min(e.arrival for e in b.entries))
        )
        return batches
