"""Per-stage serving latency histograms.

The service answers "where does a request's time go" with numbers
rather than guesses:

* :class:`LatencyHistogram` — a fixed, log-spaced latency histogram
  (seconds in, milliseconds out).  Buckets double from 100 µs up to
  ~200 s plus one overflow bucket, so any serving latency lands in a
  bucket without per-request allocation; percentiles are read from the
  bucket boundaries (upper-bound estimates, exact count/total);
* :class:`StageLatencies` — one histogram per pipeline stage
  (:data:`STAGES`: ``queue``, ``gather``, ``model``, ``drc``,
  ``admit``).

The service keeps one :class:`StageLatencies` in
:class:`~repro.service.ServiceStats`; the ``op: "stats"`` TCP verb
exports it as JSON (see ``docs/SERVING.md`` for the wire format), and
the fleet front folds its workers' snapshots into one with
:meth:`StageLatencies.merge_snapshot`.  Both classes are thread-safe for
observation: the loop thread records queue/gather, and the compute
thread records model/drc and, as it commits, admit.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["STAGES", "LatencyHistogram", "StageLatencies"]

#: The five serving stages a request passes through, in pipeline order:
#: time waiting in the submit queue, time held by the gather window,
#: model sampling + per-request denoise, the request's own DRC check,
#: and the ordered admission/commit stage.
STAGES = ("queue", "gather", "model", "drc", "admit")

#: Log-spaced bucket upper bounds in seconds: 100 µs doubling to ~210 s.
#: Observations above the last bound land in one overflow bucket.
_BOUNDS = tuple(0.0001 * (2.0 ** i) for i in range(22))


class LatencyHistogram:
    """Thread-safe log-bucketed latency histogram (fixed memory).

    ``observe`` files one latency (seconds) into the first bucket whose
    upper bound contains it.  Percentiles are *upper-bound estimates*:
    :meth:`percentile` returns the boundary of the bucket the requested
    quantile falls in, so a reported p95 is a guaranteed ceiling at the
    histogram's (factor-of-two) resolution.  ``count``/``total_seconds``
    /``max_seconds`` are exact.
    """

    __slots__ = ("_counts", "_lock", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self._counts = [0] * (len(_BOUNDS) + 1)  # +1: overflow bucket
        self._lock = threading.Lock()
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """File one latency observation (negative clamps to zero)."""
        seconds = max(0.0, float(seconds))
        index = bisect_left(_BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total_seconds += seconds
            self.max_seconds = max(self.max_seconds, seconds)

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-th percentile, in seconds."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q / 100.0 * self.count
            cumulative = 0
            for index, bucket in enumerate(self._counts):
                cumulative += bucket
                if cumulative >= rank and bucket:
                    if index < len(_BOUNDS):
                        return min(_BOUNDS[index], self.max_seconds)
                    return self.max_seconds  # overflow bucket
            return self.max_seconds

    @classmethod
    def from_snapshot(cls, snap: dict) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`snapshot` wire payload.

        The inverse of :meth:`snapshot`, up to bucket resolution: bucket
        counts, ``count``, ``total_seconds`` and ``max_seconds`` round-
        trip exactly, so ``from_snapshot(a.snapshot()).merge(...)`` is
        how a fleet front folds per-worker histograms (received as JSON
        over the wire) into one fleet-wide histogram.  Unknown bucket
        bounds (a snapshot from a build with different ``_BOUNDS``) fold
        into the overflow bucket rather than raising.
        """
        hist = cls()
        bounds_ms = {round(bound * 1e3, 4): i for i, bound in enumerate(_BOUNDS)}
        for le_ms, n in snap.get("buckets", []):
            index = (
                len(_BOUNDS) if le_ms is None
                else bounds_ms.get(float(le_ms), len(_BOUNDS))
            )
            hist._counts[index] += int(n)
        hist.count = int(snap.get("count", 0))
        hist.total_seconds = float(snap.get("total_ms", 0.0)) / 1e3
        hist.max_seconds = float(snap.get("max_ms", 0.0)) / 1e3
        return hist

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Bucket counts add, ``count``/``total_seconds`` add and
        ``max_seconds`` takes the larger peak — exactly what observing
        the union of both histograms' samples would have produced, up to
        bucket resolution.  ``other`` is snapshotted under its own lock
        first (and left untouched), so merging is safe while either side
        is still observing; merging a histogram into itself is a no-op
        rather than a self-deadlock.  Merging an empty histogram changes
        nothing.  The aggregation primitive for rolling per-process
        histograms into fleet-wide ones.
        """
        if other is self:
            return
        with other._lock:
            counts = list(other._counts)
            count = other.count
            total = other.total_seconds
            peak = other.max_seconds
        with self._lock:
            for index, bucket in enumerate(counts):
                self._counts[index] += bucket
            self.count += count
            self.total_seconds += total
            self.max_seconds = max(self.max_seconds, peak)

    def snapshot(self) -> dict:
        """JSON-ready view: exact counters plus the non-empty buckets.

        ``buckets`` is a list of ``[le_ms, count]`` pairs — the bucket's
        inclusive upper bound in milliseconds (``null`` for the overflow
        bucket) and its observation count — omitting empty buckets so
        the wire payload stays small.
        """
        with self._lock:
            counts = list(self._counts)
            count = self.count
            total = self.total_seconds
            peak = self.max_seconds
        buckets = [
            [round(_BOUNDS[i] * 1e3, 4) if i < len(_BOUNDS) else None, n]
            for i, n in enumerate(counts)
            if n
        ]
        return {
            "count": count,
            "total_ms": round(total * 1e3, 3),
            "mean_ms": round(total / count * 1e3, 3) if count else 0.0,
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p95_ms": round(self.percentile(95) * 1e3, 3),
            "max_ms": round(peak * 1e3, 3),
            "buckets": buckets,
        }


class StageLatencies:
    """One :class:`LatencyHistogram` per serving stage (see :data:`STAGES`)."""

    __slots__ = ("_stages",)

    def __init__(self) -> None:
        self._stages = {stage: LatencyHistogram() for stage in STAGES}

    def observe(self, stage: str, seconds: float) -> None:
        self._stages[stage].observe(seconds)

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a wire-format :meth:`snapshot` payload into this instance.

        The fleet front aggregates per-worker stage histograms with this:
        each worker ships its ``stages`` snapshot over the wire, and the
        front rolls them all into one :class:`StageLatencies` through
        :meth:`LatencyHistogram.merge`.
        """
        for stage in STAGES:
            if stage in snap:
                self._stages[stage].merge(
                    LatencyHistogram.from_snapshot(snap[stage])
                )

    def __getitem__(self, stage: str) -> LatencyHistogram:
        return self._stages[stage]

    def snapshot(self) -> dict:
        """``{stage: histogram snapshot}`` for every stage, always all five."""
        return {stage: hist.snapshot() for stage, hist in self._stages.items()}

