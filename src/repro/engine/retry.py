"""Retry, backoff and circuit-breaking primitives for the serving stack.

Two small, composable pieces:

* :class:`RetryPolicy` — bounded retries with capped exponential backoff
  and optional *deterministic* jitter: the caller supplies the
  :class:`numpy.random.Generator` (typically derived from the request's
  own seed), so two runs of the same request retry on the same schedule.
  Only :attr:`~RetryPolicy.retryable` exception types are retried —
  programming errors (``ValueError`` et al.) propagate immediately.
* :class:`CircuitBreaker` — a failure-windowed breaker: ``threshold``
  failures inside ``window_s`` open it for ``cooldown_s``; while open,
  :meth:`~CircuitBreaker.allow` returns ``False`` so callers degrade
  (the fleet stops respawning a crash-looping worker slot).  Once the
  cooldown lapses, calls are allowed again; failures keep counting
  toward the next trip.

:class:`TransientError` is the marker base class for errors that are
worth retrying by construction — the fault-injection harness's
``InjectedFault`` (:mod:`repro.service.faults`) subclasses it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "TransientError",
    "RetryPolicy",
    "CircuitBreaker",
]


class TransientError(RuntimeError):
    """An error that is expected to succeed on retry (worker hiccup,
    injected fault, racy resource) — the default retryable marker."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff and seeded jitter.

    ``max_attempts`` counts *total* attempts (1 = no retries).  Attempt
    ``k``'s backoff is ``min(backoff_cap_s, backoff_s * 2**k)``, scaled
    by a jitter factor drawn uniformly from ``1 ± jitter`` when a
    generator is supplied to :meth:`run` — pass one derived from the
    request's seed and the whole retry schedule is deterministic.
    """

    max_attempts: int = 3
    backoff_s: float = 0.01
    backoff_cap_s: float = 0.5
    jitter: float = 0.25
    retryable: tuple = field(
        default=(TransientError, OSError, TimeoutError)
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff seconds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        for exc in self.retryable:
            if not (isinstance(exc, type) and issubclass(exc, BaseException)):
                raise ValueError(
                    f"retryable entries must be exception types, got {exc!r}"
                )

    def delay(
        self, attempt: int, rng: "np.random.Generator | None" = None
    ) -> float:
        """Backoff before retry number ``attempt`` (0-based), in seconds."""
        base = min(self.backoff_cap_s, self.backoff_s * (2.0 ** attempt))
        if rng is not None and self.jitter > 0.0:
            base *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(0.0, base)

    def run(
        self,
        fn: Callable,
        *,
        rng: "np.random.Generator | None" = None,
        on_retry: "Callable[[int, BaseException], None] | None" = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        """Call ``fn()`` under this policy; returns its result.

        ``on_retry(attempt, error)`` runs before each retry (attempt is
        1-based: the retry about to happen) — the service uses it to
        re-seed a partially-consumed plan rng and count the retry.
        Non-retryable errors, and the final retryable one, propagate.
        """
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except self.retryable as error:
                if attempt + 1 >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt + 1, error)
                pause = self.delay(attempt, rng)
                if pause > 0.0:
                    sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover


class CircuitBreaker:
    """Failure-windowed breaker: closed -> open (cooldown) -> closed.

    ``threshold`` failures within ``window_s`` seconds trip the breaker
    open for ``cooldown_s``; :meth:`allow` then returns ``False`` so the
    caller takes its degraded path.  Once the cooldown lapses,
    :meth:`allow` returns ``True`` again; nothing closes the breaker
    early, and later failures count toward tripping it again.
    Thread-safe; ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        window_s: float = 60.0,
        cooldown_s: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if window_s <= 0 or cooldown_s <= 0:
            raise ValueError("window_s and cooldown_s must be positive")
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.trips = 0
        self._clock = clock
        self._failures: deque[float] = deque()
        self._open_until = 0.0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """True when a call may proceed (no cooldown holds)."""
        with self._lock:
            return self._clock() >= self._open_until

    def record_failure(self) -> bool:
        """Count one failure; returns True when this one tripped it open."""
        now = self._clock()
        with self._lock:
            self._failures.append(now)
            horizon = now - self.window_s
            while self._failures and self._failures[0] < horizon:
                self._failures.popleft()
            if len(self._failures) >= self.threshold:
                self._failures.clear()
                self._open_until = now + self.cooldown_s
                self.trips += 1
                return True
            return False

    @property
    def state(self) -> str:
        """``"open"`` while the cooldown holds, else ``"closed"``."""
        return "closed" if self.allow() else "open"

