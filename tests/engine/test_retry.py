"""Retry policy and circuit breaker: the recovery primitives."""

import numpy as np
import pytest

from repro.engine import CircuitBreaker, RetryPolicy, TransientError


class TestRetryPolicy:
    def test_succeeds_first_try_without_sleeping(self):
        sleeps = []
        result = RetryPolicy().run(lambda: 42, sleep=sleeps.append)
        assert result == 42
        assert sleeps == []

    def test_retries_transient_errors_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("hiccup")
            return "ok"

        retries = []
        result = RetryPolicy(max_attempts=3).run(
            flaky,
            on_retry=lambda attempt, error: retries.append(attempt),
            sleep=lambda _: None,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert retries == [1, 2]  # 1-based retry numbers

    def test_exhausted_attempts_raise_the_last_error(self):
        def always_fails():
            raise TransientError("still broken")

        with pytest.raises(TransientError, match="still broken"):
            RetryPolicy(max_attempts=2).run(always_fails, sleep=lambda _: None)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = {"n": 0}

        def bug():
            calls["n"] += 1
            raise ValueError("programming error")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).run(bug, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_s=0.01, backoff_cap_s=0.05, jitter=0.0)
        delays = [policy.delay(k) for k in range(6)]
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert all(d == 0.05 for d in delays[3:])

    def test_jitter_is_deterministic_for_a_fixed_seed(self):
        policy = RetryPolicy(backoff_s=0.01, jitter=0.25)
        a = [policy.delay(k, np.random.default_rng(7)) for k in range(4)]
        b = [policy.delay(k, np.random.default_rng(7)) for k in range(4)]
        assert a == b
        # Jitter stays within the 1 +/- 0.25 band of the un-jittered delay.
        for k, delay in enumerate(a):
            base = policy.delay(k)
            assert 0.75 * base <= delay <= 1.25 * base

    def test_single_attempt_policy_never_retries(self):
        calls = {"n": 0}

        def fails():
            calls["n"] += 1
            raise TransientError("once")

        with pytest.raises(TransientError):
            RetryPolicy(max_attempts=1).run(fails, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(retryable=("not-a-type",))


class _Clock:
    """Manual monotonic clock for breaker tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_threshold_failures_in_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(3, window_s=10, cooldown_s=5, clock=clock)
        assert breaker.allow()
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third one trips it
        assert not breaker.allow()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_old_failures_age_out_of_the_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(3, window_s=10, cooldown_s=5, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 20.0  # both failures now outside the window
        assert not breaker.record_failure()
        assert breaker.allow()

    def test_half_open_trial_failure_counts_toward_reopening(self):
        clock = _Clock()
        breaker = CircuitBreaker(2, window_s=100, cooldown_s=5, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.trips == 2

