"""Fixtures shared by the service test modules."""

import time

import pytest

from repro.engine import GenerationRequest, register_backend
from repro.engine.backends import RuleBackend


class _SleepyBackend(RuleBackend):
    """The rule backend, after sleeping ``params["sleep_s"]`` in propose."""

    name = "test-sleepy"

    def propose(self, request, rng):
        time.sleep(request.params["sleep_s"])
        return super().propose(request, rng)


@pytest.fixture
def sleepy(deck):
    """Registers the sleeping backend in the front, before any fleet forks
    (workers inherit it); returns a request factory.  ``deck`` is the
    requesting module's own fixture."""
    register_backend("test-sleepy", _SleepyBackend, overwrite=True)

    def make(seed, sleep_s=1.0):
        return GenerationRequest(backend="test-sleepy", count=2, seed=seed,
                                 deck=deck, params={"sleep_s": sleep_s})

    return make
