"""Engine throughput bench: serial vs cached DRC checking.

Measures `DrcEngine.check_batch` on a repeated-clip workload (the shape of
the iterative generation loop, where many re-seeded clips recur across
rounds and experiments re-score overlapping libraries):

* **serial**   — full rule sweep per clip, no cache;
* **cached**   — hash-keyed lookups after a single warm-up pass.

Acceptance target (ISSUE 1): cached re-checks >= 5x faster than uncached.
Runs standalone (``python benchmarks/bench_engine.py``) or under pytest.
"""

import time

import numpy as np

try:  # pytest package-relative vs standalone-script import
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    def report(title: str, text: str) -> None:
        print(f"\n=== {title} ===\n{text}")

from repro.baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from repro.drc.cache import clear_shared_caches
from repro.experiments.common import format_table
from repro.zoo.corpora import experiment_deck

UNIQUE_CLIPS = 60
REPEATS = 6  # workload = UNIQUE_CLIPS clips, each checked REPEATS times


def _workload():
    deck = experiment_deck()
    generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
    unique = generator.sample_many(UNIQUE_CLIPS, np.random.default_rng(42))
    return deck, unique * REPEATS


def run_bench() -> dict[str, float]:
    """Time both modes; returns seconds per mode (same workload)."""
    deck, clips = _workload()
    clear_shared_caches()

    engine = deck.engine()
    t0 = time.perf_counter()
    serial = engine.check_batch(clips, use_cache=False)
    serial_s = time.perf_counter() - t0

    engine.check_batch(clips)  # warm the hash-keyed cache
    t0 = time.perf_counter()
    cached = engine.check_batch(clips)
    cached_s = time.perf_counter() - t0

    assert list(serial) == list(cached)
    return {"serial": serial_s, "cached": cached_s}


def render(times: dict[str, float]) -> str:
    n = UNIQUE_CLIPS * REPEATS
    rows = [
        [mode, round(seconds, 4), round(n / seconds), round(times["serial"] / seconds, 1)]
        for mode, seconds in times.items()
    ]
    return format_table(
        ["mode", "seconds", "clips/s", "speedup vs serial"],
        rows,
        title=(
            f"Engine DRC throughput ({UNIQUE_CLIPS} unique clips x "
            f"{REPEATS} repeats)"
        ),
    )


class TestEngineThroughput:
    def test_cached_rechecks_at_least_5x_faster(self):
        times = run_bench()
        report("bench_engine: DRC check modes", render(times))
        assert times["cached"] * 5.0 <= times["serial"], (
            f"cached={times['cached']:.4f}s serial={times['serial']:.4f}s: "
            "cached re-checks must be >= 5x faster than uncached"
        )


if __name__ == "__main__":  # pragma: no cover
    print(render(run_bench()))
