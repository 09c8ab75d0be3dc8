"""Library admit throughput bench: per-clip vs batched.

Measures admission on a synthetic 10k-clip workload with the duplication
profile of the iterative loop (every pattern proposed roughly twice):

* **per-clip**  — ``store.admit`` in a loop: one scalar hash + one set probe
  per clip (the seed's ``PatternLibrary.add`` behaviour);
* **batched**   — ``InMemoryStore.admit_many``: one vectorised hash pass
  over the whole batch, vectorised copy of admitted rows.

Gate: batched admission >= 2x the per-clip baseline's throughput.  Runs
standalone (``python benchmarks/bench_library.py``) or under pytest.
"""

import time

import numpy as np

try:  # pytest package-relative vs standalone-script import
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    def report(title: str, text: str) -> None:
        print(f"\n=== {title} ===\n{text}")

from repro.experiments.common import format_table
from repro.library import InMemoryStore

TOTAL_CLIPS = 10_000
UNIQUE_CLIPS = 5_000
CLIP_SHAPE = (32, 32)


def _workload() -> list[np.ndarray]:
    """10k synthetic binary clips, each unique pattern appearing ~twice."""
    rng = np.random.default_rng(42)
    unique = rng.integers(0, 2, size=(UNIQUE_CLIPS, *CLIP_SHAPE), dtype=np.uint8)
    picks = rng.integers(0, UNIQUE_CLIPS, size=TOTAL_CLIPS)
    return [unique[i] for i in picks]


def _best_of(runs: int, fn) -> float:
    """Best wall-clock of ``runs`` calls (shields CI from scheduler noise)."""
    return min(_timed(fn) for _ in range(runs))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_bench(runs: int = 5) -> dict[str, float]:
    """Time both admission modes; returns seconds per mode."""
    clips = _workload()

    def per_clip():
        store = InMemoryStore()
        for clip in clips:
            store.admit(clip)

    def batched():
        InMemoryStore().admit_many(clips)

    return {
        "per-clip": _best_of(runs, per_clip),
        "batched": _best_of(runs, batched),
    }


def render(times: dict[str, float]) -> str:
    rows = [
        [
            mode,
            round(seconds, 4),
            round(TOTAL_CLIPS / seconds),
            round(times["per-clip"] / seconds, 1),
        ]
        for mode, seconds in times.items()
    ]
    return format_table(
        ["mode", "seconds", "clips/s", "speedup vs per-clip"],
        rows,
        title=(
            f"Library admit throughput ({TOTAL_CLIPS} clips, "
            f"{UNIQUE_CLIPS} unique)"
        ),
    )


class TestLibraryThroughput:
    def test_batched_admit_at_least_2x_per_clip(self):
        times = run_bench()
        report("bench_library: admission modes", render(times))
        assert times["batched"] * 2.0 <= times["per-clip"], (
            f"batched={times['batched']:.4f}s per-clip={times['per-clip']:.4f}s: "
            "batched admission must be >= 2x per-clip throughput"
        )

    def test_all_modes_admit_identical_contents(self):
        clips = _workload()[:2_000]
        a = InMemoryStore()
        for clip in clips:
            a.admit(clip)
        b = InMemoryStore()
        b.admit_many(clips)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


if __name__ == "__main__":  # pragma: no cover
    print(render(run_bench()))
