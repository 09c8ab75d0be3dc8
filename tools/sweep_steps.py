#!/usr/bin/env python3
"""Sampler step sweep: the paper's loop at several DDIM step counts.

Runs the ``loop-sd1ft`` configuration (10 starters x all 10 masks, then
one PCA-seeded iterative round of 100 samples, eta 0.3, model batch 64)
for every step count in ``STEPS``, model in ``MODELS`` and loop seed in
``SEEDS``, and prints the markdown table that the "Sampler steps"
section of ``docs/EXPERIMENTS.md`` records, followed by the step count
the adoption rule picks::

    PYTHONPATH=src python tools/sweep_steps.py

Each row pools its seeds: legality is legal / generated over all loops
(each loop generates 200 clips; the next column holds each seed's
legal count), admitted is the mean count of clips a loop admitted, H2
the mean final-library H2, and inpaint s/sample the Table II
model-stage seconds per sample.

*Adoption rule.* ``SAMPLE_STEPS`` should be the smallest count whose
pooled legality and mean H2 stay within seed noise of the largest count
on every model.  A model's seed noise for a metric is +- half the
largest per-seed range (max - min) of that metric in any of the model's
rows: how far one seed moves the metric at a fixed step count.

Models load through :func:`repro.zoo.artifacts.finetuned`, so
``REPRO_ARTIFACTS`` picks the checkpoint directory, and a missing
checkpoint trains first (``sd2`` takes ~10 min on a 2-core host).  The
sweep itself takes ~5 min there.  CI does not run it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.pipeline import PatternPaint, PatternPaintConfig
from repro.diffusion.inpaint import InpaintConfig
from repro.zoo.artifacts import finetuned
from repro.zoo.corpora import experiment_deck, starter_patterns

STEPS = (5, 8, 10, 20)
MODELS = ("sd1-ft", "sd2-ft")
SEEDS = (0, 1, 2)
STARTERS = 10
ITER_SAMPLES = 100
MODEL_BATCH = 64
METRICS = ("legality", "h2")


def run_loop(ddpm, deck, starters, steps: int, seed: int) -> dict:
    """One loop; the paper runs seed their loops with ``10_000 + seed``."""
    pipeline = PatternPaint(
        ddpm,
        deck,
        PatternPaintConfig(
            inpaint=InpaintConfig(num_steps=steps),
            model_batch=MODEL_BATCH,
            select_k=20,
            samples_per_iteration=ITER_SAMPLES,
        ),
    )
    pipeline.engine.cache.clear()
    result = pipeline.run(
        starters,
        np.random.default_rng(10_000 + seed),
        iterations=1,
        samples_per_iteration=ITER_SAMPLES,
    )
    return {
        "generated": result.total_generated,
        "legal": result.total_legal,
        "admitted": sum(s.admitted for s in result.stats),
        "h2": result.stats[-1].h2,
        "inpaint_s": sum(s.inpaint_seconds for s in result.stats),
    }


def summarize(loops: list[dict]) -> dict:
    generated = sum(loop["generated"] for loop in loops)
    return {
        "legality": sum(loop["legal"] for loop in loops) / generated,
        "legality_seeds": [loop["legal"] / loop["generated"] for loop in loops],
        "legal_counts": [loop["legal"] for loop in loops],
        "admitted": float(np.mean([loop["admitted"] for loop in loops])),
        "h2": float(np.mean([loop["h2"] for loop in loops])),
        "h2_seeds": [loop["h2"] for loop in loops],
        "inpaint_s_per_sample": sum(loop["inpaint_s"] for loop in loops) / generated,
    }


def seed_noise(rows: list[dict], metric: str) -> float:
    """Half the largest per-seed range of ``metric`` over ``rows``."""
    return max(max(row[f"{metric}_seeds"]) - min(row[f"{metric}_seeds"])
               for row in rows) / 2


def noise_table(table: dict[tuple[str, int], dict]) -> dict[tuple[str, str], float]:
    """Seed noise per ``(model, metric)``."""
    return {
        (model, metric): seed_noise([table[model, steps] for steps in STEPS], metric)
        for model in MODELS
        for metric in METRICS
    }


def adopted_steps(table: dict[tuple[str, int], dict]) -> int:
    reference = max(STEPS)
    noise = noise_table(table)
    for steps in sorted(STEPS):
        if all(
            table[model, steps][metric]
            >= table[model, reference][metric] - noise[model, metric]
            for model in MODELS
            for metric in METRICS
        ):
            return steps
    return reference


def format_rows(table: dict[tuple[str, int], dict]) -> list[str]:
    lines = [
        "| model | steps | legality | legal per seed | admitted | H2 | inpaint s/sample |",
        "|---|---|---|---|---|---|---|",
    ]
    for (model, steps), row in table.items():
        counts = " / ".join(str(c) for c in row["legal_counts"])
        lines.append(
            f"| `{model}` | {steps} | {row['legality']:.3f} | {counts} "
            f"| {row['admitted']:.1f} | {row['h2']:.2f} "
            f"| {row['inpaint_s_per_sample'] * 1000:.1f} ms |"
        )
    return lines


def main() -> int:
    deck = experiment_deck()
    starters = starter_patterns(20)[:STARTERS]
    table: dict[tuple[str, int], dict] = {}
    for model in MODELS:
        ddpm = finetuned(model.rsplit("-", 1)[0])
        for steps in STEPS:
            t0 = time.monotonic()
            loops = [run_loop(ddpm, deck, starters, steps, seed) for seed in SEEDS]
            table[model, steps] = summarize(loops)
            print(
                f"# {model} {steps} steps: {time.monotonic() - t0:.1f} s",
                file=sys.stderr,
                flush=True,
            )
    print("\n".join(format_rows(table)))
    print()
    for (model, metric), value in noise_table(table).items():
        print(f"seed noise: {model} {metric} +-{value:.3f}")
    print(f"adopted: {adopted_steps(table)} steps")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
