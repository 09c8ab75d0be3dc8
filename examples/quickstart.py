"""Quickstart: generate DR-clean layout patterns from 20 starters.

Walks the full PatternPaint workflow on the node-A proxy deck:

1. load the few-shot finetuned diffusion model from the zoo (trains and
   caches it on first use — a few minutes on CPU);
2. run one initial inpainting round over the 20 starter patterns;
3. template-denoise, DRC-check and collect the legal pattern library;
4. print metrics and render a sample to PNG + GDSII.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import PatternPaint, PatternPaintConfig
from repro.io import clip_to_gds, clip_to_png, render_clip
from repro.metrics import summarize_library
from repro.zoo import experiment_deck, finetuned, starter_patterns


def main() -> None:
    deck = experiment_deck()
    starters = starter_patterns(20)
    print(f"deck: {deck.name} — {deck.description}")
    print(f"starters: {summarize_library(starters)}")

    print("\nloading finetuned model (trains + caches on first run) ...")
    model = finetuned("sd1")

    pipeline = PatternPaint(
        model,
        deck,
        PatternPaintConfig(
            variations_per_mask=1,
            model_batch=32,
        ),
    )
    rng = np.random.default_rng(0)
    print("running initial generation (20 starters x 10 masks) ...")
    library, stats, _ = pipeline.initial_generation(starters, rng)

    print(f"\ngenerated: {stats.generated}")
    print(f"legal (DR-clean): {stats.legal} "
          f"({100 * stats.legality_rate:.1f}%)")
    print(f"admitted to library (clean AND new): {stats.admitted}")
    print(f"inpaint: {stats.inpaint_seconds_per_sample * 1000:.0f} ms/sample, "
          f"denoise: {stats.denoise_seconds_per_sample * 1000:.1f} ms/sample")
    print(f"library: {summarize_library(library.clips)}")

    if len(library):
        sample = library.clips[0]
        print("\na generated DR-clean pattern:")
        print(render_clip(sample))
        clip_to_png("quickstart_sample.png", sample)
        clip_to_gds("quickstart_sample.gds", sample, grid=deck.grid)
        print("\nwrote quickstart_sample.png and quickstart_sample.gds")


if __name__ == "__main__":
    main()
