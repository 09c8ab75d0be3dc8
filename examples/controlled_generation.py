"""Controlled pattern generation via selection constraints (Section IV-E).

Algorithm 2's constraint hook "can be easily integrated with other
requirements such as specific pattern shapes or other interesting features
and perform layout pattern generation in a more controlled setting".  This
example steers iterative generation three ways:

* a density *band* (patterns neither too sparse nor too dense);
* a connector requirement (only seed from patterns containing an
  inter-track strap, pushing exploration of strap-rich layouts);
* the default 40% density ceiling, for comparison.

Run:  python examples/controlled_generation.py
"""

import numpy as np

from repro.core import PatternPaint, PatternPaintConfig, PatternLibrary
from repro.core.selection import select_representative
from repro.drc import run_table
from repro.geometry import density
from repro.metrics import summarize_library
from repro.zoo import experiment_deck, finetuned, starter_patterns


def has_connector(clip, pitch=8):
    """True when the clip contains a horizontal strap spanning tracks."""
    return bool((run_table(clip, "h").lengths >= pitch).any())


def density_band(lo, hi):
    def constraint(clip):
        return lo <= density(clip) <= hi

    return constraint


def seeded_library(pipeline, starters, rng):
    library, stats, _ = pipeline.initial_generation(starters, rng)
    library.add_many(starters)
    return library, stats


def main() -> None:
    deck = experiment_deck()
    starters = starter_patterns(20)
    pipeline = PatternPaint(
        finetuned("sd1"),
        deck,
        PatternPaintConfig(
            model_batch=32,
            select_k=8,
            samples_per_iteration=24,
        ),
    )
    rng = np.random.default_rng(11)
    library, stats = seeded_library(pipeline, starters, rng)
    print(f"seed library after init: {summarize_library(library.clips)}")

    constraints = {
        "density band [0.25, 0.40]": density_band(0.25, 0.40),
        "must contain connector": has_connector,
    }
    for label, constraint in constraints.items():
        selected = select_representative(
            library.clips, 8, rng, constraint=constraint
        )
        seeds = [library.clips[i] for i in selected]
        print(f"\ncontrol: {label}")
        print(f"  eligible seeds selected: {len(seeds)}")
        if not seeds:
            print("  (no eligible seeds — relax the constraint)")
            continue
        controlled = PatternLibrary(seeds, name=label)
        round_stats = pipeline.iterate(
            controlled, rng, iterations=1, samples_per_iteration=24
        )[0]
        new_clips = controlled.clips[len(seeds):]
        satisfying = sum(1 for clip in new_clips if constraint(clip))
        print(
            f"  generated {round_stats.generated}, legal {round_stats.legal}, "
            f"new {len(new_clips)}, satisfying-the-control {satisfying}"
        )


if __name__ == "__main__":
    main()
