"""OPC-recipe pattern library construction (the paper's motivating DFM use).

Optical-proximity-correction recipe development needs a pattern library
that covers *both* topology diversity and physical-width variation on each
topology (Section V-B).  This example builds such a library with iterative
PatternPaint generation, then audits coverage:

* growth of unique patterns and H2 per iteration;
* width histogram over the discrete {3, 5}px set plus connector straps;
* per-complexity-class counts (how many geometric variants each topology
  class received);
* exports the library as GDSII clips plus an index for downstream tools.

Run:  python examples/opc_pattern_library.py
"""

from collections import Counter
from pathlib import Path

import numpy as np

from repro.core import PatternPaint, PatternPaintConfig
from repro.drc import run_table
from repro.geometry import complexity_key
from repro.io import clip_to_gds, save_clips
from repro.metrics import h1_entropy, h2_entropy
from repro.zoo import experiment_deck, finetuned, starter_patterns


def width_histogram(clips, deck):
    counter = Counter()
    for clip in clips:
        lengths = run_table(clip, "h").lengths
        for length in lengths:
            if length >= deck.connector_min_px:
                counter["strap"] += 1
            else:
                counter[int(length)] += 1
    return counter


def main() -> None:
    deck = experiment_deck()
    starters = starter_patterns(20)
    pipeline = PatternPaint(
        finetuned("sd1"),
        deck,
        PatternPaintConfig(
            variations_per_mask=1,
            model_batch=32,
            select_k=12,
            samples_per_iteration=60,
        ),
    )
    rng = np.random.default_rng(7)

    print("building OPC pattern library (init + 2 iterations) ...")
    result = pipeline.run(starters, rng, iterations=2)
    library = result.library

    print("\niteration growth:")
    for stage in result.stats:
        print(
            f"  {stage.label:>7}: +{stage.admitted} new legal patterns "
            f"(library {stage.library_size}, "
            f"H1 {stage.h1:.2f}, H2 {stage.h2:.2f})"
        )

    clips = library.clips
    print(f"\nfinal library: {len(clips)} unique DR-clean patterns")
    print(f"H1 {h1_entropy(clips):.2f}, H2 {h2_entropy(clips):.2f}")

    print("\nwire-width coverage (R3.1-W discrete set {3, 5} + straps):")
    for width, count in sorted(
        width_histogram(clips, deck).items(), key=lambda kv: str(kv[0])
    ):
        print(f"  width {width}: {count} measurements")

    per_topology = Counter(complexity_key(clip) for clip in clips)
    multi_variant = sum(1 for count in per_topology.values() if count > 1)
    print(
        f"\ntopology classes: {len(per_topology)}; classes with >1 physical "
        f"variant: {multi_variant} (what OPC recipe tuning needs)"
    )

    out = Path("opc_library")
    out.mkdir(exist_ok=True)
    save_clips(out / "library.npz", clips, meta={"deck": deck.name})
    for i, clip in enumerate(clips[:10]):
        clip_to_gds(out / f"clip_{i:03d}.gds", clip, grid=deck.grid)
    print(f"\nexported library.npz and {min(10, len(clips))} GDSII clips to {out}/")


if __name__ == "__main__":
    main()
