"""Template-based denoising showcase (Figures 2 and 5).

Demonstrates the squish machinery behind Algorithm 1 on a real generated
sample: extracts scan lines from a noisy inpainting output, shows the
clustering / snapping decisions, and compares the DRC outcome of

* no denoising,
* the conventional NL-means filter, and
* template-based denoising.

Run:  python examples/denoise_showcase.py
"""

import numpy as np

from repro.core import (
    PatternPaint,
    PatternPaintConfig,
    nl_means_denoise,
    template_denoise,
)
from repro.core.masks import all_masks
from repro.geometry import extract_scan_lines, squish, validate_clip
from repro.io import render_side_by_side
from repro.zoo import experiment_deck, finetuned, starter_patterns


def main() -> None:
    deck = experiment_deck()
    engine = deck.engine()
    starter = starter_patterns(20)[2]

    # Squish illustration (Figure 2).
    pattern = squish(starter)
    print("squish representation of the starter (Figure 2):")
    print(f"  scan lines x: {pattern.x_lines.tolist()}")
    print(f"  scan lines y: {pattern.y_lines.tolist()}")
    print(f"  dx: {pattern.dx.tolist()}")
    print(f"  dy: {pattern.dy.tolist()}")
    print(f"  complexity (Cx, Cy): {pattern.complexity}")

    # Generate one raw inpainting output.
    pipeline = PatternPaint(
        finetuned("sd1"),
        deck,
        PatternPaintConfig(model_batch=8),
    )
    rng = np.random.default_rng(3)
    mask = all_masks(starter.shape)[4].mask  # center block
    raw_outputs, _ = pipeline.inpaint_batch([starter], [mask], rng)
    raw = raw_outputs[0]

    noisy = validate_clip(raw)
    nlm = nl_means_denoise(raw)
    snapped = template_denoise(raw, starter, rng=rng)

    gen_x, gen_y = extract_scan_lines(noisy)
    tpl_x, tpl_y = extract_scan_lines(starter)
    print("\nscan lines (Figure 5's green/red decision inputs):")
    print(f"  noisy generated x lines ({gen_x.size}): {gen_x.tolist()}")
    print(f"  template x lines       ({tpl_x.size}): {tpl_x.tolist()}")
    print(f"  noisy generated y lines ({gen_y.size}): {gen_y.tolist()}")
    print(f"  template y lines       ({tpl_y.size}): {tpl_y.tolist()}")

    print("\nside by side (starter | raw | nl-means | template-denoised):")
    print(
        render_side_by_side(
            [starter, noisy, nlm, snapped],
            labels=["starter", "raw", "nl-means", "template"],
        )
    )

    for label, clip in [("raw", noisy), ("nl-means", nlm), ("template", snapped)]:
        print(f"\nDRC of {label}: {engine.check(clip).summary()}")


if __name__ == "__main__":
    main()
