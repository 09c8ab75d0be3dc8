"""Free-size pattern generation by outpainting (the paper's future work).

Expands 32x32 starters into 32x64 canvases with the tiled-outpainting
extension (`repro.core.expansion`) and measures:

1. how much the periodic template extension (snapping novel regions onto
   the track grid) reduces DRC violations vs plain outpainting;
2. how many DR-clean 32x32 windows the expanded canvases contain — the
   harvestable library content (whole-canvas legality compounds per-seam
   legality, so large fully-clean canvases need rejection at scale).

Run:  python examples/free_size_generation.py
"""

import numpy as np

from repro.core import ExpansionConfig, expand_pattern
from repro.drc import advanced_deck
from repro.geometry import Grid
from repro.io import clip_to_png, render_clip
from repro.zoo import experiment_deck, finetuned, starter_patterns


def clean_windows(canvas, engine, window=32, step=8):
    """DR-clean window-sized crops of a canvas (dedup by position)."""
    height, width = canvas.shape
    found = []
    for x0 in range(0, width - window + 1, step):
        crop = canvas[:, x0 : x0 + window]
        if engine.is_clean(crop):
            found.append((x0, crop))
    return found


def main() -> None:
    model = finetuned("sd1")
    starters = starter_patterns(20)
    target_shape = (32, 64)
    big_deck = advanced_deck(
        Grid(nm_per_px=16.0, width_px=target_shape[1], height_px=target_shape[0])
    )
    big_engine = big_deck.engine()
    win_engine = experiment_deck().engine()

    attempts = 6
    print(f"expanding 32x32 starters into {target_shape[0]}x{target_shape[1]} canvases "
          f"({attempts} attempts) ...\n")
    print(f"{'canvas':>6} {'violations (plain)':>20} {'violations (periodic)':>22} "
          f"{'clean 32x32 crops':>18}")

    best = None
    total_plain = total_periodic = total_crops = 0
    for i in range(attempts):
        rng_a = np.random.default_rng(400 + i)
        rng_b = np.random.default_rng(400 + i)
        plain = expand_pattern(
            model, starters[i], target_shape, rng_a,
            ExpansionConfig(track_pitch_px=None),
        )
        periodic = expand_pattern(
            model, starters[i], target_shape, rng_b,
            ExpansionConfig(),
        )
        v_plain = big_engine.check(plain).count
        v_periodic = big_engine.check(periodic).count
        crops = clean_windows(periodic, win_engine)
        total_plain += v_plain
        total_periodic += v_periodic
        total_crops += len(crops)
        if crops and (best is None or v_periodic < best[0]):
            best = (v_periodic, periodic)
        print(f"{i:>6} {v_plain:>20} {v_periodic:>22} {len(crops):>18}")

    print(f"\ntotals: plain {total_plain} violations, periodic {total_periodic} "
          f"violations, {total_crops} harvestable DR-clean 32x32 crops")
    if best is not None:
        print("\nlowest-violation expanded canvas:")
        print(render_clip(best[1]))
        clip_to_png("free_size_sample.png", best[1])
        print("wrote free_size_sample.png")


if __name__ == "__main__":
    main()
