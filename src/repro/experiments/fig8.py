"""Figure 8: a starter pattern and generated variations gallery.

Renders one starter clip plus several legal variations produced by the
finetuned model, as PNG files and ASCII art — the qualitative evidence that
inpainting explores inter-track alternations (disconnecting/reconnecting
tracks, forming new straps).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.masks import all_masks
from ..core.pipeline import PatternPaint, PatternPaintConfig
from ..io.ascii_art import render_side_by_side
from ..io.png import clip_to_png, grid_sheet
from ..library import InMemoryStore
from ..zoo.artifacts import finetuned
from ..zoo.corpora import experiment_deck, starter_patterns

__all__ = ["run_fig8"]


def run_fig8(
    *,
    out_dir: "str | Path | None" = None,
    n_variations: int = 5,
    seed: int = 0,
    max_attempts: int = 60,
) -> tuple[np.ndarray, list[np.ndarray], str]:
    """Generate the gallery; returns (starter, variations, ascii rendering).

    When ``out_dir`` is given, also writes ``starter.png``,
    ``variation-i.png`` and a combined ``gallery.png`` contact sheet.
    """
    deck = experiment_deck()
    starter = starter_patterns(20)[0]
    pipeline = PatternPaint(
        finetuned("sd1"),
        deck,
        PatternPaintConfig(model_batch=16),
    )
    rng = np.random.default_rng(8_000 + seed)
    masks = all_masks(starter.shape)

    # Seed the store with the starter so the executor's dedup admits
    # only genuinely new legal variations.
    library = InMemoryStore(name="fig8")
    library.admit(starter)
    attempts = 0
    while len(library) - 1 < n_variations and attempts < max_attempts:
        batch = min(10, max_attempts - attempts)
        templates = [starter] * batch
        mask_arrays = [masks[(attempts + i) % len(masks)].mask for i in range(batch)]
        raw_outputs, _ = pipeline.inpaint_batch(templates, mask_arrays, rng)
        attempts += batch
        pipeline.executor.postprocess(raw_outputs, templates, rng, library=library)
    variations = list(library.clips[1 : n_variations + 1])

    labels = ["starter"] + [f"variation-{i + 1}" for i in range(len(variations))]
    ascii_art = render_side_by_side([starter] + variations, labels=labels)

    if out_dir is not None:
        out = Path(out_dir)
        clip_to_png(out / "starter.png", starter)
        for i, clip in enumerate(variations):
            clip_to_png(out / f"variation-{i + 1}.png", clip)
        grid_sheet(out / "gallery.png", [starter] + variations, columns=3)
    return starter, variations, ascii_art
