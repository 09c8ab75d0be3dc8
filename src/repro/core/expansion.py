"""Free-size pattern generation by tiled outpainting.

The paper's future work ("we will improve PatternPaint to support larger
size pattern generation") and the ChatPattern line of work both target
clips larger than the generator's native field.  This module synthesizes a
``H x W`` clip from a model trained at ``s x s`` by *outpainting*: the
canvas starts from a starter clip in the top-left corner and is extended
window by window, each window conditioning the inpainting sampler on the
already-committed half and regenerating the unknown half.  Every window is
template-denoised against its known content before being committed, and
the final canvas is DRC-checked by the caller like any other clip.

The window schedule sweeps rows then columns with 50% overlap, so every
new region is generated with maximal legal context to its left and above —
the same "design rule information is encoded in neighbouring regions"
principle that drives the core method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion.ddpm import Ddpm
from ..diffusion.inpaint import InpaintConfig
from ..engine.modelpool import inpaint_jobs
from .template_denoise import TemplateDenoiseConfig, template_denoise

__all__ = ["ExpansionConfig", "expand_pattern", "expansion_windows"]


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs of the outpainting expansion.

    ``track_pitch_px`` enables periodic template extension: the unknown
    half of each window has no committed scan lines to snap to, so the
    denoising template is built by continuing the known content one track
    pitch at a time (columns) and along wires (rows).  Without it, novel
    regions keep their raw sampled edges and legality drops sharply.
    """

    inpaint: InpaintConfig = field(default_factory=InpaintConfig)
    denoise: TemplateDenoiseConfig = field(default_factory=TemplateDenoiseConfig)
    track_pitch_px: int | None = 8


def _extended_template(
    patch: np.ndarray, window_known: np.ndarray, pitch: int | None
) -> np.ndarray:
    """Continue known content into the unknown region for snap targets.

    Fully-unknown columns copy the column one pitch to their left (track
    periodicity); fully-unknown rows copy the nearest known row above
    (wire continuation).  Known pixels are never altered.
    """
    template = patch.copy()
    if pitch is None:
        return template
    filled = window_known.copy()
    height, width = template.shape
    for x in range(width):
        if not filled[:, x].any() and x - pitch >= 0 and filled[:, x - pitch].any():
            template[:, x] = template[:, x - pitch]
            filled[:, x] = filled[:, x - pitch]
    last_known_row = None
    for y in range(height):
        if filled[y].any():
            last_known_row = y
        elif last_known_row is not None:
            template[y] = template[last_known_row]
            filled[y] = filled[last_known_row]
    return template


def expansion_windows(
    canvas_shape: tuple[int, int], window: int
) -> list[tuple[int, int]]:
    """Top-left corners of the half-overlapping window sweep.

    The first window is fully inside the seeded region and is skipped by
    the expansion loop; every later window overlaps committed content by
    half its extent along the sweep direction.
    """
    height, width = canvas_shape
    if height < window or width < window:
        raise ValueError(
            f"canvas {canvas_shape} smaller than the model window {window}"
        )
    step = window // 2
    ys = list(range(0, height - window, step)) + [height - window]
    xs = list(range(0, width - window, step)) + [width - window]
    return [(y, x) for y in sorted(set(ys)) for x in sorted(set(xs))]


def expand_pattern(
    ddpm: Ddpm,
    starter: np.ndarray,
    canvas_shape: tuple[int, int],
    rng: np.random.Generator,
    config: ExpansionConfig = ExpansionConfig(),
) -> np.ndarray:
    """Outpaint ``starter`` into a ``canvas_shape`` clip.

    Parameters
    ----------
    ddpm:
        A trained diffusion model; its ``image_size`` is the window size.
    starter:
        A window-sized DR-clean clip seeding the top-left corner.
    canvas_shape:
        Target ``(height, width)``; both must be at least the window size.

    Returns
    -------
    A binary ``uint8`` clip of ``canvas_shape``.  Legality is *not*
    guaranteed (window seams can violate rules); callers DRC-check and
    reject, exactly as with ordinary generation.
    """
    window = ddpm.model.config.image_size
    starter = np.asarray(starter, dtype=np.uint8)
    if starter.shape != (window, window):
        raise ValueError(
            f"starter must match the model window ({window}x{window}), "
            f"got {starter.shape}"
        )
    canvas = np.zeros(canvas_shape, dtype=np.uint8)
    known = np.zeros(canvas_shape, dtype=bool)
    canvas[:window, :window] = starter
    known[:window, :window] = True

    for y0, x0 in expansion_windows(canvas_shape, window):
        view = slice(y0, y0 + window), slice(x0, x0 + window)
        window_known = known[view]
        if window_known.all():
            continue  # fully committed (e.g. the seeded corner)
        patch = canvas[view]
        mask = ~window_known  # regenerate exactly the unknown part

        raw = inpaint_jobs(
            ddpm.model, ddpm.schedule, [patch], [mask], rng, config.inpaint
        )[0]
        # Snap against the committed content, periodically extended so the
        # novel region has track-aligned scan lines to land on.
        template = _extended_template(patch, window_known, config.track_pitch_px)
        clean = template_denoise(raw, template, config.denoise, rng)
        # Never rewrite committed pixels — only the unknown region lands.
        patch[mask] = clean[mask]
        known[view] = True

    return canvas
