"""The inpainting model stage's two samplers.

:func:`inpaint_jobs` samples one chunk of (template, mask) jobs and
:func:`inpaint_jobs_packed` samples several requests' chunks as one
packed batch.  Both run the model through its inference fast path, whose
forwards shard their rows across cores on threads
(:mod:`repro.nn.shards`), so one call already uses every core.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.ddpm import clips_to_model_space
from ..diffusion.inpaint import InpaintConfig, inpaint, inpaint_packed
from ..diffusion.schedule import NoiseSchedule
from ..nn.tensor import inference_mode
from ..nn.unet import TimeUnet

__all__ = ["inpaint_jobs", "inpaint_jobs_packed"]


def inpaint_jobs(
    model: TimeUnet,
    schedule: NoiseSchedule,
    templates: list[np.ndarray],
    masks: list[np.ndarray],
    rng: np.random.Generator,
    config: InpaintConfig,
) -> list[np.ndarray]:
    """Inpaint one chunk of (template, mask) jobs through the fast path.

    The single definition of the sampling prelude — model-space
    conversion, mask stacking, inference-mode sampling, per-job float
    outputs — behind the pipeline's ``model_fn``.
    """
    known = clips_to_model_space(templates)
    mask_arr = np.stack([np.asarray(m, dtype=bool) for m in masks])[:, None]
    with inference_mode(model):
        x = inpaint(model, schedule, known, mask_arr, rng, config)
    return list(x[:, 0])


def inpaint_jobs_packed(
    model: TimeUnet,
    schedule: NoiseSchedule,
    seg_templates: list[list[np.ndarray]],
    seg_masks: list[list[np.ndarray]],
    seg_rngs: list[np.random.Generator],
    config: InpaintConfig,
) -> list[list[np.ndarray]]:
    """Inpaint several requests' chunks as **one** packed model batch.

    Each segment is one request's sampling chunk: its (template, mask)
    jobs plus the chunk's own spawned rng child.  The segments run
    through a single :func:`~repro.diffusion.inpaint.inpaint_packed`
    call — one denoising loop, full-width model forwards — with noise
    drawn per segment, so every returned segment is bit-identical to
    running :func:`inpaint_jobs` on it alone with the same rng.  The
    model conditions on time once per distinct timestep, and rows
    sharing a timestep (every row of a sampler step) get the same bits
    at any batch size.

    Returns the per-segment output lists, in segment order.
    """
    if not (len(seg_templates) == len(seg_masks) == len(seg_rngs)):
        raise ValueError("segment templates, masks and rngs must pair up")
    sizes = []
    for templates, masks in zip(seg_templates, seg_masks):
        if len(templates) != len(masks):
            raise ValueError("templates and masks must pair up per segment")
        sizes.append(len(templates))
    # Per-segment model-space conversion and mask stacking are
    # elementwise, so converting before or after concatenation is
    # bit-identical; converting per segment mirrors the serial prelude.
    known = np.concatenate(
        [clips_to_model_space(templates) for templates in seg_templates]
    )
    mask_arr = np.concatenate(
        [
            np.stack([np.asarray(m, dtype=bool) for m in masks])[:, None]
            for masks in seg_masks
        ]
    )
    with inference_mode(model):
        x = inpaint_packed(
            model, schedule, known, mask_arr, seg_rngs, sizes, config
        )
    out: list[list[np.ndarray]] = []
    offset = 0
    for n in sizes:
        out.append(list(x[offset:offset + n, 0]))
        offset += n
    return out
