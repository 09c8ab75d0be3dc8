"""Diffusion-based inpainting (RePaint-style) — the heart of PatternPaint.

Generation is conditioned on the known pixels of a starter pattern: at each
reverse step the masked ("unknown") region follows the model's denoising
update while the unmasked region is re-injected at the matching noise level
via the closed-form forward process (Eq. 8 of the paper).  Optional
resampling jumps (Lugmayr et al., RePaint) re-noise and re-denoise each step
to harmonize the boundary between known and generated content.

The paper's inference scheme masks roughly 25% of the clip per inpainting
call; mask construction lives in :mod:`repro.core.masks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.unet import TimeUnet
from .plan import sampler_plan
from .sampler import SegmentedGenerator
from .schedule import NoiseSchedule

__all__ = ["SAMPLE_STEPS", "InpaintConfig", "inpaint", "inpaint_packed"]

#: DDIM reverse steps of every generation run: served requests, serial
#: ``run_generation`` and the experiment campaigns.  Adopted from the step
#: sweep in ``docs/EXPERIMENTS.md`` ("Sampler steps"): the smallest count
#: whose legality and H2 stay within seed noise of 20 steps on ``sd1-ft``
#: and ``sd2-ft``.
SAMPLE_STEPS = 10


@dataclass(frozen=True)
class InpaintConfig:
    """Inpainting sampler knobs.

    ``num_steps``: reverse steps, strided over the training schedule;
    :data:`SAMPLE_STEPS` by default.  Model time is linear in it.
    ``resample_jumps``: RePaint harmonization count; 1 means plain
    replacement conditioning, larger values re-noise/re-denoise each step.
    ``eta``: DDIM stochasticity (0 = deterministic direction term).
    """

    num_steps: int = SAMPLE_STEPS
    resample_jumps: int = 1
    eta: float = 0.3

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError("num_steps must be at least 1")
        if self.resample_jumps < 1:
            raise ValueError("resample_jumps must be at least 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


def _broadcast_mask(mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Normalize a (H, W) or (N, 1, H, W) boolean mask to ``shape``."""
    m = np.asarray(mask).astype(bool)
    if m.ndim == 2:
        m = m[None, None]
    if m.ndim != 4:
        raise ValueError(f"mask must be (H, W) or (N, 1, H, W), got {m.shape}")
    return np.broadcast_to(m, shape)


def inpaint(
    model: TimeUnet,
    schedule: NoiseSchedule,
    known: np.ndarray,
    mask: np.ndarray,
    rng: np.random.Generator,
    config: InpaintConfig = InpaintConfig(),
) -> np.ndarray:
    """Fill the masked region of ``known`` conditioned on the rest.

    Parameters
    ----------
    known:
        (N, 1, H, W) float32 in [-1, 1]: the starter patterns.
    mask:
        Boolean, True where content must be *regenerated* (the paper's
        "masked region replaced with Gaussian noise").

    Returns
    -------
    (N, 1, H, W) float32 in [-1, 1]; unmasked pixels equal ``known`` exactly.
    """
    known = np.asarray(known, dtype=np.float32)
    if known.ndim != 4:
        raise ValueError(f"known must be (N, 1, H, W), got {known.shape}")
    m = _broadcast_mask(mask, known.shape)
    n = known.shape[0]

    # All per-step coefficients (sigma, direction, re-noise ratios) come
    # from the cached plan — one table lookup per step instead of schedule
    # gathers and scalar re-derivation.  The arithmetic per step is the
    # same expressions on the same float64 values, so outputs are
    # bit-identical to the derivation-in-the-loop formulation.
    plan = sampler_plan(schedule, config.num_steps, config.eta)
    x = rng.standard_normal(known.shape).astype(np.float32)

    # Broadcastable (1, 1, 1, 1) views for the steps that replaced
    # ``predict_x0``/``q_sample``: those computed with (n, 1, 1, 1) float64
    # gathers, and shaped arrays (unlike numpy scalars) keep float64
    # intermediates under numpy 1.x value-based promotion too, preserving
    # bit-identity with the seed derivation on every supported numpy.
    sqrt_ab_col = plan.sqrt_ab.reshape(-1, 1, 1, 1, 1)
    sqrt_one_minus_ab_col = plan.sqrt_one_minus_ab.reshape(-1, 1, 1, 1, 1)
    sqrt_ab_prev_col = plan.sqrt_ab_prev.reshape(-1, 1, 1, 1, 1)
    sqrt_one_minus_ab_prev_col = plan.sqrt_one_minus_ab_prev.reshape(
        -1, 1, 1, 1, 1
    )

    for i, t in enumerate(plan.timesteps):
        t_prev = int(plan.t_prev[i])
        sigma = plan.sigma[i]
        for jump in range(config.resample_jumps):
            t_vec = np.full(n, t, dtype=np.int64)
            eps = model.forward(x, t_vec)
            x0_hat = np.clip(
                (x - sqrt_one_minus_ab_col[i] * eps) / sqrt_ab_col[i],
                -1.0,
                1.0,
            ).astype(np.float32)

            # DDIM update toward t_prev for the unknown region (scalar
            # coefficients here, exactly like the seed loop's locals).
            eps_implied = (x - plan.sqrt_ab[i] * x0_hat) / plan.sqrt_one_minus_ab[i]
            x_unknown = (
                plan.sqrt_ab_prev[i] * x0_hat + plan.dir_coeff[i] * eps_implied
            )
            if sigma > 0 and t_prev >= 0:
                x_unknown = x_unknown + sigma * rng.standard_normal(known.shape)

            # Known region re-noised to the same level (Eq. 8 conditioning).
            if t_prev >= 0:
                noise = rng.standard_normal(known.shape).astype(np.float32)
                x_known = (
                    sqrt_ab_prev_col[i] * known
                    + sqrt_one_minus_ab_prev_col[i] * noise
                ).astype(np.float32)
            else:
                x_known = known

            x = np.where(m, x_unknown, x_known).astype(np.float32)

            # RePaint resampling: diffuse back to level t and repeat.
            if jump < config.resample_jumps - 1 and t_prev >= 0:
                renoise = rng.standard_normal(known.shape).astype(np.float32)
                x = (
                    plan.sqrt_renoise[i] * x
                    + plan.sqrt_one_minus_renoise[i] * renoise
                ).astype(np.float32)

    return np.where(m, x, known).astype(np.float32)


def inpaint_packed(
    model: TimeUnet,
    schedule: NoiseSchedule,
    known: np.ndarray,
    mask: np.ndarray,
    rngs: "list[np.random.Generator]",
    sizes: "list[int]",
    config: InpaintConfig = InpaintConfig(),
) -> np.ndarray:
    """Inpaint several rng-independent segments as one packed batch.

    ``known``/``mask`` hold the segments concatenated along axis 0;
    segment *i* spans ``sizes[i]`` samples and draws all of its noise
    from ``rngs[i]``.  The model forwards run over the whole packed
    batch — amortising the per-step sampling overhead across segments —
    while every noise draw is split per segment
    (:class:`~repro.diffusion.sampler.SegmentedGenerator`), so each
    segment's output is **bit-identical** to a standalone
    :func:`inpaint` call over that segment with its own rng.  This is
    the model stage of cross-request packing: a segment is one request's
    sampling chunk with its spawned child generator.

    All segments walk one shared coefficient plan, so they must agree on
    ``config`` and ``schedule`` (the service guarantees this by packing
    only within one compatibility key).
    """
    known = np.asarray(known, dtype=np.float32)
    if known.ndim != 4:
        raise ValueError(f"known must be (N, 1, H, W), got {known.shape}")
    rng = SegmentedGenerator(rngs, sizes)
    if rng.total != known.shape[0]:
        raise ValueError(
            f"segment sizes sum to {rng.total} but known holds "
            f"{known.shape[0]} samples"
        )
    return inpaint(model, schedule, known, mask, rng, config)
