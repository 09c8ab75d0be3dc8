"""Noise schedules for the DDPM forward process (Section II-A).

The forward process ``q(x_t | x_{t-1}) = N(sqrt(1-beta_t) x_{t-1}, beta_t I)``
is fully described by the beta sequence; this module precomputes every
derived quantity the trainer, samplers and inpainter need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NoiseSchedule", "linear_schedule", "cosine_schedule"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed diffusion coefficients for a beta sequence.

    All arrays are indexed by timestep ``t`` in ``[0, T)``; ``alpha_bar[t]``
    is the total signal retention after ``t + 1`` noising steps.
    """

    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)
    alpha_bars_prev: np.ndarray = field(init=False)
    posterior_variance: np.ndarray = field(init=False)
    sqrt_alpha_bars: np.ndarray = field(init=False)
    sqrt_one_minus_alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 2:
            raise ValueError("betas must be a 1-D array with at least 2 steps")
        if betas.min() <= 0 or betas.max() >= 1:
            raise ValueError("betas must lie strictly inside (0, 1)")
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        alpha_bars_prev = np.concatenate(([1.0], alpha_bars[:-1]))
        posterior_variance = betas * (1.0 - alpha_bars_prev) / (1.0 - alpha_bars)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        object.__setattr__(self, "alpha_bars_prev", alpha_bars_prev)
        object.__setattr__(self, "posterior_variance", posterior_variance)
        # Gather tables: sqrt taken once here instead of per q_sample /
        # predict_x0 call (sqrt-then-gather == gather-then-sqrt, bitwise).
        object.__setattr__(self, "sqrt_alpha_bars", np.sqrt(alpha_bars))
        object.__setattr__(
            self, "sqrt_one_minus_alpha_bars", np.sqrt(1.0 - alpha_bars)
        )

    @property
    def num_steps(self) -> int:
        return int(self.betas.size)

    @property
    def fingerprint(self) -> str:
        """Content hash of the beta sequence (cached per instance).

        Keys process-wide memos such as sampler plans, so equivalent
        schedules share cached derivations.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = hashlib.sha1(
                np.ascontiguousarray(self.betas).tobytes()
            ).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def q_sample(
        self, x0: np.ndarray, t: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        """Jump straight to ``x_t``: closed-form forward diffusion.

        ``t`` is a per-sample integer array; broadcast over (N, C, H, W).
        """
        idx = np.asarray(t)
        scale = self.sqrt_alpha_bars[idx].reshape(-1, 1, 1, 1)
        noise_scale = self.sqrt_one_minus_alpha_bars[idx].reshape(-1, 1, 1, 1)
        return (scale * x0 + noise_scale * noise).astype(np.float32)

    def predict_x0(self, xt: np.ndarray, t: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Invert the forward process given a noise estimate, clipped to [-1, 1]."""
        idx = np.asarray(t)
        scale = self.sqrt_alpha_bars[idx].reshape(-1, 1, 1, 1)
        noise_scale = self.sqrt_one_minus_alpha_bars[idx].reshape(-1, 1, 1, 1)
        x0 = (xt - noise_scale * eps) / scale
        return np.clip(x0, -1.0, 1.0).astype(np.float32)


def linear_schedule(
    num_steps: int = 250,
    *,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
) -> NoiseSchedule:
    """The original DDPM linear beta ramp, rescaled to the step count.

    The endpoints are scaled by ``1000 / num_steps`` (the standard practice
    when training with fewer than 1000 steps) so the total amount of noise
    injected over the trajectory is comparable to the 1000-step reference.
    """
    if num_steps < 2:
        raise ValueError("need at least 2 diffusion steps")
    scale = 1000.0 / num_steps
    betas = np.linspace(beta_start * scale, beta_end * scale, num_steps)
    betas = np.clip(betas, 1e-8, 0.999)
    return NoiseSchedule(betas=betas)


def cosine_schedule(num_steps: int = 250, *, s: float = 0.008) -> NoiseSchedule:
    """Nichol & Dhariwal's cosine alpha-bar schedule."""
    if num_steps < 2:
        raise ValueError("need at least 2 diffusion steps")
    steps = np.arange(num_steps + 1, dtype=np.float64)
    f = np.cos((steps / num_steps + s) / (1.0 + s) * np.pi / 2.0) ** 2
    alpha_bars = f / f[0]
    betas = 1.0 - alpha_bars[1:] / alpha_bars[:-1]
    betas = np.clip(betas, 1e-8, 0.999)
    return NoiseSchedule(betas=betas)
