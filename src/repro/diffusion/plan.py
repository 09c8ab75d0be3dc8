"""Precomputed sampler coefficient tables (:class:`SamplerPlan`).

The DDIM and inpainting loops used to re-derive every per-step scalar —
``alpha_bar`` gathers, sigma/direction coefficients, RePaint re-noise
ratios — inside the step loop, once per batch.  All of those are pure
functions of ``(schedule, num_steps, eta)``, so :func:`sampler_plan`
computes them once as vectorised float64 tables and memoises the result
process-wide.  Every entry is computed with exactly the arithmetic the
scalar loop used (elementwise IEEE ops on the same float64 inputs), so a
plan-driven sampler is bit-identical to the seed per-step derivation.

Plans are keyed by the schedule's content fingerprint, which makes them
shared across :class:`~repro.diffusion.schedule.NoiseSchedule` instances
built from the same betas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import strided_timesteps
from .schedule import NoiseSchedule

__all__ = ["SamplerPlan", "sampler_plan"]


@dataclass(frozen=True)
class SamplerPlan:
    """Per-step coefficient tables for a strided DDIM/inpaint trajectory.

    All arrays are indexed by step position ``i`` (0 = most-noised step)
    and are read-only.  ``t_prev[i]`` is ``-1`` on the final step, where
    ``alpha_bar_prev`` is defined as 1.0 (the fully denoised endpoint).
    """

    num_train_steps: int
    num_steps: int
    eta: float
    timesteps: np.ndarray  # (S,) int64, descending
    t_prev: np.ndarray  # (S,) int64, -1 on the last step
    alpha_bar: np.ndarray  # (S,) float64: alpha_bars[t]
    alpha_bar_prev: np.ndarray  # (S,) float64: alpha_bars[t_prev] or 1.0
    sqrt_ab: np.ndarray  # sqrt(alpha_bar)
    sqrt_one_minus_ab: np.ndarray  # sqrt(1 - alpha_bar)
    sqrt_ab_prev: np.ndarray  # sqrt(alpha_bar_prev)
    sqrt_one_minus_ab_prev: np.ndarray  # sqrt(1 - alpha_bar_prev)
    sigma: np.ndarray  # DDIM stochasticity per step (scaled by eta)
    dir_coeff: np.ndarray  # sqrt(max(1 - ab_prev - sigma^2, 0))
    sqrt_renoise: np.ndarray  # sqrt(ab / ab_prev)  (RePaint jump-back)
    sqrt_one_minus_renoise: np.ndarray  # sqrt(1 - ab / ab_prev)

    def __len__(self) -> int:  # number of reverse steps actually taken
        return int(self.timesteps.size)


def _build_plan(
    schedule: NoiseSchedule, num_steps: int, eta: float
) -> SamplerPlan:
    timesteps = strided_timesteps(schedule.num_steps, num_steps)
    ab = schedule.alpha_bars[timesteps]
    # alpha_bar at the *next* (less noisy) visited timestep; 1.0 at the end.
    ab_prev = np.empty_like(ab)
    ab_prev[:-1] = ab[1:]
    ab_prev[-1] = 1.0
    t_prev = np.empty(timesteps.size, dtype=np.int64)
    t_prev[:-1] = timesteps[1:]
    t_prev[-1] = -1

    # Exactly the scalar loop's expressions, vectorised (elementwise IEEE
    # ops on the same float64 values => identical bits per step).
    sigma_term = np.maximum(
        (1.0 - ab_prev) / (1.0 - ab) * (1.0 - ab / ab_prev), 0.0
    )
    sigma = eta * np.sqrt(sigma_term)
    dir_coeff = np.sqrt(np.maximum(1.0 - ab_prev - sigma**2, 0.0))
    ratio = ab / ab_prev

    arrays = dict(
        timesteps=np.ascontiguousarray(timesteps, dtype=np.int64),
        t_prev=t_prev,
        alpha_bar=ab,
        alpha_bar_prev=ab_prev,
        sqrt_ab=np.sqrt(ab),
        sqrt_one_minus_ab=np.sqrt(1.0 - ab),
        sqrt_ab_prev=np.sqrt(ab_prev),
        sqrt_one_minus_ab_prev=np.sqrt(1.0 - ab_prev),
        sigma=sigma,
        dir_coeff=dir_coeff,
        sqrt_renoise=np.sqrt(ratio),
        sqrt_one_minus_renoise=np.sqrt(1.0 - ratio),
    )
    for value in arrays.values():
        value.setflags(write=False)
    return SamplerPlan(
        num_train_steps=schedule.num_steps,
        num_steps=int(num_steps),
        eta=float(eta),
        **arrays,
    )


_PLAN_CACHE: dict[tuple[str, int, float], SamplerPlan] = {}


def sampler_plan(
    schedule: NoiseSchedule, num_steps: int, eta: float = 0.0
) -> SamplerPlan:
    """The memoised coefficient tables for ``(schedule, num_steps, eta)``.

    Repeated calls with an equivalent schedule (same betas, any instance)
    return the same plan object; the cache is unbounded but each entry is
    a handful of ``num_steps``-long float64 arrays.
    """
    key = (schedule.fingerprint, int(num_steps), float(eta))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _build_plan(schedule, num_steps, eta)
        _PLAN_CACHE[key] = plan
    return plan
