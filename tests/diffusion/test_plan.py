"""SamplerPlan tables: caching, per-step values, sampler parity."""

import numpy as np
import pytest

from repro.diffusion import (
    InpaintConfig,
    cosine_schedule,
    ddim_sample,
    inpaint,
    linear_schedule,
    sampler_plan,
)
from repro.diffusion.sampler import strided_timesteps


class TestStridedTimestepsCache:
    def test_repeated_calls_share_the_array(self):
        a = strided_timesteps(100, 10)
        b = strided_timesteps(100, 10)
        assert a is b

    def test_cached_array_is_read_only(self):
        ts = strided_timesteps(50, 5)
        with pytest.raises(ValueError):
            ts[0] = 0

    def test_still_validates(self):
        with pytest.raises(ValueError):
            strided_timesteps(10, 0)
        with pytest.raises(ValueError):
            strided_timesteps(10, 11)


class TestPlanCache:
    def test_same_key_returns_same_plan(self):
        schedule = linear_schedule(80)
        assert sampler_plan(schedule, 10, 0.3) is sampler_plan(schedule, 10, 0.3)

    def test_equivalent_schedules_share_plans(self):
        # Distinct instances, same betas => same fingerprint => same plan.
        a = linear_schedule(80)
        b = linear_schedule(80)
        assert a is not b
        assert a.fingerprint == b.fingerprint
        assert sampler_plan(a, 10, 0.0) is sampler_plan(b, 10, 0.0)

    def test_distinct_keys_get_distinct_plans(self):
        schedule = linear_schedule(80)
        assert sampler_plan(schedule, 10, 0.0) is not sampler_plan(schedule, 10, 0.3)
        assert sampler_plan(schedule, 10, 0.0) is not sampler_plan(schedule, 12, 0.0)

    def test_tables_read_only(self):
        plan = sampler_plan(linear_schedule(60), 8, 0.3)
        with pytest.raises(ValueError):
            plan.sigma[0] = 0.0


class TestPlanValues:
    """Each table entry equals the scalar re-derivation it replaced."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_matches_scalar_loop(self, eta):
        schedule = cosine_schedule(90)
        plan = sampler_plan(schedule, 11, eta)
        timesteps = strided_timesteps(schedule.num_steps, 11)
        assert len(plan) == len(timesteps)
        for i, t in enumerate(timesteps):
            ab = schedule.alpha_bars[t]
            t_prev = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
            ab_prev = schedule.alpha_bars[t_prev] if t_prev >= 0 else 1.0
            sigma = eta * np.sqrt(
                max((1.0 - ab_prev) / (1.0 - ab) * (1.0 - ab / ab_prev), 0.0)
            )
            assert plan.timesteps[i] == t
            assert plan.t_prev[i] == t_prev
            assert plan.alpha_bar[i] == ab
            assert plan.alpha_bar_prev[i] == ab_prev
            assert plan.sigma[i] == sigma
            assert plan.dir_coeff[i] == np.sqrt(
                max(1.0 - ab_prev - sigma**2, 0.0)
            )
            assert plan.sqrt_ab[i] == np.sqrt(ab)
            assert plan.sqrt_one_minus_ab[i] == np.sqrt(1.0 - ab)
            assert plan.sqrt_ab_prev[i] == np.sqrt(ab_prev)
            assert plan.sqrt_renoise[i] == np.sqrt(ab / ab_prev)

    def test_last_step_is_terminal(self):
        plan = sampler_plan(linear_schedule(50), 7, 0.5)
        assert plan.t_prev[-1] == -1
        assert plan.alpha_bar_prev[-1] == 1.0
        assert plan.sigma[-1] == 0.0

    def test_schedule_sqrt_gather_tables(self):
        schedule = linear_schedule(64)
        np.testing.assert_array_equal(
            schedule.sqrt_alpha_bars, np.sqrt(schedule.alpha_bars)
        )
        np.testing.assert_array_equal(
            schedule.sqrt_one_minus_alpha_bars,
            np.sqrt(1.0 - schedule.alpha_bars),
        )


class _ZeroModel:
    """Predicts zero noise; enough to exercise the full update arithmetic."""

    training = True

    def forward(self, x, t):
        return np.zeros_like(x)


def _seed_inpaint(model, schedule, known, mask, rng, config):
    """Frozen copy of the pre-plan inpainting loop (the seed sampler)."""
    known = np.asarray(known, dtype=np.float32)
    m = np.broadcast_to(np.asarray(mask).astype(bool)[None, None], known.shape)
    n = known.shape[0]
    timesteps = strided_timesteps(schedule.num_steps, config.num_steps)
    x = rng.standard_normal(known.shape).astype(np.float32)
    for i, t in enumerate(timesteps):
        t_prev = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
        ab = schedule.alpha_bars[t]
        ab_prev = schedule.alpha_bars[t_prev] if t_prev >= 0 else 1.0
        for jump in range(config.resample_jumps):
            t_vec = np.full(n, t, dtype=np.int64)
            eps = model.forward(x, t_vec)
            ab_g = schedule.alpha_bars[np.asarray(t_vec)].reshape(-1, 1, 1, 1)
            x0_hat = np.clip(
                (x - np.sqrt(1.0 - ab_g) * eps) / np.sqrt(ab_g), -1.0, 1.0
            ).astype(np.float32)
            sigma = config.eta * np.sqrt(
                max((1.0 - ab_prev) / (1.0 - ab) * (1.0 - ab / ab_prev), 0.0)
            )
            eps_implied = (x - np.sqrt(ab) * x0_hat) / np.sqrt(1.0 - ab)
            dir_coeff = np.sqrt(max(1.0 - ab_prev - sigma**2, 0.0))
            x_unknown = np.sqrt(ab_prev) * x0_hat + dir_coeff * eps_implied
            if sigma > 0 and t_prev >= 0:
                x_unknown = x_unknown + sigma * rng.standard_normal(known.shape)
            if t_prev >= 0:
                noise = rng.standard_normal(known.shape).astype(np.float32)
                ab_p = schedule.alpha_bars[
                    np.full(n, t_prev, dtype=np.int64)
                ].reshape(-1, 1, 1, 1)
                x_known = (
                    np.sqrt(ab_p) * known + np.sqrt(1.0 - ab_p) * noise
                ).astype(np.float32)
            else:
                x_known = known
            x = np.where(m, x_unknown, x_known).astype(np.float32)
            if jump < config.resample_jumps - 1 and t_prev >= 0:
                ratio = ab / ab_prev
                renoise = rng.standard_normal(known.shape).astype(np.float32)
                x = (
                    np.sqrt(ratio) * x + np.sqrt(1.0 - ratio) * renoise
                ).astype(np.float32)
    return np.where(m, x, known).astype(np.float32)


class TestSamplerParity:
    """Plan-driven samplers are bit-identical to the seed derivation."""

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    @pytest.mark.parametrize("jumps", [1, 2])
    def test_inpaint_matches_seed_loop(self, eta, jumps):
        schedule = linear_schedule(40)
        config = InpaintConfig(num_steps=5, resample_jumps=jumps, eta=eta)
        known = np.full((2, 1, 8, 8), -1.0, dtype=np.float32)
        known[:, :, 2:6, 2:6] = 1.0
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, 4:] = True
        model = _ZeroModel()
        a = _seed_inpaint(
            model, schedule, known, mask, np.random.default_rng(5), config
        )
        b = inpaint(model, schedule, known, mask, np.random.default_rng(5), config)
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_ddim_deterministic_and_finite(self):
        schedule = linear_schedule(30)
        out1 = ddim_sample(
            _ZeroModel(), schedule, (2, 1, 8, 8), np.random.default_rng(3),
            num_steps=6, eta=0.5,
        )
        out2 = ddim_sample(
            _ZeroModel(), schedule, (2, 1, 8, 8), np.random.default_rng(3),
            num_steps=6, eta=0.5,
        )
        np.testing.assert_array_equal(out1, out2)
        assert np.isfinite(out1).all()
