"""Unit + integration tests for free-size outpainting expansion."""

import numpy as np
import pytest

from repro.core import ExpansionConfig, expand_pattern, expansion_windows
from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
from repro.nn import TimeUnet, UNetConfig


def tiny_ddpm(size=16, seed=0):
    cfg = UNetConfig(
        image_size=size, base_channels=8, channel_mults=(1,), num_res_blocks=1,
        groups=4, time_dim=8, attention=False, seed=seed,
    )
    return Ddpm(TimeUnet(cfg), linear_schedule(20))


def wire_starter(size=16):
    img = np.zeros((size, size), dtype=np.uint8)
    img[:, 4:7] = 1
    img[:, 11:14] = 1
    return img


class TestWindowSchedule:
    def test_covers_whole_canvas(self):
        windows = expansion_windows((32, 48), 16)
        covered = np.zeros((32, 48), dtype=bool)
        for y0, x0 in windows:
            covered[y0 : y0 + 16, x0 : x0 + 16] = True
        assert covered.all()

    def test_first_window_is_origin(self):
        assert expansion_windows((32, 32), 16)[0] == (0, 0)

    def test_half_overlap_steps(self):
        windows = expansion_windows((32, 32), 16)
        xs = sorted({x for _, x in windows})
        assert xs == [0, 8, 16]

    def test_exact_fit_single_window(self):
        assert expansion_windows((16, 16), 16) == [(0, 0)]

    def test_too_small_canvas_rejected(self):
        with pytest.raises(ValueError):
            expansion_windows((8, 32), 16)


class TestExpansion:
    def test_preserves_seed_region_and_fills_canvas(self):
        ddpm = tiny_ddpm()
        starter = wire_starter()
        canvas = expand_pattern(
            ddpm, starter, (32, 32), np.random.default_rng(0),
            ExpansionConfig(inpaint=InpaintConfig(num_steps=4)),
        )
        assert canvas.shape == (32, 32)
        assert canvas.dtype == np.uint8
        np.testing.assert_array_equal(canvas[:16, :16], starter)

    def test_rectangular_canvas(self):
        ddpm = tiny_ddpm()
        canvas = expand_pattern(
            ddpm, wire_starter(), (16, 40), np.random.default_rng(1),
            ExpansionConfig(inpaint=InpaintConfig(num_steps=3)),
        )
        assert canvas.shape == (16, 40)

    def test_starter_shape_validated(self):
        ddpm = tiny_ddpm()
        with pytest.raises(ValueError, match="window"):
            expand_pattern(
                ddpm, np.zeros((8, 8), dtype=np.uint8), (32, 32),
                np.random.default_rng(0),
            )

    def test_deterministic_given_rng(self):
        ddpm = tiny_ddpm()
        starter = wire_starter()
        cfg = ExpansionConfig(inpaint=InpaintConfig(num_steps=3))
        a = expand_pattern(ddpm, starter, (24, 24), np.random.default_rng(7), cfg)
        b = expand_pattern(ddpm, starter, (24, 24), np.random.default_rng(7), cfg)
        np.testing.assert_array_equal(a, b)

    def test_samples_through_inference_fast_path(self, monkeypatch):
        """Every window forward runs in inference mode (no backward caches)."""
        ddpm = tiny_ddpm()
        modes = []
        forward = TimeUnet.forward

        def spy(self, *args, **kwargs):
            modes.append(self.training)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(TimeUnet, "forward", spy)
        expand_pattern(
            ddpm, wire_starter(), (24, 24), np.random.default_rng(0),
            ExpansionConfig(inpaint=InpaintConfig(num_steps=3)),
        )
        assert modes and not any(modes)
        assert ddpm.model.training  # the caller's mode is restored


class TestExpansionWithTrainedModel:
    @pytest.mark.parametrize("canvas_shape", [(32, 64)])
    def test_expansion_with_zoo_model_produces_track_structure(self, canvas_shape):
        """With the cached finetuned model, expanded canvases keep vertical
        track structure (columns are far from uniform noise)."""
        pytest.importorskip("repro.zoo")
        from repro.zoo import finetuned, starter_patterns

        ddpm = finetuned("sd1")
        starter = starter_patterns(1)[0]
        canvas = expand_pattern(
            ddpm, starter, canvas_shape, np.random.default_rng(0),
            ExpansionConfig(inpaint=InpaintConfig(num_steps=12)),
        )
        assert canvas.shape == canvas_shape
        # Track structure: column occupancy variance far exceeds that of
        # i.i.d. noise at the same density.
        col_density = canvas.mean(axis=0)
        density = canvas.mean()
        iid_std = np.sqrt(density * (1 - density) / canvas.shape[0])
        assert col_density.std() > 2 * iid_std
