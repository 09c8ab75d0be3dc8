"""Packed inpainting: per-segment rng streams inside one model batch."""

from pathlib import Path

import numpy as np
import pytest

from repro.diffusion import (
    InpaintConfig,
    SegmentedGenerator,
    inpaint,
    inpaint_packed,
    linear_schedule,
)
from repro.nn import TimeUnet, UNetConfig, inference_mode
from repro.nn.serialize import load_into
from repro.zoo.artifacts import model_config

#: The committed benchmark checkpoint, read only.
PINNED_WEIGHTS = (
    Path(__file__).resolve().parents[2] / "perfbench" / "model"
    / "finetuned-sd1-32.npz"
)

TINY = UNetConfig(
    image_size=16, base_channels=8, channel_mults=(1,), num_res_blocks=1,
    groups=4, time_dim=8, attention=False, seed=3,
)


@pytest.fixture(scope="module")
def model():
    return TimeUnet(TINY)


@pytest.fixture(scope="module")
def schedule():
    return linear_schedule(20)


def _known(n, seed, size=16):
    rng = np.random.default_rng(seed)
    clips = rng.integers(0, 2, (n, 1, size, size)).astype(np.float32)
    return clips * 2.0 - 1.0


MASK = np.zeros((16, 16), dtype=bool)
MASK[:, 8:] = True


def _assert_segments_match_standalone(model, schedule, sizes, mask, config):
    """Pack one segment per size and compare each with its own
    :func:`inpaint` run, bit for bit."""
    size = mask.shape[-1]
    segments = [_known(n, i, size) for i, n in enumerate(sizes)]
    with inference_mode(model):
        packed = inpaint_packed(
            model,
            schedule,
            np.concatenate(segments),
            mask,
            [np.random.default_rng(10 + i) for i in range(len(sizes))],
            sizes,
            config,
        )
        standalone = [
            inpaint(
                model, schedule, seg, mask,
                np.random.default_rng(10 + i), config,
            )
            for i, seg in enumerate(segments)
        ]
    offset = 0
    for seg, want in zip(segments, standalone):
        got = packed[offset:offset + len(seg)]
        offset += len(seg)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestSegmentedGenerator:
    def test_draws_match_standalone_generators(self):
        seg = SegmentedGenerator(
            [np.random.default_rng(1), np.random.default_rng(2)], [2, 3]
        )
        got = seg.standard_normal((5, 1, 4, 4))
        a = np.random.default_rng(1).standard_normal((2, 1, 4, 4))
        b = np.random.default_rng(2).standard_normal((3, 1, 4, 4))
        np.testing.assert_array_equal(got, np.concatenate([a, b]))

    def test_sequential_draws_advance_each_stream(self):
        seg = SegmentedGenerator([np.random.default_rng(7)], [2])
        first, second = seg.standard_normal((2, 4)), seg.standard_normal((2, 4))
        ref = np.random.default_rng(7)
        np.testing.assert_array_equal(first, ref.standard_normal((2, 4)))
        np.testing.assert_array_equal(second, ref.standard_normal((2, 4)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentedGenerator([np.random.default_rng(0)], [1, 2])
        with pytest.raises(ValueError):
            SegmentedGenerator([np.random.default_rng(0)], [0])
        seg = SegmentedGenerator([np.random.default_rng(0)], [2])
        with pytest.raises(ValueError):
            seg.standard_normal((3, 4))


class TestInpaintPacked:
    @pytest.mark.parametrize("eta,jumps", [(0.3, 1), (0.0, 1), (0.5, 2)])
    def test_segments_bit_identical_to_standalone(
        self, model, schedule, eta, jumps
    ):
        """Tentpole invariant: packing segments changes nothing, bit for
        bit, for every sampler configuration (stochastic DDIM,
        deterministic DDIM, RePaint resampling)."""
        config = InpaintConfig(num_steps=3, eta=eta, resample_jumps=jumps)
        _assert_segments_match_standalone(
            model, schedule, [2, 3, 1], MASK, config
        )

    @pytest.mark.parametrize("sizes", [[2, 3, 1], [16, 4]])
    def test_pinned_model_segments_bit_identical_to_standalone(self, sizes):
        """The same invariant on the committed benchmark weights, whose
        time MLP is wide enough for BLAS to pick its kernel by row count:
        a segment's bits must not depend on how many rows share its
        forward."""
        net = TimeUnet(model_config("sd1", 32))
        load_into(net, PINNED_WEIGHTS)
        mask = np.zeros((32, 32), dtype=bool)
        mask[:, 16:] = True
        _assert_segments_match_standalone(
            net, linear_schedule(250), sizes, mask, InpaintConfig(num_steps=3)
        )

    def test_single_segment_equals_plain_inpaint(self, model, schedule):
        config = InpaintConfig(num_steps=3)
        known = _known(3, 5)
        with inference_mode(model):
            packed = inpaint_packed(
                model, schedule, known, MASK,
                [np.random.default_rng(9)], [3], config,
            )
            plain = inpaint(
                model, schedule, known, MASK, np.random.default_rng(9), config
            )
        np.testing.assert_array_equal(
            packed.view(np.uint32), plain.view(np.uint32)
        )

    def test_size_mismatch_rejected(self, model, schedule):
        with pytest.raises(ValueError, match="segment sizes"):
            inpaint_packed(
                model, schedule, _known(3, 0), MASK,
                [np.random.default_rng(0)], [2], InpaintConfig(num_steps=2),
            )
