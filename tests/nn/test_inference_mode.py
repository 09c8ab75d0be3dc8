"""Inference fast path: train/eval parity, cache hygiene, mode plumbing."""

from pathlib import Path

import numpy as np
import pytest

from repro.diffusion import InpaintConfig, inpaint, linear_schedule
from repro.nn import (
    AvgPool2x,
    Conv2d,
    GroupNorm,
    SiLU,
    TimeUnet,
    UNetConfig,
    inference_mode,
)
from repro.nn.layers import gn_silu
from repro.nn.serialize import load_into
from repro.zoo.artifacts import model_config

#: The committed benchmark checkpoint, read only.
PINNED_WEIGHTS = (
    Path(__file__).resolve().parents[2] / "perfbench" / "model"
    / "finetuned-sd1-32.npz"
)

#: float32 values where a kernel's branches, rounding or overflow differ:
#: signed zeros, subnormals, the ``exp`` overflow edge, huge and infinite
#: magnitudes, and NaN.
EDGE_VALUES = np.array(
    [0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, 1.2e-38, -1.2e-38,
     1.0, -1.0, 88.7, -88.7, 88.8, -88.8, 100.0, -100.0,
     3e38, -3e38, 1e30, -1e30, np.inf, -np.inf, np.nan, -np.nan],
    dtype=np.float32,
)

FULL_CONFIG = UNetConfig(
    image_size=32,
    base_channels=16,
    channel_mults=(1, 2),
    num_res_blocks=1,
    groups=8,
    time_dim=32,
    attention=True,
    seed=7,
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint32)


def _assert_same_bits(ref: np.ndarray, out: np.ndarray) -> None:
    """Equal bits (sign of zero included) everywhere except that NaNs
    only need equal positions: their payload and sign are not part of
    any kernel's contract."""
    assert ref.shape == out.shape and ref.dtype == out.dtype
    nan = np.isnan(ref)
    np.testing.assert_array_equal(nan, np.isnan(out))
    np.testing.assert_array_equal(
        np.ascontiguousarray(ref)[~nan].view(np.uint32),
        np.ascontiguousarray(out)[~nan].view(np.uint32),
    )


def _with_edges(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Random normals of ``shape`` with every edge value spread through it."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=shape) * 30.0).astype(np.float32)
    flat = x.reshape(-1)
    count = min(flat.size // 2, 4 * EDGE_VALUES.size)
    at = rng.choice(flat.size, size=count, replace=False)
    flat[at] = np.resize(rng.permutation(EDGE_VALUES), count)
    return x


@pytest.fixture(scope="module")
def model():
    return TimeUnet(FULL_CONFIG)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 1, 32, 32)).astype(np.float32)
    t = np.full(4, 13, dtype=np.int64)
    return x, t


class TestForwardParity:
    def test_eval_forward_bit_identical(self, model, batch):
        x, t = batch
        model.train()
        out_train = model.forward(x, t)
        with inference_mode(model):
            out_eval = model.forward(x, t)
        np.testing.assert_array_equal(_bits(out_train), _bits(out_eval))

    def test_eval_forward_stable_across_calls(self, model, batch):
        """Workspace reuse must not leak state between forwards."""
        x, t = batch
        with inference_mode(model):
            first = model.forward(x, t)
            model.forward(x[:, :, ::-1].copy(), t)  # different input between
            second = model.forward(x, t)
        np.testing.assert_array_equal(_bits(first), _bits(second))

    def test_varying_batch_sizes(self, model, batch):
        """Partial chunks hit fresh workspace shapes; parity must hold."""
        x, t = batch
        model.train()
        ref = model.forward(x[:3], t[:3])
        with inference_mode(model):
            out = model.forward(x[:3], t[:3])
        np.testing.assert_array_equal(_bits(ref), _bits(out))

    def test_layer_level_parity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
        conv = Conv2d(8, 4, 3, rng)
        ref = conv.forward(x)
        conv.eval()
        np.testing.assert_array_equal(_bits(ref), _bits(conv.forward(x).copy()))
        norm = GroupNorm(4, 8)
        act = SiLU()
        ref = act(norm(x))
        norm.eval()
        act.eval()
        np.testing.assert_array_equal(_bits(ref), _bits(act(norm(x)).copy()))
        # The fused pair used inside eval-mode ResBlocks.
        np.testing.assert_array_equal(_bits(ref), _bits(gn_silu(norm, x).copy()))


class TestKernelParity:
    """Each inference kernel against its training forward, bit for bit."""

    def test_silu_edge_values(self):
        x = _with_edges((3, 8, 9, 7), seed=1)
        act = SiLU()
        with np.errstate(invalid="ignore", over="ignore"):
            ref = act(x)
            act.eval()
            out = act(x)
        _assert_same_bits(ref, out)
        # NaN in, NaN out, and no NaN anywhere else but at -inf (-inf * 0).
        np.testing.assert_array_equal(np.isnan(out), np.isnan(x) | (x == -np.inf))

    def test_gn_silu_edge_values(self):
        """Edge values reach the sigmoid through GroupNorm's affine."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, EDGE_VALUES.size, 5, 5)).astype(np.float32)
        norm = GroupNorm(EDGE_VALUES.size // 4, EDGE_VALUES.size)
        norm.gamma.data[:] = np.where(np.arange(EDGE_VALUES.size) % 2, 0.0, 1e-3)
        norm.beta.data[:] = EDGE_VALUES
        act = SiLU()
        with np.errstate(invalid="ignore", over="ignore"):
            ref = act(norm(x))
            norm.eval()
            act.eval()
            out = gn_silu(norm, x).copy()
            unfused = act(norm(x))
        _assert_same_bits(ref, out)
        _assert_same_bits(ref, unfused)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 1), (3, 0)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_conv2d(self, n, k, padding, bias):
        rng = np.random.default_rng(10 * n + k)
        conv = Conv2d(5, 6, k, rng, padding=padding, bias=bias)
        if bias:
            conv.bias.data[:] = rng.normal(size=6)
        x = rng.normal(size=(n, 5, 12, 10)).astype(np.float32)
        ref = conv.forward(x)
        conv.eval()
        _assert_same_bits(ref, conv.forward(x).copy())

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv2d_non_contiguous_input(self, k):
        rng = np.random.default_rng(k)
        conv = Conv2d(6, 4, k, rng)
        conv.bias.data[:] = rng.normal(size=4)
        base = rng.normal(size=(3, 12, 10, 9)).astype(np.float32)
        x = base[:, ::2, :, ::-1].transpose(0, 1, 3, 2)  # (3, 6, 9, 10)
        assert not x.flags.c_contiguous
        ref = conv.forward(x)
        conv.eval()
        _assert_same_bits(ref, conv.forward(x).copy())

    @pytest.mark.parametrize(
        "shape", [(4, 16, 4, 2), (2, 3, 2, 6), (3, 4, 4, 4), (2, 16, 32, 32)]
    )
    @pytest.mark.parametrize("layout", ["contiguous", "fortran", "float64"])
    def test_avgpool(self, shape, layout):
        """Width 2 and Fortran order make ``mean`` add in another order."""
        x = _with_edges(shape, seed=sum(shape))
        if layout == "fortran":
            x = np.asfortranarray(x)
        elif layout == "float64":
            x = x.astype(np.float64)
        pool = AvgPool2x()
        with np.errstate(invalid="ignore", over="ignore"):
            ref = pool(x)
            pool.eval()
            out = pool(x)
        _assert_same_bits(ref, out)

    @pytest.mark.parametrize("rows", [1, 5, 64])
    def test_pinned_unet_forward(self, rows):
        """The committed benchmark weights: the sharded inference forward
        equals the training forward at one row, an uneven split and a
        full sampling batch."""
        net = TimeUnet(model_config("sd1", 32))
        load_into(net, PINNED_WEIGHTS)
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 1, 32, 32)).astype(np.float32)
        t = rng.integers(0, 1000, size=rows)
        ref = net.forward(x, t)
        net.eval()
        _assert_same_bits(ref, net.forward(x, t))


class TestModeSwitching:
    def test_eval_sets_and_train_restores_flags(self, model):
        model.eval()
        assert all(not m.training for m in model.walk_modules())
        model.train()
        assert all(m.training for m in model.walk_modules())

    def test_inference_mode_restores_previous_state(self, model):
        model.train()
        with inference_mode(model):
            assert not model.training
            assert not model.stem.training
        assert model.training
        assert model.stem.training
        # A model already in eval stays in eval after the context exits.
        model.eval()
        with inference_mode(model):
            pass
        assert not model.training
        model.train()

    def test_training_still_works_after_inference(self, model, batch):
        x, t = batch
        with inference_mode(model):
            model.forward(x, t)
        model.train()
        out = model.forward(x, t)
        model.backward(np.ones_like(out))  # needs the tape => training path
        grads = [p.grad for p in model.parameters()]
        assert any(np.abs(g).sum() > 0 for g in grads)
        model.zero_grad()


class TestCacheHygiene:
    def test_no_caches_alive_after_inference_sampling(self, model):
        """The regression the fast path exists for: sampling in inference
        mode must leave no backward caches pinned on any module."""
        schedule = linear_schedule(40)
        known = np.full((2, 1, 32, 32), -1.0, dtype=np.float32)
        mask = np.zeros((32, 32), dtype=bool)
        mask[:, :16] = True
        model.train()
        model.forward(  # leave stale training caches behind on purpose
            np.zeros((2, 1, 32, 32), dtype=np.float32),
            np.zeros(2, dtype=np.int64),
        )
        with inference_mode(model):
            inpaint(
                model,
                schedule,
                known,
                mask,
                np.random.default_rng(0),
                InpaintConfig(num_steps=3),
            )
            for module in model.walk_modules():
                for attr in ("_cache", "_tape", "_skip_grads"):
                    assert getattr(module, attr, None) is None, (
                        f"{type(module).__name__}.{attr} still alive in "
                        "inference mode"
                    )
        model.train()

    def test_conv_workspaces_bounded(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(4, 4, 3, rng)
        conv.eval()
        for n in range(1, 8):  # 7 distinct input shapes
            conv.forward(np.zeros((n, 4, 8, 8), dtype=np.float32))
        from repro.nn.layers import _MAX_WORKSPACES

        assert len(conv._workspaces) <= _MAX_WORKSPACES
