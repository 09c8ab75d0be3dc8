"""Finite-difference gradient checks for every backward rule.

Parameters are float32, so central differences carry roundoff noise around
``loss_magnitude * 1e-7 / eps``; tolerances and eps are chosen accordingly
(see the analysis notes in DESIGN.md).  Each check perturbs a sample of
entries rather than the full tensors to keep the suite fast.
"""

import numpy as np
import pytest

from repro.nn import Conv2d, GroupNorm, Linear, SiLU, TimeUnet, UNetConfig
from repro.nn.blocks import ResBlock, SelfAttention2d, TimeMlp

EPS = 4e-2
RTOL = 8e-2


def _richardson(read, write, loss_fn):
    """Richardson-extrapolated central difference (cancels the O(eps^2)
    truncation term, which dominates for strongly curved directions)."""
    old = read()

    def central(eps):
        write(old + eps)
        f_plus = loss_fn()
        write(old - eps)
        f_minus = loss_fn()
        write(old)
        return (f_plus - f_minus) / (2 * eps)

    coarse = central(EPS)
    fine = central(EPS / 2)
    return (4.0 * fine - coarse) / 3.0


def check_param_grads(module, loss_fn, n_checks=3, seed=7):
    """Compare analytic parameter grads against extrapolated differences."""
    rng = np.random.default_rng(seed)
    for name, p in module.named_parameters():
        for _ in range(min(n_checks, p.data.size)):
            idx = np.unravel_index(int(rng.integers(p.data.size)), p.data.shape)
            numeric = _richardson(
                lambda: float(p.data[idx]),
                lambda v: p.data.__setitem__(idx, v),
                loss_fn,
            )
            analytic = float(p.grad[idx])
            tol = RTOL * max(abs(numeric), abs(analytic), 5e-3)
            assert abs(numeric - analytic) <= tol, (
                f"{name}{idx}: numeric={numeric:.6f} analytic={analytic:.6f}"
            )


def check_input_grad(x, dx, loss_fn, n_checks=5, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(n_checks):
        idx = tuple(int(rng.integers(s)) for s in x.shape)
        numeric = _richardson(
            lambda: float(x[idx]),
            lambda v: x.__setitem__(idx, v),
            loss_fn,
        )
        analytic = float(dx[idx])
        tol = RTOL * max(abs(numeric), abs(analytic), 5e-3)
        assert abs(numeric - analytic) <= tol


def randomize(module, rng, scale=0.3):
    for _, p in module.named_parameters():
        p.data[...] = rng.normal(0, scale, size=p.data.shape).astype(np.float32)


class TestLayerGradients:
    def quadratic_setup(self, module, x_shape, seed=0):
        rng = np.random.default_rng(seed)
        randomize(module, rng)
        x = rng.normal(size=x_shape).astype(np.float32)
        target = rng.normal(size=np.asarray(module(x)).shape).astype(np.float32)

        def loss_fn():
            out = module.forward(x)
            return float(np.sum((out - target) ** 2, dtype=np.float64))

        out = module.forward(x)
        module.zero_grad()
        dx = module.backward(2.0 * (out - target))
        return x, dx, loss_fn

    def test_conv2d(self):
        module = Conv2d(2, 3, 3, np.random.default_rng(1))
        x, dx, loss_fn = self.quadratic_setup(module, (2, 2, 5, 5))
        check_param_grads(module, loss_fn)
        check_input_grad(x, dx, loss_fn)

    def test_conv2d_unpadded(self):
        module = Conv2d(1, 2, 3, np.random.default_rng(1), padding=0)
        x, dx, loss_fn = self.quadratic_setup(module, (1, 1, 5, 5))
        check_param_grads(module, loss_fn)
        check_input_grad(x, dx, loss_fn)

    @pytest.mark.parametrize("padding", [1, 0])
    def test_conv2d_wrap_columns(self, padding):
        """A narrow (2, 3, 5, 4) input, where the wrap columns of the
        wide-row lowering read the next row's data.  Every weight and
        every input entry is checked: a wrap column that reached ``dW`` or
        ``dx`` would show up only at some of them."""
        module = Conv2d(3, 2, 3, np.random.default_rng(5), padding=padding)
        x, dx, loss_fn = self.quadratic_setup(module, (2, 3, 5, 4), seed=3)
        check_param_grads(module, loss_fn, n_checks=module.weight.data.size)
        for idx in np.ndindex(x.shape):
            numeric = _richardson(
                lambda: float(x[idx]),
                lambda v: x.__setitem__(idx, v),
                loss_fn,
            )
            analytic = float(dx[idx])
            tol = RTOL * max(abs(numeric), abs(analytic), 5e-3)
            assert abs(numeric - analytic) <= tol, (idx, numeric, analytic)

    def test_linear(self):
        module = Linear(4, 3, np.random.default_rng(1))
        x, dx, loss_fn = self.quadratic_setup(module, (6, 4))
        check_param_grads(module, loss_fn)
        check_input_grad(x, dx, loss_fn)

    def test_groupnorm(self):
        module = GroupNorm(2, 4)
        x, dx, loss_fn = self.quadratic_setup(module, (2, 4, 3, 3))
        check_param_grads(module, loss_fn)
        check_input_grad(x, dx, loss_fn)

    def test_silu(self):
        module = SiLU()
        x, dx, loss_fn = self.quadratic_setup(module, (3, 5))
        check_input_grad(x, dx, loss_fn)

    def test_attention(self):
        module = SelfAttention2d(8, 4, np.random.default_rng(2))
        x, dx, loss_fn = self.quadratic_setup(module, (2, 8, 3, 3))
        check_param_grads(module, loss_fn)
        check_input_grad(x, dx, loss_fn)


class TestBlockGradients:
    def test_resblock(self):
        """``rows=None``: each sample has its own embedding."""
        self.check_resblock(None)

    def test_resblock_shared_embedding(self):
        """Samples 0 and 2 share embedding 1, whose gradient must add up."""
        self.check_resblock(np.array([1, 0, 1]))

    def check_resblock(self, rows):
        rng = np.random.default_rng(3)
        module = ResBlock(4, 6, 8, 2, rng)
        randomize(module, rng)
        n = 2 if rows is None else len(rows)
        x = rng.normal(size=(n, 4, 4, 4)).astype(np.float32)
        t_emb = rng.normal(size=(2, 8)).astype(np.float32)
        target = rng.normal(size=(n, 6, 4, 4)).astype(np.float32)

        def loss_fn():
            out = module.forward(x, t_emb, rows)
            return float(np.sum((out - target) ** 2, dtype=np.float64))

        out = module.forward(x, t_emb, rows)
        module.zero_grad()
        dx, dt = module.backward(2.0 * (out - target))
        assert dt.shape == t_emb.shape
        check_param_grads(module, loss_fn)
        check_input_grad(x, dx, loss_fn)
        check_input_grad(t_emb, dt, loss_fn, n_checks=4)

    def test_time_mlp(self):
        rng = np.random.default_rng(4)
        module = TimeMlp(8, rng)
        randomize(module, rng)
        t = np.array([2, 5])
        target = rng.normal(size=(2, 16)).astype(np.float32)

        def loss_fn():
            out = module.forward(t)
            return float(np.sum((out - target) ** 2, dtype=np.float64))

        out = module.forward(t)
        module.zero_grad()
        module.backward(2.0 * (out - target))
        check_param_grads(module, loss_fn)


class TestUnetGradients:
    @pytest.mark.parametrize(
        "attention,steps",
        [
            pytest.param(False, [3, 7], id="False"),
            pytest.param(True, [3, 7], id="True"),
            pytest.param(True, [3, 3, 7], id="True-repeated-step"),
        ],
    )
    def test_end_to_end(self, attention, steps):
        """``[3, 3, 7]`` repeats a timestep, so two samples' time gradients
        accumulate into one embedding row."""
        cfg = UNetConfig(
            image_size=8,
            base_channels=8,
            channel_mults=(1, 2),
            num_res_blocks=1,
            groups=4,
            time_dim=8,
            attention=attention,
            seed=3,
        )
        net = TimeUnet(cfg)
        rng = np.random.default_rng(42)
        randomize(net, rng, scale=0.2)
        t = np.array(steps)
        x = rng.normal(size=(len(t), 1, 8, 8)).astype(np.float32)
        target = rng.normal(size=(len(t), 1, 8, 8)).astype(np.float32)

        def loss_fn():
            out = net.forward(x, t)
            return float(np.sum((out - target) ** 2, dtype=np.float64))

        out = net.forward(x, t)
        net.zero_grad()
        dx = net.backward(2.0 * (out - target))
        check_param_grads(net, loss_fn, n_checks=1)
        check_input_grad(x, dx, loss_fn)
