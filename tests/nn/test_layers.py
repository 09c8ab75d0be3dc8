"""Unit tests for layer forward semantics (values and shapes)."""

import numpy as np
import pytest

from repro.nn import AvgPool2x, Conv2d, GroupNorm, Linear, SiLU, Upsample2x
from repro.nn.layers import Chain, Flatten, Identity, Reshape, gn_silu


def rng():
    return np.random.default_rng(0)


def naive_conv(x, w, b, pad):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = xp.shape[2] - kh + 1
    ow = xp.shape[3] - kw + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for y in range(oh):
                for xx in range(ow):
                    out[ni, fi, y, xx] = (
                        xp[ni, :, y : y + kh, xx : xx + kw] * w[fi]
                    ).sum() + b[fi]
    return out


def gn_silu_reference(x, gamma, beta, groups, eps=1e-5):
    """GroupNorm -> SiLU in float64, with the sigmoid as
    ``exp(-log(1 + exp(-y)))``, which neither overflows nor cancels."""
    n, c, h, w = x.shape
    xg = x.astype(np.float64).reshape(n, groups, -1)
    centred = xg - xg.mean(axis=2, keepdims=True)
    var = (centred**2).mean(axis=2, keepdims=True)
    y = (centred / np.sqrt(var + eps)).reshape(n, c, h, w)
    y = y * gamma[None, :, None, None] + beta[None, :, None, None]
    return y * np.exp(-np.logaddexp(0.0, -y))


class TestConv2d:
    def test_matches_naive_convolution(self):
        conv = Conv2d(2, 3, 3, rng())
        x = rng().normal(size=(2, 2, 5, 6)).astype(np.float32)
        out = conv(x)
        expected = naive_conv(x, conv.weight.data, conv.bias.data, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("hw", [(5, 7), (12, 10)])
    def test_matches_naive_in_both_modes(self, mode, k, padding, n, hw):
        """Narrow non-square inputs: the wrap columns of the wide-row
        lowering read the next row's data (or, unpadded, real pixels),
        so any leak of them into the output shows here."""
        gen = np.random.default_rng(100 * k + 10 * padding + n)
        conv = Conv2d(3, 4, k, gen, padding=padding)
        conv.bias.data[:] = gen.normal(size=4)
        x = gen.normal(size=(n, 3) + hw).astype(np.float32)
        if mode == "eval":
            conv.eval()
        out = conv(x).copy()
        expected = naive_conv(
            x.astype(np.float64),
            conv.weight.data.astype(np.float64),
            conv.bias.data.astype(np.float64),
            padding,
        )
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)

    def test_1x1_convolution_is_channel_mix(self):
        conv = Conv2d(4, 2, 1, rng(), padding=0)
        x = rng().normal(size=(1, 4, 3, 3)).astype(np.float32)
        out = conv(x)
        w = conv.weight.data[:, :, 0, 0]
        expected = np.einsum("fc,nchw->nfhw", w, x) + conv.bias.data[None, :, None, None]
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_same_padding_preserves_spatial_dims(self):
        conv = Conv2d(1, 1, 3, rng())
        assert conv(np.zeros((1, 1, 7, 9), dtype=np.float32)).shape == (1, 1, 7, 9)

    def test_no_bias_option(self):
        conv = Conv2d(1, 2, 3, rng(), bias=False)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_zero_init_scale_gives_zero_output(self):
        conv = Conv2d(1, 1, 3, rng(), init_scale=0.0)
        x = rng().normal(size=(1, 1, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(conv(x), np.zeros((1, 1, 4, 4)))


class TestLinear:
    def test_affine_map(self):
        lin = Linear(3, 2, rng())
        x = rng().normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_allclose(
            lin(x), x @ lin.weight.data.T + lin.bias.data, rtol=1e-5
        )

    def test_broadcasts_over_leading_dims(self):
        lin = Linear(3, 2, rng())
        x = rng().normal(size=(4, 5, 3)).astype(np.float32)
        assert lin(x).shape == (4, 5, 2)


class TestGroupNorm:
    def test_normalizes_within_groups(self):
        gn = GroupNorm(2, 4)
        x = rng().normal(loc=3.0, scale=2.0, size=(2, 4, 5, 5)).astype(np.float32)
        out = gn(x)
        grouped = out.reshape(2, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-5)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self):
        gn = GroupNorm(1, 2)
        gn.gamma.data[...] = 2.0
        gn.beta.data[...] = 1.0
        x = rng().normal(size=(1, 2, 4, 4)).astype(np.float32)
        out = gn(x)
        grouped = out.reshape(1, 1, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 1.0, atol=1e-5)

    def test_channel_divisibility_enforced(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)


class TestGnSiLU:
    @pytest.mark.parametrize("form", ["train", "eval", "fused"])
    def test_matches_float64_reference(self, form):
        """Betas from -60 to 60 push the activations far past the point
        (about -17) where ``1 + tanh(x / 2)`` rounds to 0 in float32; the
        absolute bound must still hold there."""
        gen = np.random.default_rng(4)
        channels, groups = 16, 4
        x = gen.normal(loc=2.0, scale=3.0, size=(3, channels, 6, 5))
        x = x.astype(np.float32)
        norm = GroupNorm(groups, channels)
        norm.gamma.data[:] = gen.uniform(0.5, 8.0, size=channels)
        norm.beta.data[:] = np.linspace(-60.0, 60.0, channels)
        act = SiLU()
        if form == "train":
            out = act(norm(x))
        else:
            norm.eval()
            act.eval()
            out = act(norm(x)) if form == "eval" else gn_silu(norm, x).copy()
        expected = gn_silu_reference(
            x, norm.gamma.data.astype(np.float64),
            norm.beta.data.astype(np.float64), groups,
        )
        # A fifth of the activations come from inputs below about -17.
        assert np.mean((expected < 0.0) & (expected > -1e-6)) > 0.2
        err = np.abs(out.astype(np.float64) - expected)
        bound = 2e-6 + 1e-5 * np.abs(expected)
        assert np.all(err <= bound), float((err - bound).max())


class TestSiLU:
    def test_values(self):
        act = SiLU()
        x = np.array([[-1e3, 0.0, 1e3]], dtype=np.float64)
        out = act(x)
        np.testing.assert_allclose(out[0], [0.0, 0.0, 1e3], atol=1e-6)

    def test_silu_at_one(self):
        act = SiLU()
        assert act(np.array([1.0]))[0] == pytest.approx(1 / (1 + np.exp(-1)))


class TestResampling:
    def test_upsample_repeats_pixels(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        out = Upsample2x()(x)
        assert out.shape == (1, 1, 4, 4)
        assert out[0, 0, 0, 0] == out[0, 0, 1, 1] == 0

    def test_avgpool_means(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = AvgPool2x()(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avgpool_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            AvgPool2x()(np.zeros((1, 1, 3, 4), dtype=np.float32))

    def test_pool_and_upsample_are_adjoint(self):
        """<P x, y> == <x, P^T y> — backward implements the exact adjoint."""
        pool = AvgPool2x()
        x = rng().normal(size=(2, 3, 4, 4)).astype(np.float32)
        y = rng().normal(size=(2, 3, 2, 2)).astype(np.float32)
        lhs = float((pool(x) * y).sum())
        rhs = float((x * pool.backward(y)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-5)

        up = Upsample2x()
        xu = rng().normal(size=(2, 3, 2, 2)).astype(np.float32)
        yu = rng().normal(size=(2, 3, 4, 4)).astype(np.float32)
        lhs = float((up(xu) * yu).sum())
        rhs = float((xu * up.backward(yu)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-5)


class TestStructural:
    def test_identity(self):
        x = np.ones((2, 2))
        ident = Identity()
        assert ident(x) is x
        assert ident.backward(x) is x

    def test_flatten_reshape_roundtrip(self):
        x = rng().normal(size=(3, 2, 4, 4)).astype(np.float32)
        flat = Flatten()
        out = flat(x)
        assert out.shape == (3, 32)
        np.testing.assert_array_equal(flat.backward(out), x)
        reshape = Reshape((2, 4, 4))
        np.testing.assert_array_equal(reshape(out), x)

    def test_chain_composes_in_order(self):
        chain = Chain([SiLU(), Flatten()])
        x = rng().normal(size=(2, 1, 3, 3)).astype(np.float32)
        assert chain(x).shape == (2, 9)

    def test_chain_collects_parameters(self):
        chain = Chain([Conv2d(1, 2, 3, rng()), SiLU(), Conv2d(2, 1, 3, rng())])
        assert len(chain.parameters()) == 4
