"""Primitive layers with explicit backward rules.

All spatial layers use NCHW layout and ``float32``.  Training-mode
convolutions lower the padded batch to an im2col matrix with ``kh * kw``
block copies and run one stacked GEMM, which numpy executes as one GEMM
per sample.  Every backward rule is verified against finite differences
in ``tests/nn/test_gradients.py``.

Every layer also carries an inference fast path, taken when
``module.training`` is false (``Module.eval()`` / ``inference_mode``).
It records no backward caches and reuses buffers across timesteps, and
three kernels change shape:

* :class:`Conv2d` pads, lowers and multiplies one sample at a time, so a
  sample's columns stay in cache instead of the whole batch's streaming
  through memory; each sample still gets the very GEMM the stacked
  matmul would run.
* The sigmoid inside :class:`SiLU` and :func:`gn_silu` switches from
  masked fancy indexing to a select-free formulation over the same
  stable expressions (``exp(-|x|)`` equals ``exp(-x)`` on the positive
  branch and ``exp(x)`` on the negative one).
* :class:`AvgPool2x` adds the four window views in the order ``mean``'s
  reduction uses.

Both paths are bit-identical: the fast forms evaluate exactly the same
IEEE operations in the same order, and buffer reuse only changes *where*
results are written.  That is what lets sampling run through ``eval()``
without perturbing a single generated pattern
(``tests/nn/test_inference_mode.py`` checks each kernel on edge values).

The fast path is thread-safe, because the UNet runs row shards of one
forward on several threads (:mod:`repro.nn.shards`).  Every reused buffer
is per thread:

* elementwise temporaries come from a per-thread scratch pool;
* the transient padded-input and im2col buffers of :class:`Conv2d` are
  views into one per-thread arena that every layer shares;
* each :class:`Conv2d` keeps its output buffers per thread and per shape,
  because skip connections hold them across layers.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .shards import thread_slot
from .tensor import Module, Parameter, kaiming_normal, zeros_init

__all__ = [
    "AvgPool2x",
    "Chain",
    "Conv2d",
    "Flatten",
    "GroupNorm",
    "Identity",
    "Linear",
    "Reshape",
    "SiLU",
    "Upsample2x",
    "gn_silu",
]

#: Output buffers each :class:`Conv2d` keeps per thread (distinct input
#: shapes seen in inference mode; sampling uses one shape per row shard
#: plus a tail chunk).
_MAX_WORKSPACES = 4

#: Per-thread scratch buffers for inference-mode elementwise temporaries,
#: ``{thread ident: {(shape, dtype, slot): array}}``.  Entries live only
#: within a single layer call.
_SCRATCH: dict[int, dict[tuple, np.ndarray]] = {}

#: Per-thread arena for the transient pad and im2col buffers of
#: :class:`Conv2d`, ``{thread ident: {name: flat array}}``.  Each call
#: uses a view of a prefix, so all layers share one buffer per name.
_ARENA: dict[int, dict[str, np.ndarray]] = {}


def _scratch(shape: tuple[int, ...], dtype, slot: int) -> np.ndarray:
    """A reusable per-thread scratch array; ``slot`` disambiguates
    same-shape buffers needed simultaneously within one call."""
    pool = thread_slot(_SCRATCH)
    key = (shape, np.dtype(dtype).str, slot)
    buf = pool.get(key)
    if buf is None:
        if len(pool) >= 64:
            pool.pop(next(iter(pool)))
        buf = np.empty(shape, dtype=dtype)
        pool[key] = buf
    return buf


def _arena(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A ``float32`` view of ``shape`` over this thread's ``name`` arena.

    The arena grows to the largest request and is never shrunk; contents
    are whatever the previous user left, so callers overwrite all of it.
    """
    arena = thread_slot(_ARENA)
    size = math.prod(shape)
    buf = arena.get(name)
    if buf is None or buf.size < size:
        buf = arena[name] = np.empty(size, dtype=np.float32)
    return buf[:size].reshape(shape)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Vectorised numerically-stable sigmoid, bit-identical to the masked
    two-branch formulation (never exponentiates a positive value).

    ``exp(-|x|)`` equals ``exp(-x)`` where ``x >= 0`` and ``exp(x)``
    elsewhere, so the numerator ``1`` or ``e`` over the shared ``1 + e``
    denominator evaluates exactly the values of both branches.  The
    numerator is chosen without a select: ``max(e, x >= 0)`` is ``1``
    where ``x >= 0`` (there ``e <= 1``) and ``e`` elsewhere (the flag is
    ``0`` and ``e >= 0``), and a NaN ``x`` keeps its NaN ``e``.  An
    allocating ``np.where`` would cost more than the rest of the chain,
    and ``abs`` + ``negative`` is cheaper than ``copysign``.
    All temporaries come from this thread's scratch pool; the returned
    array is a scratch buffer, only valid until the next inference-mode
    layer call on the same thread.
    """
    if x.dtype != np.float32:  # rare path: keep dtype semantics exact
        e = np.exp(-np.abs(x))
        num = np.where(x >= 0, x.dtype.type(1.0), e)
        return num / (1.0 + e)
    e = _scratch(x.shape, np.float32, 0)
    num = _scratch(x.shape, np.float32, 1)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, np.float32(0.0), out=num, casting="unsafe")
    np.maximum(e, num, out=num)
    np.add(e, np.float32(1.0), out=e)  # e becomes the shared denominator
    np.divide(num, e, out=num)
    return num


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Lower padded input (N,C,Hp,Wp) to columns (N, C*kh*kw, H'*W').

    Built with ``kh * kw`` contiguous block copies, which on a whole batch
    is markedly faster on CPU than gathering through a strided 6-D view.
    The inference path lowers one sample at a time instead, where a
    single copy of :func:`_patches` wins (see :class:`Conv2d`).
    """
    n, c, hp, wp = xp.shape
    out_h = hp - kh + 1
    out_w = wp - kw + 1
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + out_h, j : j + out_w]
    return cols.reshape(n, c * kh * kw, out_h * out_w)


def _patches(xp: np.ndarray, k: int) -> np.ndarray:
    """Read-only ``(C, k, k, H', W')`` view of every ``k x k`` patch of one
    padded sample ``(C, Hp, Wp)``: one copy of it is that sample's im2col
    matrix."""
    c, hp, wp = xp.shape
    sc, sh, sw = xp.strides
    return as_strided(
        xp,
        (c, k, k, hp - k + 1, wp - k + 1),
        (sc, sh, sw, sh, sw),
        writeable=False,
    )


class Conv2d(Module):
    """Stride-1 2-D convolution with symmetric zero padding.

    Forward/backward are GEMM-based (im2col / col2im) for CPU speed.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        *,
        padding: int | None = None,
        bias: bool = True,
        init_scale: float = 1.0,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = kernel_size // 2 if padding is None else padding
        fan_in = in_channels * kernel_size * kernel_size
        weight = kaiming_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        self.weight = Parameter(weight * init_scale, "weight")
        self.bias = Parameter(zeros_init((out_channels,)), "bias") if bias else None
        self._cache: tuple | None = None
        #: ``{thread ident: {input shape: output buffer}}`` (inference).
        self._workspaces: dict[int, dict[tuple, np.ndarray]] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return self._forward_inference(x)
        x = np.ascontiguousarray(x, dtype=np.float32)
        pad = self.padding
        kh = kw = self.kernel_size
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
        n = x.shape[0]
        out_h = xp.shape[2] - kh + 1
        out_w = xp.shape[3] - kw + 1
        cols = _im2col(xp, kh, kw)  # (N, C*kh*kw, H'*W')
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = np.matmul(w_mat, cols)  # (N, F, H'*W')
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        self._cache = (cols, x.shape, (out_h, out_w))
        return out

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """No-cache forward reusing per-thread buffers, one sample at a time.

        Each sample is padded into this thread's shared arena, lowered to
        its im2col columns with one copy of :func:`_patches` and multiplied
        straight into its rows of the output.  numpy's stacked matmul runs
        one GEMM per sample too, so this is bit-identical to the batched
        training forward, but one sample's columns (at most a few MB) stay
        in cache where the whole batch's would stream through memory.  A
        pointwise conv needs no columns and keeps one stacked matmul.

        The output buffer is kept per thread and per input shape: it is
        valid until this layer's next inference forward on the same thread.
        Inside :class:`TimeUnet` every layer runs exactly once per forward
        and the network's final output is copied out, so reuse is
        invisible; direct users comparing two successive inference outputs
        of the *same* layer must copy.
        """
        x = np.ascontiguousarray(x, dtype=np.float32)
        pad = self.padding
        k = self.kernel_size
        n, c, h, w = x.shape
        f = self.out_channels
        out_h = h + 2 * pad - k + 1
        out_w = w + 2 * pad - k + 1
        outs = thread_slot(self._workspaces)
        out = outs.get(x.shape)
        if out is None:
            if len(outs) >= _MAX_WORKSPACES:
                outs.pop(next(iter(outs)))
            out = outs[x.shape] = np.empty((n, f, out_h * out_w), dtype=np.float32)
        w_mat = self.weight.data.reshape(f, -1)
        bias = None if self.bias is None else self.bias.data[:, None]
        if k == 1 and pad == 0:
            # Pointwise conv: the im2col matrix IS the input, no copies.
            np.matmul(w_mat, x.reshape(n, c, h * w), out=out)
            if bias is not None:
                out += bias
            return out.reshape(n, f, out_h, out_w)
        xp = _arena("xp", (c, h + 2 * pad, w + 2 * pad))
        if pad:
            # The arena is shared, so the border is re-zeroed each call.
            xp[:, :pad] = 0.0
            xp[:, h + pad :] = 0.0
            xp[:, pad : h + pad, :pad] = 0.0
            xp[:, pad : h + pad, w + pad :] = 0.0
        cols = _arena("cols", (c, k, k, out_h, out_w))
        cols_mat = cols.reshape(c * k * k, out_h * out_w)
        for r in range(n):
            if pad:
                xp[:, pad : h + pad, pad : w + pad] = x[r]
                np.copyto(cols, _patches(xp, k))
            else:
                np.copyto(cols, _patches(x[r], k))
            np.matmul(w_mat, cols_mat, out=out[r])
            if bias is not None:
                out[r] += bias
        return out.reshape(n, f, out_h, out_w)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cols, x_shape, (out_h, out_w) = self._cache
        n, c, h, w = x_shape
        pad = self.padding
        kh = kw = self.kernel_size
        f = self.out_channels
        dout_mat = np.ascontiguousarray(dout, dtype=np.float32).reshape(
            n, f, out_h * out_w
        )

        if self.bias is not None:
            self.bias.grad += dout_mat.sum(axis=(0, 2))

        # dW: sum over batch of dout @ cols^T.
        dweight = np.matmul(dout_mat, cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dweight.reshape(self.weight.data.shape)

        # dX via col2im: scatter-add the column gradients back.
        w_mat = self.weight.data.reshape(f, -1)
        dcols = np.matmul(w_mat.T, dout_mat)  # (N, C*kh*kw, H'*W')
        dcols = dcols.reshape(n, c, kh, kw, out_h, out_w)
        dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + out_h, j : j + out_w] += dcols[:, :, i, j]
        if pad:
            dxp = dxp[:, :, pad:-pad, pad:-pad]
        return np.ascontiguousarray(dxp)


class Linear(Module):
    """Affine map on the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        init_scale: float = 1.0,
    ):
        self.in_features = in_features
        self.out_features = out_features
        weight = kaiming_normal((out_features, in_features), in_features, rng)
        self.weight = Parameter(weight * init_scale, "weight")
        self.bias = Parameter(zeros_init((out_features,)), "bias")
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if self.training:
            self._cache = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._cache
        flat_x = x.reshape(-1, x.shape[-1])
        flat_d = dout.reshape(-1, dout.shape[-1])
        self.weight.grad += flat_d.T @ flat_x
        self.bias.grad += flat_d.sum(axis=0)
        return (dout @ self.weight.data).reshape(x.shape)


class GroupNorm(Module):
    """Group normalization over channel groups (NCHW)."""

    def __init__(self, num_groups: int, num_channels: int, *, eps: float = 1e-5):
        if num_channels % num_groups:
            raise ValueError(
                f"channels {num_channels} not divisible by groups {num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels, dtype=np.float32), "gamma")
        self.beta = Parameter(zeros_init((num_channels,)), "beta")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return self._forward_inference(x)
        n, c, h, w = x.shape
        g = self.num_groups
        xg = x.reshape(n, g, c // g * h * w)
        mean = xg.mean(axis=2, keepdims=True)
        var = xg.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = ((xg - mean) * inv_std).reshape(n, c, h, w)
        self._cache = (xhat, inv_std, (n, c, h, w))
        return xhat * self.gamma.data[None, :, None, None] + self.beta.data[
            None, :, None, None
        ]

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Cache-free normalization into a scratch buffer.

        ``np.var`` recomputes the mean internally; here the centered array
        is computed once and shared between the variance reduction and the
        normalized output (``mean((x - mean)^2)`` runs the exact reductions
        ``var`` performs, so the result is bit-identical).  The returned
        array is this thread's scratch, valid until its next inference-mode
        layer call of the same shape — inside the UNet every consumer reads
        it before the next normalization runs.
        """
        n, c, h, w = x.shape
        g = self.num_groups
        xg = x.reshape(n, g, c // g * h * w)
        mean = xg.mean(axis=2, keepdims=True)
        out = _scratch(x.shape, np.float32, 3).reshape(xg.shape)
        np.subtract(xg, mean, out=out)
        sq = _scratch(x.shape, np.float32, 4).reshape(xg.shape)
        np.multiply(out, out, out=sq)
        var = sq.mean(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        np.multiply(out, inv_std, out=out)
        out = out.reshape(n, c, h, w)
        np.multiply(out, self.gamma.data[None, :, None, None], out=out)
        np.add(out, self.beta.data[None, :, None, None], out=out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv_std, (n, c, h, w) = self._cache
        g = self.num_groups
        m = c // g * h * w

        self.gamma.grad += (dout * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dout.sum(axis=(0, 2, 3))

        dxhat = (dout * self.gamma.data[None, :, None, None]).reshape(n, g, m)
        xhat_g = xhat.reshape(n, g, m)
        # Standard normalization backward within each (sample, group).
        dx = (
            dxhat
            - dxhat.mean(axis=2, keepdims=True)
            - xhat_g * (dxhat * xhat_g).mean(axis=2, keepdims=True)
        ) * inv_std
        return dx.reshape(n, c, h, w)


class SiLU(Module):
    """x * sigmoid(x) — the smooth nonlinearity used throughout DDPM UNets."""

    def __init__(self):
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return x * _stable_sigmoid(x)
        # Numerically stable sigmoid: never exponentiates a positive value.
        sig = np.empty_like(x)
        pos = x >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sig[~pos] = ex / (1.0 + ex)
        self._cache = (x, sig)
        return x * sig

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, sig = self._cache
        return dout * (sig * (1.0 + x * (1.0 - sig)))


def gn_silu(norm: GroupNorm, x: np.ndarray) -> np.ndarray:
    """Fused inference-mode GroupNorm -> SiLU (the ResBlock hot pair).

    Normalizes, applies the affine in place, then multiplies by the stable
    sigmoid into the same buffer — one fresh allocation for the normalized
    activations plus the sigmoid temporaries, no backward caches.  Bit-
    identical to ``SiLU()(GroupNorm(...)(x))`` in either mode.
    """
    y = norm._forward_inference(x)
    np.multiply(y, _stable_sigmoid(y), out=y)
    return y


class Upsample2x(Module):
    """Nearest-neighbour 2x spatial upsampling."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            # One broadcast copy instead of two sequential repeats.
            n, c, h, w = x.shape
            out = np.empty((n, c, h, 2, w, 2), dtype=x.dtype)
            out[...] = x[:, :, :, None, :, None]
            return out.reshape(n, c, 2 * h, 2 * w)
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = dout.shape
        return (
            dout.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
        )


class AvgPool2x(Module):
    """2x2 average pooling (stride 2) — the UNet downsampling step."""

    def __init__(self):
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"AvgPool2x needs even spatial dims, got {h}x{w}")
        v = x.reshape(n, c, h // 2, 2, w // 2, 2)
        if not self.training and x.flags.c_contiguous and w > 2:
            # ``mean`` over a C-contiguous input with at least two output
            # columns adds each window as (a + b) + (c + d) and divides by
            # 4; doing exactly that on four strided views is bit-identical
            # and skips the generic reduction machinery.  Other layouts
            # reduce in another order, so they keep ``mean``.
            s = v[:, :, :, 0, :, 0] + v[:, :, :, 0, :, 1]
            s += v[:, :, :, 1, :, 0] + v[:, :, :, 1, :, 1]
            s /= 4
            return s
        self._shape = x.shape
        return v.mean(axis=(3, 5))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = self._shape
        return np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) / 4.0


class Identity(Module):
    """No-op (used for optional skip projections)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout


class Flatten(Module):
    """(N, C, H, W) -> (N, C*H*W)."""

    def __init__(self):
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._shape)


class Reshape(Module):
    """(N, D) -> (N, *target_shape)."""

    def __init__(self, target_shape: tuple[int, ...]):
        self.target_shape = tuple(target_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(dout.shape[0], -1)


class Chain(Module):
    """Sequential composition of single-input modules."""

    def __init__(self, modules: list[Module]):
        self.modules = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for module in reversed(self.modules):
            dout = module.backward(dout)
        return dout
