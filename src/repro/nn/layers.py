"""Primitive layers with explicit backward rules.

All spatial layers use NCHW layout and ``float32``.  Every backward rule
is verified against finite differences in ``tests/nn/test_gradients.py``.

The two hot kernels run one op sequence in training and inference, so
the inference forward is bit-identical to the training forward by
construction:

* :class:`Conv2d` lowers over padded-width rows.  A sample is padded
  into an arena one row taller than usual, ``(C, Hp + 1, Wp)``; one
  copy of its ``(C, k, k, H' * Wp)`` patch view (:func:`_row_patches`,
  whose inner runs are contiguous) is its column matrix, and one
  ``(F, C * k * k)`` GEMM over ``H' * Wp`` columns gives ``H'`` output
  rows ``Wp`` wide.  Their last ``k - 1`` columns wrap into the next
  row and are dropped while the bias is added.  Training stacks the
  same lowering over the batch (numpy runs one GEMM per sample), and
  its col2im is ``k * k`` contiguous shifted adds, with the wrap
  columns of ``dout`` zeroed first.  OpenBLAS picks its GEMM kernel by
  column count, so the two modes must share the lowering to share bits.
* :class:`GroupNorm` centres each (sample, group) row, sums its squares
  with a per-row ``einsum`` (no squared temporary; the two-pass form,
  because one-pass ``E[x^2] - mean^2`` cancels in float32) and applies
  ``y = xc * (inv_std * gamma) + beta`` with the scale folded per
  (sample, channel).  :class:`SiLU` is ``h * (1 + tanh(h))`` with
  ``h = x * 0.5``, which is ``x * sigmoid(x)`` without an ``exp``
  overflow branch.  :func:`gn_silu` runs both sequences into scratch.

What inference mode (``module.training`` false, see ``Module.eval()`` /
``inference_mode``) changes is memory, not arithmetic: it records no
backward caches, reuses buffers across timesteps and lowers
convolutions one sample at a time, so a sample's columns stay in cache
instead of the whole batch's streaming through memory.  Two layers keep
a separate inference form that is exact by construction:
:class:`AvgPool2x` adds the four window views in the order ``mean``'s
reduction uses, and :class:`Upsample2x` copies once instead of twice.
``tests/nn/test_inference_mode.py`` checks every kernel bit for bit
against its training forward, and ``tests/nn/test_layers.py`` checks
both modes against independent references.

The fast path is thread-safe, because the UNet runs row shards of one
forward on several threads (:mod:`repro.nn.shards`).  Every reused buffer
is per thread:

* elementwise temporaries come from a per-thread scratch pool;
* the transient padded-input, column and wide-output buffers of
  :class:`Conv2d` are views into one per-thread arena that every layer
  shares;
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

#: Per-thread arena for the transient pad, column and wide-output buffers
#: of :class:`Conv2d`, ``{thread ident: {name: flat array}}``.  Each call
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


def _row_patches(xp: np.ndarray, k: int) -> np.ndarray:
    """Read-only ``(..., C, k, k, H' * Wp)`` view of padded input
    ``(..., C, Hp + 1, Wp)``: entry ``[c, i, j, y * Wp + x]`` is
    ``xp[c, y + i, x + j]``.

    One copy of it is the wide column matrix.  Columns ``x >= Wp - k + 1``
    wrap into the next row (the last row's into the spare row, which is
    why the arena is one row taller) and are dropped after the GEMM.
    """
    *lead, c, rows, wp = xp.shape
    *lead_strides, sc, sh, sw = xp.strides
    return as_strided(
        xp,
        (*lead, c, k, k, (rows - k) * wp),
        (*lead_strides, sc, sh, sw, sw),
        writeable=False,
    )


def _silu_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``x * sigmoid(x)`` as ``h * (1 + tanh(h))``, ``h = x * 0.5``, into
    ``out`` (which may be ``x``), with ``1 + tanh(h)`` left in ``tmp``.

    ``tanh`` saturates instead of overflowing, so no input needs a
    branch; ``1 + tanh(h)`` rounds to 0 below about ``x = -17``, where
    the exact value is under ``1e-6`` in magnitude.
    """
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=tmp)
    np.add(tmp, 1.0, out=tmp)
    return np.multiply(out, tmp, out=out)


class Conv2d(Module):
    """Stride-1 2-D convolution with symmetric zero padding.

    Forward/backward are GEMM-based (wide-row im2col / col2im) for CPU
    speed; see the module docstring.
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
        k = self.kernel_size
        n, c, h, w = x.shape
        f = self.out_channels
        hp, wp = h + 2 * pad, w + 2 * pad
        out_h, out_w = hp - k + 1, wp - k + 1
        xp = np.zeros((n, c, hp + 1, wp), dtype=np.float32)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        cols = np.ascontiguousarray(_row_patches(xp, k))
        cols = cols.reshape(n, c * k * k, out_h * wp)
        w_mat = self.weight.data.reshape(f, -1)
        wide = np.matmul(w_mat, cols).reshape(n, f, out_h, wp)
        if self.bias is not None:
            out = wide[..., :out_w] + self.bias.data[:, None, None]
        else:
            out = np.ascontiguousarray(wide[..., :out_w])
        self._cache = (cols, x.shape)
        return out

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """No-cache forward reusing per-thread buffers, one sample at a time.

        Each sample is padded into this thread's shared arena, lowered
        with one copy of :func:`_row_patches` and multiplied into the
        wide arena, whose valid columns then land in that sample's rows
        of the output with the bias added.  numpy's stacked matmul runs
        one GEMM of the same shape per sample, so this is bit-identical
        to the training forward, but one sample's columns (at most a few
        MB) stay in cache where the whole batch's would stream through
        memory.  A pointwise conv needs no columns and keeps one stacked
        matmul.

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
        hp, wp = h + 2 * pad, w + 2 * pad
        out_h, out_w = hp - k + 1, wp - k + 1
        outs = thread_slot(self._workspaces)
        out = outs.get(x.shape)
        if out is None:
            if len(outs) >= _MAX_WORKSPACES:
                outs.pop(next(iter(outs)))
            out = outs[x.shape] = np.empty((n, f, out_h, out_w), dtype=np.float32)
        w_mat = self.weight.data.reshape(f, -1)
        bias = None if self.bias is None else self.bias.data[:, None, None]
        if k == 1 and pad == 0:
            # Pointwise conv: the column matrix IS the input, no copies.
            np.matmul(w_mat, x.reshape(n, c, h * w), out=out.reshape(n, f, h * w))
            if bias is not None:
                out += bias
            return out
        xp = _arena("xp", (c, hp + 1, wp))
        # The arena is shared, so the border and spare row are re-zeroed
        # each call.
        xp[:, :pad] = 0.0
        xp[:, pad + h :] = 0.0
        xp[:, pad : pad + h, :pad] = 0.0
        xp[:, pad : pad + h, pad + w :] = 0.0
        cols = _arena("cols", (c, k, k, out_h * wp))
        cols_mat = cols.reshape(c * k * k, out_h * wp)
        wide = _arena("wide", (f, out_h, wp))
        wide_mat = wide.reshape(f, out_h * wp)
        for r in range(n):
            xp[:, pad : pad + h, pad : pad + w] = x[r]
            np.copyto(cols, _row_patches(xp, k))
            np.matmul(w_mat, cols_mat, out=wide_mat)
            if bias is not None:
                np.add(wide[:, :, :out_w], bias, out=out[r])
            else:
                out[r] = wide[:, :, :out_w]
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cols, (n, c, h, w) = self._cache
        pad = self.padding
        k = self.kernel_size
        f = self.out_channels
        hp, wp = h + 2 * pad, w + 2 * pad
        out_h, out_w = hp - k + 1, wp - k + 1
        dout = np.asarray(dout, dtype=np.float32)

        if self.bias is not None:
            self.bias.grad += dout.sum(axis=(0, 2, 3))

        # The gradient over the wide rows: zero at the wrap columns, so
        # they reach neither dW nor dx.
        dwide = np.zeros((n, f, out_h, wp), dtype=np.float32)
        dwide[..., :out_w] = dout
        dwide = dwide.reshape(n, f, out_h * wp)

        # dW: sum over batch of dout @ cols^T.
        dweight = np.matmul(dwide, cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dweight.reshape(self.weight.data.shape)

        w_mat = self.weight.data.reshape(f, -1)
        dcols = np.matmul(w_mat.T, dwide)  # (N, C*k*k, H'*Wp)
        # col2im: each (i, j) tap is one contiguous shifted add over the
        # flattened padded rows.
        dcols = dcols.reshape(n, c, k, k, out_h * wp)
        dxp = np.zeros((n, c, (hp + 1) * wp), dtype=np.float32)
        span = out_h * wp
        for i in range(k):
            for j in range(k):
                at = i * wp + j
                dxp[:, :, at : at + span] += dcols[:, :, i, j]
        dxp = dxp.reshape(n, c, hp + 1, wp)
        return np.ascontiguousarray(dxp[:, :, pad : pad + h, pad : pad + w])


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

    def _normalize(self, x: np.ndarray, xc: np.ndarray, out: np.ndarray):
        """The one normalization sequence of both modes.

        Writes ``x - mean`` into ``xc`` and ``xc * (inv_std * gamma) +
        beta`` into ``out`` (which may be ``xc``); returns ``inv_std`` as
        ``(N, G, 1)``.  The variance is the centred sum of squares from a
        per-row ``einsum``, which needs no squared temporary.
        """
        n, c, h, w = x.shape
        g = self.num_groups
        xg = x.reshape(n, g, c // g * h * w)
        rows = xc.reshape(n * g, -1)
        np.subtract(xg, xg.mean(axis=2, keepdims=True), out=rows.reshape(xg.shape))
        var = np.einsum("ij,ij->i", rows, rows) / rows.shape[1]
        inv_std = (1.0 / np.sqrt(var + self.eps)).reshape(n, g, 1)
        scale = (inv_std * self.gamma.data.reshape(g, -1)).reshape(n, c, 1)
        y = out.reshape(n, c, h * w)
        np.multiply(xc.reshape(n, c, h * w), scale, out=y)
        np.add(y, self.beta.data[:, None], out=y)
        return inv_std

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return self._forward_inference(x)
        xc = np.empty_like(x)
        out = np.empty_like(x)
        inv_std = self._normalize(x, xc, out)
        self._cache = (xc, inv_std)
        return out

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Cache-free normalization, in place in one scratch buffer.

        The returned array is this thread's scratch, valid until its next
        inference-mode layer call of the same shape — inside the UNet
        every consumer reads it before the next normalization runs.
        """
        y = _scratch(x.shape, np.float32, 3)
        self._normalize(x, y, y)
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xc, inv_std = self._cache
        n, c, h, w = xc.shape
        g = self.num_groups
        m = c // g * h * w
        xhat = (xc.reshape(n, g, m) * inv_std).reshape(n, c, h, w)

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
        out = np.empty_like(x)
        one_plus_tanh = np.empty_like(x)
        _silu_into(x, out, one_plus_tanh)
        if self.training:
            self._cache = (x, np.multiply(one_plus_tanh, 0.5, out=one_plus_tanh))
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, sig = self._cache
        return dout * (sig * (1.0 + x * (1.0 - sig)))


def gn_silu(norm: GroupNorm, x: np.ndarray) -> np.ndarray:
    """Fused inference-mode GroupNorm -> SiLU (the ResBlock hot pair).

    Runs both layers' op sequences in place in one scratch buffer, with
    one more scratch slot for ``1 + tanh``, and records no backward
    caches.  Bit-identical to ``SiLU()(GroupNorm(...)(x))`` in either
    mode.
    """
    y = norm._forward_inference(x)
    return _silu_into(y, y, _scratch(y.shape, np.float32, 0))


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
