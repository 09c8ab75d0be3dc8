"""Composite blocks for the diffusion UNet.

The architecture mirrors the standard DDPM UNet at miniature scale: residual
blocks with additive timestep conditioning, optional single-head self
attention at the bottleneck, and a two-layer MLP over sinusoidal timestep
features.
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2d, GroupNorm, Identity, Linear, SiLU, gn_silu
from .tensor import Module

__all__ = ["sinusoidal_embedding", "TimeMlp", "ResBlock", "SelfAttention2d"]


def sinusoidal_embedding(t: np.ndarray, dim: int, *, max_period: float = 10_000.0) -> np.ndarray:
    """Transformer-style sinusoidal features of (integer) timesteps.

    Returns an array of shape ``(len(t), dim)``; ``dim`` must be even.
    """
    if dim % 2:
        raise ValueError(f"embedding dim must be even, got {dim}")
    t = np.asarray(t, dtype=np.float32).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half, dtype=np.float32) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1).astype(np.float32)


class TimeMlp(Module):
    """Two-layer MLP on sinusoidal timestep features."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.fc1 = Linear(dim, dim * 2, rng)
        self.act = SiLU()
        self.fc2 = Linear(dim * 2, dim * 2, rng)

    def forward(self, t: np.ndarray) -> np.ndarray:
        emb = sinusoidal_embedding(t, self.dim)
        return self.fc2(self.act(self.fc1(emb)))

    def backward(self, dout: np.ndarray) -> None:
        # Sinusoidal features are constants; no gradient flows past fc1.
        self.fc1.backward(self.act.backward(self.fc2.backward(dout)))


class ResBlock(Module):
    """GN -> SiLU -> conv, timestep bias, GN -> SiLU -> conv, residual add.

    The timestep embedding is projected to ``out_channels`` and added as a
    per-channel bias between the two convolutions (the DDPM formulation).
    The second convolution is zero-initialized so a fresh block is the
    identity map, which stabilizes early training.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        time_dim: int,
        groups: int,
        rng: np.random.Generator,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.norm1 = GroupNorm(groups, in_channels)
        self.act1 = SiLU()
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng)
        self.time_proj = Linear(time_dim, out_channels, rng)
        self.norm2 = GroupNorm(groups, out_channels)
        self.act2 = SiLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, init_scale=0.0)
        if in_channels == out_channels:
            self.skip = Identity()
        else:
            self.skip = Conv2d(in_channels, out_channels, 1, rng, padding=0)
        self._cache: tuple | None = None

    def forward(
        self, x: np.ndarray, t_emb: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """``t_emb`` holds one embedding per distinct timestep and
        ``rows[i]`` picks sample *i*'s; ``rows=None`` means one embedding
        per sample.  Projecting before the gather keeps a sample's bias
        bits independent of how many samples share the forward."""
        bias = self.time_proj(t_emb)
        if rows is not None:
            bias = bias[rows]
        bias = bias[:, :, None, None]
        if not self.training:
            # Fused GN->SiLU, in-place adds on the fresh conv outputs.
            h = self.conv1(gn_silu(self.norm1, x))
            h += bias
            h = self.conv2(gn_silu(self.norm2, h))
            h += self.skip(x)
            return h
        self._cache = (rows, len(t_emb))
        h = self.conv1(self.act1(self.norm1(x)))
        h = h + bias
        h = self.conv2(self.act2(self.norm2(h)))
        return h + self.skip(x)

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns ``(dx, dt_emb)``, ``dt_emb`` shaped like ``t_emb``."""
        rows, n_emb = self._cache
        dh = self.conv2.backward(dout)
        dh = self.norm2.backward(self.act2.backward(dh))
        dbias = dh.sum(axis=(2, 3))
        if rows is not None:
            # Every sample sharing a timestep adds into that step's row.
            per_step = np.zeros((n_emb, dbias.shape[1]), dtype=dbias.dtype)
            np.add.at(per_step, rows, dbias)
            dbias = per_step
        dt_emb = self.time_proj.backward(dbias)
        dx = self.conv1.backward(dh)
        dx = self.norm1.backward(self.act1.backward(dx))
        return dx + self.skip.backward(dout), dt_emb


class SelfAttention2d(Module):
    """Single-head self-attention over spatial positions (NCHW).

    Used at the UNet bottleneck where the spatial extent is small; gives the
    model a global receptive field so track pitch can be coordinated across
    the whole clip.
    """

    def __init__(self, channels: int, groups: int, rng: np.random.Generator):
        self.channels = channels
        self.norm = GroupNorm(groups, channels)
        self.q = Conv2d(channels, channels, 1, rng, padding=0, bias=False)
        self.k = Conv2d(channels, channels, 1, rng, padding=0, bias=False)
        self.v = Conv2d(channels, channels, 1, rng, padding=0, bias=False)
        self.proj = Conv2d(channels, channels, 1, rng, padding=0, init_scale=0.0)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        length = h * w
        xn = self.norm(x)
        q = self.q(xn).reshape(n, c, length)
        k = self.k(xn).reshape(n, c, length)
        v = self.v(xn).reshape(n, c, length)

        scale = np.float32(1.0 / np.sqrt(c))
        # scores[n, i, j] = <q[:, i], k[:, j]> * scale (BLAS batched matmul).
        scores = np.matmul(q.transpose(0, 2, 1), k) * scale
        scores -= scores.max(axis=2, keepdims=True)
        if self.training:
            attn = np.exp(scores)
        else:
            attn = np.exp(scores, out=scores)  # scores is a fresh temporary
        attn /= attn.sum(axis=2, keepdims=True)  # (n, i, j), softmax over j

        out = np.matmul(v, attn.transpose(0, 2, 1)).reshape(n, c, h, w)
        if self.training:
            self._cache = (q, k, v, attn, scale, (n, c, h, w))
        return self.proj(out) + x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        q, k, v, attn, scale, (n, c, h, w) = self._cache
        length = h * w

        dproj_in = self.proj.backward(dout).reshape(n, c, length)

        # dattn[n, i, j] = <dproj_in[:, i], v[:, j]>
        dattn = np.matmul(dproj_in.transpose(0, 2, 1), v)
        # dv[n, c, j] = sum_i attn[n, i, j] * dproj_in[n, c, i]
        dv = np.matmul(dproj_in, attn)

        # Softmax backward over the last axis.
        dscores = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
        dscores *= scale

        # dq[n, c, i] = sum_j dscores[n, i, j] * k[n, c, j]
        dq = np.matmul(k, dscores.transpose(0, 2, 1))
        # dk[n, c, j] = sum_i dscores[n, i, j] * q[n, c, i]
        dk = np.matmul(q, dscores)

        dxn = self.q.backward(dq.reshape(n, c, h, w))
        dxn += self.k.backward(dk.reshape(n, c, h, w))
        dxn += self.v.backward(dv.reshape(n, c, h, w))
        return self.norm.backward(dxn) + dout
