"""Time-conditioned UNet for epsilon prediction.

A miniature DDPM UNet (Ho et al., 2020): stem convolution, a down path of
residual blocks with 2x average-pool downsampling, a bottleneck with optional
self-attention, and an up path consuming skip connections by channel
concatenation.  A training forward records an op tape so ``backward``
replays the exact graph in reverse, including the concat splits of skip
connections.

At reproduction scale (base 16-32 channels, 1-2 levels, 32-64 px clips) the
model has 50k-500k parameters — enough to learn track grammar from a layout
corpus while training in minutes on CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ResBlock, SelfAttention2d, TimeMlp
from .layers import AvgPool2x, Conv2d, GroupNorm, SiLU, Upsample2x, gn_silu
from .shards import run_shards, thread_slot
from .tensor import Module

__all__ = ["UNetConfig", "TimeUnet"]


@dataclass(frozen=True)
class UNetConfig:
    """Architecture hyper-parameters of :class:`TimeUnet`.

    ``image_size`` must be divisible by ``2 ** (len(channel_mults) - 1)``.
    ``groups`` must divide every level's channel count.
    """

    image_size: int = 32
    in_channels: int = 1
    base_channels: int = 16
    channel_mults: tuple[int, ...] = (1, 2)
    num_res_blocks: int = 1
    groups: int = 8
    time_dim: int = 32
    attention: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        down_factor = 2 ** (len(self.channel_mults) - 1)
        if self.image_size % down_factor:
            raise ValueError(
                f"image_size {self.image_size} not divisible by {down_factor}"
            )
        for mult in self.channel_mults:
            if (self.base_channels * mult) % self.groups:
                raise ValueError(
                    f"groups {self.groups} must divide channels "
                    f"{self.base_channels * mult}"
                )

    @property
    def level_channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * m for m in self.channel_mults)


class TimeUnet(Module):
    """Predicts the noise ``eps`` given a noisy image and its timestep."""

    def __init__(self, config: UNetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        time_out = config.time_dim * 2
        chs = config.level_channels
        n_levels = len(chs)
        n_res = config.num_res_blocks

        self.time_mlp = TimeMlp(config.time_dim, rng)
        self.stem = Conv2d(config.in_channels, chs[0], 3, rng)

        # ---- down path ------------------------------------------------
        self.down_res: list[ResBlock] = []
        self.downsamples: list[AvgPool2x] = []
        skip_chs = [chs[0]]
        prev = chs[0]
        for i, ch in enumerate(chs):
            for _ in range(n_res):
                self.down_res.append(
                    ResBlock(prev, ch, time_out, config.groups, rng)
                )
                prev = ch
                skip_chs.append(ch)
            if i != n_levels - 1:
                self.downsamples.append(AvgPool2x())
                skip_chs.append(ch)

        # ---- bottleneck -----------------------------------------------
        self.mid1 = ResBlock(prev, prev, time_out, config.groups, rng)
        self.attn = (
            SelfAttention2d(prev, config.groups, rng) if config.attention else None
        )
        self.mid2 = ResBlock(prev, prev, time_out, config.groups, rng)

        # ---- up path ----------------------------------------------------
        self.up_res: list[ResBlock] = []
        self.upsamples: list[Upsample2x] = []
        for i in reversed(range(n_levels)):
            ch = chs[i]
            for _ in range(n_res + 1):
                self.up_res.append(
                    ResBlock(prev + skip_chs.pop(), ch, time_out, config.groups, rng)
                )
                prev = ch
            if i != 0:
                self.upsamples.append(Upsample2x())
        assert not skip_chs, "skip bookkeeping out of balance"

        # ---- head -------------------------------------------------------
        self.head_norm = GroupNorm(config.groups, prev)
        self.head_act = SiLU()
        self.head_conv = Conv2d(prev, config.in_channels, 3, rng, init_scale=0.0)

        self._tape: list[tuple] | None = None
        #: ``{thread ident: {shape key: buffer}}`` for :meth:`_concat`.
        self._concat_ws: dict[int, dict[tuple, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``x``: (N, C, H, W) in [-1, 1]-ish scale; ``t``: (N,) int steps.

        Time conditioning runs once per distinct timestep: the time MLP
        embeds the U distinct steps and each ResBlock projects those U rows
        before gathering a bias per sample.  A sample's output therefore
        depends on the other samples of its forward only through the set
        of timesteps, which a sampler step shares across every row.

        Training walks the whole batch and records the op tape; inference
        walks contiguous row shards (:func:`~repro.nn.shards.run_shards`)
        that write their rows of one output.  Both modes run the same
        graph and the same floating-point operations, so their outputs
        are bit-for-bit equal.
        """
        x = np.asarray(x, dtype=np.float32)
        steps, rows = np.unique(np.asarray(t).reshape(-1), return_inverse=True)
        t_emb = self.time_mlp(steps)
        if self.training:
            out, self._tape = self._walk(x, t_emb, rows)
            return out
        out_shape = (len(x), self.config.in_channels) + x.shape[2:]
        out = np.empty(out_shape, dtype=np.float32)

        def shard(lo: int, hi: int) -> None:
            # Copied out of the head conv's per-thread workspace, so the
            # returned prediction stays valid across subsequent forwards.
            out[lo:hi] = self._walk(x[lo:hi], t_emb, rows[lo:hi])[0]

        run_shards(shard, len(x))
        return out

    def _walk(
        self, x: np.ndarray, t_emb: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, list[tuple]]:
        """The graph, once, for both modes; returns ``(out, op tape)``.

        Training keeps the tape for :meth:`backward`.  Inference drops it,
        stores nothing on the modules (shards run concurrently) and uses
        the workspace concat and the fused head GroupNorm -> SiLU; its
        output is the head conv's per-thread workspace.
        """
        cfg = self.config
        n_levels = len(cfg.channel_mults)
        n_res = cfg.num_res_blocks
        tape: list[tuple] = []

        h = self.stem(x)
        skips: list[np.ndarray] = [h]

        down_iter = iter(self.down_res)
        down_sample_iter = iter(self.downsamples)
        for i in range(n_levels):
            for _ in range(n_res):
                block = next(down_iter)
                h = block(h, t_emb, rows)
                tape.append(("res_down", block))
                skips.append(h)
            if i != n_levels - 1:
                pool = next(down_sample_iter)
                h = pool(h)
                tape.append(("down", pool))
                skips.append(h)

        h = self.mid1(h, t_emb, rows)
        tape.append(("res_mid", self.mid1))
        if self.attn is not None:
            h = self.attn(h)
            tape.append(("attn", self.attn))
        h = self.mid2(h, t_emb, rows)
        tape.append(("res_mid", self.mid2))

        up_iter = iter(self.up_res)
        upsample_iter = iter(self.upsamples)
        for i in reversed(range(n_levels)):
            for _ in range(n_res + 1):
                block = next(up_iter)
                skip = skips.pop()
                tape.append(("res_up", block, len(skips), skip.shape[1]))
                if self.training:
                    h = np.concatenate([h, skip], axis=1)
                else:
                    h = self._concat(h, skip)
                h = block(h, t_emb, rows)
            if i != 0:
                up = next(upsample_iter)
                h = up(h)
                tape.append(("up", up))

        if self.training:
            h = self.head_act(self.head_norm(h))
        else:
            h = gn_silu(self.head_norm, h)
        return self.head_conv(h), tape

    def _concat(self, h: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """Channel concat into a reused per-thread, per-shape workspace
        (inference only).

        The buffer is consumed immediately by the following ResBlock and
        never retained, so reuse across timesteps is safe; contents are
        identical to ``np.concatenate([h, skip], axis=1)``.
        """
        n, ch, height, width = h.shape
        cs = skip.shape[1]
        key = (n, ch, cs, height, width)
        buffers = thread_slot(self._concat_ws)
        buf = buffers.get(key)
        if buf is None:
            if len(buffers) >= 8:
                buffers.pop(next(iter(buffers)))
            buf = np.empty((n, ch + cs, height, width), dtype=np.float32)
            buffers[key] = buf
        buf[:, :ch] = h
        buf[:, ch:] = skip
        return buf

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; returns gradient w.r.t. the input."""
        if self._tape is None:
            raise RuntimeError("backward called before forward")
        # One pending-gradient slot per skip the forward pushed: the stem
        # output plus every down-path block and pool output.
        skip_grads: list[np.ndarray | None] = [None] * (
            1 + sum(entry[0] in ("res_down", "down") for entry in self._tape)
        )
        dt_emb_total: np.ndarray | None = None

        dh = self.head_norm.backward(
            self.head_act.backward(self.head_conv.backward(dout))
        )

        for entry in reversed(self._tape):
            kind = entry[0]
            if kind == "res_up":
                _, block, skip_index, skip_ch = entry
                dconcat, dt = block.backward(dh)
                dh = dconcat[:, :-skip_ch]
                dskip = dconcat[:, -skip_ch:]
                existing = skip_grads[skip_index]
                skip_grads[skip_index] = (
                    dskip if existing is None else existing + dskip
                )
                dt_emb_total = dt if dt_emb_total is None else dt_emb_total + dt
            elif kind in ("res_down", "res_mid"):
                block = entry[1]
                if kind == "res_down":
                    # This block's output was also pushed as a skip; merge
                    # the gradient contribution recorded for that slot.
                    pending = skip_grads.pop()
                    if pending is not None:
                        dh = dh + pending
                dres, dt = block.backward(dh)
                dh = dres
                dt_emb_total = dt if dt_emb_total is None else dt_emb_total + dt
            elif kind == "down":
                pool = entry[1]
                pending = skip_grads.pop()
                if pending is not None:
                    dh = dh + pending
                dh = pool.backward(dh)
            elif kind == "up":
                dh = entry[1].backward(dh)
            elif kind == "attn":
                dh = entry[1].backward(dh)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown tape entry {kind}")

        # The stem output is skip slot 0.
        pending = skip_grads.pop()
        if pending is not None:
            dh = dh + pending
        dx = self.stem.backward(dh)

        if dt_emb_total is not None:
            self.time_mlp.backward(dt_emb_total)
        self._tape = None
        return dx
