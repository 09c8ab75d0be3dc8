"""CUP baseline: convolutional VAE topology generation + solver legalization.

CUP (Zhang et al., ICCAD 2020) generates squish pattern *topologies* with a
convolutional autoencoder and legalizes geometry with a nonlinear solver.
This reproduction trains a small convolutional VAE on binary layout canvases
from the commercial-tool stand-in, samples new canvases from the latent
prior, canonicalizes them into topology matrices via squish extraction, and
hands those to :class:`~repro.baselines.solver.SquishLegalizer` — the same
two-stage pipeline, at numpy scale.

Under the advanced (discrete-width) deck this pipeline collapses exactly as
Table I reports: blobby VAE topologies are rarely legalizable at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..drc.decks import RuleDeck
from ..nn.layers import AvgPool2x, Chain, Conv2d, Flatten, Linear, Reshape, SiLU, Upsample2x
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Module
from ..geometry.squish import squish
from .solver import SolverSettings, SquishLegalizer

__all__ = ["CupConfig", "CupModel", "CupGenerator"]


@dataclass(frozen=True)
class CupConfig:
    """Architecture/training knobs of the CUP VAE."""

    image_size: int = 32
    latent_dim: int = 32
    base_channels: int = 16
    kl_weight: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.image_size % 4:
            raise ValueError("image_size must be divisible by 4")


class CupModel(Module):
    """Small convolutional VAE over binary layout canvases."""

    def __init__(self, config: CupConfig = CupConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config.base_channels
        size = config.image_size
        bottom = size // 4
        self._bottom = bottom
        self._enc_out = 2 * c * bottom * bottom

        self.encoder = Chain(
            [
                Conv2d(1, c, 3, rng),
                SiLU(),
                AvgPool2x(),
                Conv2d(c, 2 * c, 3, rng),
                SiLU(),
                AvgPool2x(),
                Flatten(),
            ]
        )
        self.to_mu = Linear(self._enc_out, config.latent_dim, rng)
        self.to_logvar = Linear(self._enc_out, config.latent_dim, rng, init_scale=0.1)
        self.decoder = Chain(
            [
                Linear(config.latent_dim, self._enc_out, rng),
                Reshape((2 * c, bottom, bottom)),
                SiLU(),
                Upsample2x(),
                Conv2d(2 * c, c, 3, rng),
                SiLU(),
                Upsample2x(),
                Conv2d(c, c, 3, rng),
                SiLU(),
                Conv2d(c, 1, 3, rng),
            ]
        )
        self._cache: tuple | None = None

    # ------------------------------------------------------------------
    # VAE plumbing
    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(logits, mu, logvar)`` for input canvases in {0, 1}."""
        h = self.encoder(np.asarray(x, dtype=np.float32))
        mu = self.to_mu(h)
        logvar = np.clip(self.to_logvar(h), -8.0, 8.0)
        eps = rng.standard_normal(mu.shape).astype(np.float32)
        z = mu + np.exp(0.5 * logvar) * eps
        logits = self.decoder(z)
        self._cache = (eps, logvar)
        return logits, mu, logvar

    def backward(self, dlogits: np.ndarray, dmu: np.ndarray, dlogvar: np.ndarray) -> None:
        """Backprop given gradients on logits and the KL terms."""
        eps, logvar = self._cache
        dz = self.decoder.backward(dlogits)
        dmu_total = dz + dmu
        dlogvar_total = dz * eps * 0.5 * np.exp(0.5 * logvar) + dlogvar
        dh = self.to_mu.backward(dmu_total.astype(np.float32))
        dh += self.to_logvar.backward(dlogvar_total.astype(np.float32))
        self.encoder.backward(dh)

    def loss_and_backward(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, float, float]:
        """Bernoulli reconstruction + beta-weighted KL; returns the parts."""
        logits, mu, logvar = self.forward(x, rng)
        numel = logits.size
        # exp(-logits) overflows to inf for very negative logits; the
        # sigmoid's limit there is exactly 0, which 1 / (1 + inf) gives.
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-logits))
        # Stable BCE-with-logits.
        recon = float(
            np.mean(np.maximum(logits, 0.0) - logits * x + np.log1p(np.exp(-np.abs(logits))))
        )
        kl = float(
            -0.5 * np.mean(1.0 + logvar - mu**2 - np.exp(logvar))
        )
        beta = self.config.kl_weight
        dlogits = ((sig - x) / numel).astype(np.float32)
        dmu = (beta * mu / mu.size).astype(np.float32)
        dlogvar = (beta * (-0.5) * (1.0 - np.exp(logvar)) / logvar.size).astype(
            np.float32
        )
        self.backward(dlogits, dmu, dlogvar)
        return recon + beta * kl, recon, kl

    # ------------------------------------------------------------------
    # Training / sampling
    # ------------------------------------------------------------------
    def fit(
        self,
        canvases: np.ndarray,
        *,
        steps: int,
        batch_size: int,
        lr: float,
        rng: np.random.Generator,
        grad_clip: float = 1.0,
    ) -> list[float]:
        """Train on (N, 1, H, W) binary canvases; returns the loss trace."""
        optimizer = Adam(self.parameters(), lr=lr)
        losses: list[float] = []
        for _ in range(steps):
            idx = rng.integers(0, canvases.shape[0], size=batch_size)
            batch = canvases[idx]
            optimizer.zero_grad()
            total, _, _ = self.loss_and_backward(batch, rng)
            clip_grad_norm(self.parameters(), grad_clip)
            optimizer.step()
            losses.append(total)
        return losses

    def sample_canvases(self, n: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Decode latent-prior samples into binary canvases."""
        z = rng.standard_normal((n, self.config.latent_dim)).astype(np.float32)
        logits = self.decoder(z)
        return [(sample[0] > 0.0).astype(np.uint8) for sample in logits]


class CupGenerator:
    """End-to-end CUP pipeline: VAE canvas -> topology -> solver -> DRC."""

    def __init__(
        self,
        model: CupModel,
        deck: RuleDeck,
        settings: SolverSettings = SolverSettings(),
    ):
        self.model = model
        self.deck = deck
        self.legalizer = SquishLegalizer(deck, settings)

    def generate(
        self, n: int, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], int, float]:
        """Attempt ``n`` patterns; returns (legal clips, attempts, seconds)."""
        size = self.deck.grid.width_px
        canvases = self.model.sample_canvases(n, rng)
        legal: list[np.ndarray] = []
        start = time.time()
        for canvas in canvases:
            if not canvas.any() or canvas.all():
                continue
            topology = squish(canvas).topology
            result = self.legalizer.legalize(
                topology,
                width_px=size,
                height_px=self.deck.grid.height_px,
                rng=rng,
            )
            if result.success and result.clip is not None:
                legal.append(result.clip)
        return legal, n, time.time() - start
