"""Train-and-cache model artifacts (the reproduction's checkpoint hub).

The paper builds on pretrained Stable Diffusion 1.5 / 2.0 inpainting
checkpoints and finetunes them with DreamBooth.  This module provides the
analogous artifacts for the numpy stack:

* ``pretrained("sd1")`` / ``pretrained("sd2")`` — two independently
  pretrained diffusion models (different seeds and widths, mirroring the
  two SD variants) trained on the pretraining-node corpus;
* ``finetuned("sd1")`` / ``finetuned("sd2")`` — their DreamBooth-style
  few-shot finetunes on the 20 target-node starter patterns.

Artifacts are cached as ``.npz`` checkpoints under ``.artifacts/`` in the
repository root (override with ``REPRO_ARTIFACTS``); the first call trains
(minutes on CPU), later calls load instantly.  Training is seeded, and
deterministic for a given code revision and numpy/BLAS build.  Changes
to the training kernels change the trained bits: the wide-row conv and
fused GroupNorm→SiLU kernels did, and so did the UNet's time
conditioning once per distinct timestep.  So the committed
``perfbench/model/finetuned-sd1-32.npz`` is not the checkpoint a cold
zoo trains today: their weights differ by up to ~0.07.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from ..diffusion.ddpm import Ddpm, clips_to_model_space
from ..diffusion.finetune import FinetuneConfig, finetune
from ..diffusion.schedule import linear_schedule
from ..nn.optim import Ema
from ..nn.serialize import load_into, save_module
from ..nn.unet import TimeUnet, UNetConfig
from .corpora import pretrain_corpus, starter_patterns

__all__ = [
    "VARIANTS",
    "artifacts_dir",
    "model_config",
    "pretrained",
    "finetuned",
    "cup_model",
    "diffpattern_model",
    "build_all",
]

#: The two model variants, mirroring the paper's SD1.5 / SD2 inpainting
#: checkpoints: independently seeded, slightly different capacity.
VARIANTS: dict[str, dict] = {
    "sd1": {"base_channels": 16, "seed": 11, "train_steps": 1600},
    "sd2": {"base_channels": 24, "seed": 22, "train_steps": 1600},
}

_SCHEDULE_STEPS = 250


def artifacts_dir() -> Path:
    """Checkpoint directory (``$REPRO_ARTIFACTS`` or ``<repo>/.artifacts``)."""
    env = os.environ.get("REPRO_ARTIFACTS")
    if env:
        path = Path(env)
    else:
        path = Path(__file__).resolve().parents[3] / ".artifacts"
    path.mkdir(parents=True, exist_ok=True)
    return path


def model_config(variant: str, image_size: int = 32) -> UNetConfig:
    """The UNet architecture for a named variant."""
    spec = _variant_spec(variant)
    return UNetConfig(
        image_size=image_size,
        base_channels=spec["base_channels"],
        channel_mults=(1, 2),
        num_res_blocks=1,
        groups=8,
        time_dim=32,
        attention=True,
        seed=spec["seed"],
    )


def _variant_spec(variant: str) -> dict:
    try:
        return VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown model variant {variant!r}; available: {sorted(VARIANTS)}"
        ) from None


def _fresh_ddpm(variant: str, image_size: int) -> Ddpm:
    model = TimeUnet(model_config(variant, image_size))
    return Ddpm(model, linear_schedule(_SCHEDULE_STEPS))


def pretrained(
    variant: str = "sd1",
    *,
    image_size: int = 32,
    verbose: bool = False,
) -> Ddpm:
    """The pretrained foundation model for a variant (cached)."""
    spec = _variant_spec(variant)
    path = artifacts_dir() / f"pretrained-{variant}-{image_size}.npz"
    ddpm = _fresh_ddpm(variant, image_size)
    if path.exists():
        load_into(ddpm.model, path)
        return ddpm

    start = time.time()
    corpus = pretrain_corpus(400, seed=7)
    data = clips_to_model_space(corpus)
    rng = np.random.default_rng(1000 + spec["seed"])
    ema = Ema(ddpm.model, decay=0.995)
    result = ddpm.fit(
        data,
        steps=spec["train_steps"],
        batch_size=8,
        lr=2e-3,
        rng=rng,
        ema=ema,
        log_every=200 if verbose else 0,
    )
    ema.copy_to(ddpm.model)
    save_module(
        ddpm.model,
        path,
        meta={
            "variant": variant,
            "role": "pretrained",
            "train_steps": result.steps,
            "final_loss": result.final_loss,
            "wall_seconds": time.time() - start,
        },
    )
    return ddpm


def finetuned(
    variant: str = "sd1",
    *,
    image_size: int = 32,
    config: FinetuneConfig | None = None,
    verbose: bool = False,
) -> Ddpm:
    """The few-shot finetuned model for a variant (cached).

    Finetunes :func:`pretrained` on the 20 starter patterns with prior
    preservation (Eq. 7).
    """
    spec = _variant_spec(variant)
    path = artifacts_dir() / f"finetuned-{variant}-{image_size}.npz"
    ddpm = _fresh_ddpm(variant, image_size)
    if path.exists():
        load_into(ddpm.model, path)
        return ddpm

    start = time.time()
    base = pretrained(variant, image_size=image_size, verbose=verbose)
    starters = starter_patterns(20)
    rng = np.random.default_rng(2000 + spec["seed"])
    cfg = config or FinetuneConfig()
    tuned, result = finetune(base, starters, rng, cfg)
    save_module(
        tuned.model,
        path,
        meta={
            "variant": variant,
            "role": "finetuned",
            "train_steps": result.steps,
            "final_loss": result.final_loss,
            "wall_seconds": time.time() - start,
        },
    )
    return tuned


def cup_model(*, image_size: int = 32, verbose: bool = False):
    """The trained CUP VAE baseline (cached).

    Trained on the 1000-clip commercial-tool library, mirroring the paper's
    baseline setup (20 starter samples cannot train a VAE).
    """
    from ..baselines.cup import CupConfig, CupModel
    from .corpora import baseline_training_set

    path = artifacts_dir() / f"cup-{image_size}.npz"
    model = CupModel(CupConfig(image_size=image_size, seed=44))
    if path.exists():
        load_into(model, path)
        return model
    start = time.time()
    clips = baseline_training_set(1000)
    canvases = np.stack(clips).astype(np.float32)[:, None]
    rng = np.random.default_rng(321)
    losses = model.fit(canvases, steps=1500, batch_size=16, lr=1e-3, rng=rng)
    save_module(
        model,
        path,
        meta={
            "role": "cup",
            "train_steps": len(losses),
            "final_loss": float(np.mean(losses[-10:])),
            "wall_seconds": time.time() - start,
        },
    )
    if verbose:  # pragma: no cover
        print(f"[zoo] cup trained in {time.time() - start:.0f}s")
    return model


def diffpattern_model(*, image_size: int = 32, verbose: bool = False):
    """The trained DiffPattern discrete-diffusion baseline (cached)."""
    from ..baselines.diffpattern import (
        DiscreteDiffusion,
        default_diffpattern_unet,
    )
    from .corpora import baseline_training_set

    path = artifacts_dir() / f"diffpattern-{image_size}.npz"
    unet = default_diffpattern_unet(image_size=image_size)
    diffusion = DiscreteDiffusion(unet)
    if path.exists():
        load_into(unet, path)
        return diffusion
    start = time.time()
    clips = baseline_training_set(1000)
    canvases = np.stack(clips).astype(np.uint8)[:, None]
    rng = np.random.default_rng(654)
    losses = diffusion.fit(canvases, steps=1000, batch_size=8, lr=1e-3, rng=rng)
    save_module(
        unet,
        path,
        meta={
            "role": "diffpattern",
            "train_steps": len(losses),
            "final_loss": float(np.mean(losses[-10:])),
            "wall_seconds": time.time() - start,
        },
    )
    if verbose:  # pragma: no cover
        print(f"[zoo] diffpattern trained in {time.time() - start:.0f}s")
    return diffusion


def build_all(*, image_size: int = 32, verbose: bool = True) -> dict[str, Ddpm]:
    """Materialize every artifact (idempotent); returns the loaded models."""
    out: dict[str, Ddpm] = {}
    for variant in VARIANTS:
        if verbose:  # pragma: no cover - progress chatter
            print(f"[zoo] pretraining {variant} ...", flush=True)
        out[f"{variant}-base"] = pretrained(variant, image_size=image_size, verbose=verbose)
        if verbose:  # pragma: no cover
            print(f"[zoo] finetuning {variant} ...", flush=True)
        out[f"{variant}-ft"] = finetuned(variant, image_size=image_size, verbose=verbose)
    if verbose:  # pragma: no cover
        print("[zoo] training baselines (cup, diffpattern) ...", flush=True)
    cup_model(image_size=image_size, verbose=verbose)
    diffpattern_model(image_size=image_size, verbose=verbose)
    return out
