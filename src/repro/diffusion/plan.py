"""Precomputed sampler coefficient tables (:class:`SamplerPlan`).

The DDIM and inpainting loops used to re-derive every per-step scalar —
``alpha_bar`` gathers, sigma/direction coefficients, RePaint re-noise
ratios — inside the step loop, once per batch.  All of those are pure
functions of ``(schedule, num_steps, eta)``, so :func:`sampler_plan`
computes them once as vectorised float64 tables and memoises the result
process-wide.  Every entry is computed with exactly the arithmetic the
scalar loop used (elementwise IEEE ops on the same float64 inputs), so a
plan-driven sampler is bit-identical to the seed per-step derivation.

Plans are keyed by the schedule's content fingerprint, which makes them
shared across :class:`~repro.diffusion.schedule.NoiseSchedule` instances
built from the same betas.

An optional second, on-disk layer (:func:`configure_plan_cache`) warm
starts fresh processes: plans are persisted as ``plan-<digest>.npz``
files keyed by the same content key, so a restarted service or CLI run
loads its coefficient tables instead of rebuilding them.  Loads are
guarded against stale or foreign files — the stored key must both match
the requested key and hash to the file's own name — and loaded arrays
carry the same bits the builder would produce (they were written from
exactly those arrays), so the disk layer cannot change outputs.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .sampler import strided_timesteps
from .schedule import NoiseSchedule

__all__ = [
    "SamplerPlan",
    "sampler_plan",
    "configure_plan_cache",
    "plan_cache_stats",
    "clear_plan_memory",
]


@dataclass(frozen=True)
class SamplerPlan:
    """Per-step coefficient tables for a strided DDIM/inpaint trajectory.

    All arrays are indexed by step position ``i`` (0 = most-noised step)
    and are read-only.  ``t_prev[i]`` is ``-1`` on the final step, where
    ``alpha_bar_prev`` is defined as 1.0 (the fully denoised endpoint).
    """

    num_train_steps: int
    num_steps: int
    eta: float
    timesteps: np.ndarray  # (S,) int64, descending
    t_prev: np.ndarray  # (S,) int64, -1 on the last step
    alpha_bar: np.ndarray  # (S,) float64: alpha_bars[t]
    alpha_bar_prev: np.ndarray  # (S,) float64: alpha_bars[t_prev] or 1.0
    sqrt_ab: np.ndarray  # sqrt(alpha_bar)
    sqrt_one_minus_ab: np.ndarray  # sqrt(1 - alpha_bar)
    sqrt_ab_prev: np.ndarray  # sqrt(alpha_bar_prev)
    sqrt_one_minus_ab_prev: np.ndarray  # sqrt(1 - alpha_bar_prev)
    sigma: np.ndarray  # DDIM stochasticity per step (scaled by eta)
    dir_coeff: np.ndarray  # sqrt(max(1 - ab_prev - sigma^2, 0))
    sqrt_renoise: np.ndarray  # sqrt(ab / ab_prev)  (RePaint jump-back)
    sqrt_one_minus_renoise: np.ndarray  # sqrt(1 - ab / ab_prev)

    def __len__(self) -> int:  # number of reverse steps actually taken
        return int(self.timesteps.size)


def _build_plan(
    schedule: NoiseSchedule, num_steps: int, eta: float
) -> SamplerPlan:
    timesteps = strided_timesteps(schedule.num_steps, num_steps)
    ab = schedule.alpha_bars[timesteps]
    # alpha_bar at the *next* (less noisy) visited timestep; 1.0 at the end.
    ab_prev = np.empty_like(ab)
    ab_prev[:-1] = ab[1:]
    ab_prev[-1] = 1.0
    t_prev = np.empty(timesteps.size, dtype=np.int64)
    t_prev[:-1] = timesteps[1:]
    t_prev[-1] = -1

    # Exactly the scalar loop's expressions, vectorised (elementwise IEEE
    # ops on the same float64 values => identical bits per step).
    sigma_term = np.maximum(
        (1.0 - ab_prev) / (1.0 - ab) * (1.0 - ab / ab_prev), 0.0
    )
    sigma = eta * np.sqrt(sigma_term)
    dir_coeff = np.sqrt(np.maximum(1.0 - ab_prev - sigma**2, 0.0))
    ratio = ab / ab_prev

    arrays = dict(
        timesteps=np.ascontiguousarray(timesteps, dtype=np.int64),
        t_prev=t_prev,
        alpha_bar=ab,
        alpha_bar_prev=ab_prev,
        sqrt_ab=np.sqrt(ab),
        sqrt_one_minus_ab=np.sqrt(1.0 - ab),
        sqrt_ab_prev=np.sqrt(ab_prev),
        sqrt_one_minus_ab_prev=np.sqrt(1.0 - ab_prev),
        sigma=sigma,
        dir_coeff=dir_coeff,
        sqrt_renoise=np.sqrt(ratio),
        sqrt_one_minus_renoise=np.sqrt(1.0 - ratio),
    )
    for value in arrays.values():
        value.setflags(write=False)
    return SamplerPlan(
        num_train_steps=schedule.num_steps,
        num_steps=int(num_steps),
        eta=float(eta),
        **arrays,
    )


_PLAN_CACHE: dict[tuple[str, int, float], SamplerPlan] = {}

#: Names of the 12 per-step array tables on :class:`SamplerPlan` (the
#: non-scalar fields), in declaration order — the npz payload schema.
_ARRAY_FIELDS = tuple(
    f.name
    for f in fields(SamplerPlan)
    if f.name not in ("num_train_steps", "num_steps", "eta")
)

_PLAN_FORMAT = 1
_PLAN_DIR: Path | None = None
_DISK_LOCK = threading.Lock()
_DISK_STATS = {"hits": 0, "misses": 0, "writes": 0}


def _plan_digest(key: tuple[str, int, float]) -> str:
    return hashlib.sha1(repr(tuple(key)).encode()).hexdigest()[:16]


def _plan_path(directory: Path, key: tuple[str, int, float]) -> Path:
    return directory / f"plan-{_plan_digest(key)}.npz"


def configure_plan_cache(directory: str | os.PathLike | None) -> Path | None:
    """Enable (or disable, with ``None``) the on-disk plan cache.

    Points the module-wide disk layer at ``directory`` (created if
    missing) and resets the hit/miss/write counters, so
    :func:`plan_cache_stats` reports activity since the latest
    configuration.  The in-memory memo is left alone — already-built
    plans stay valid regardless of where (or whether) they persist.
    """
    global _PLAN_DIR
    with _DISK_LOCK:
        if directory is None:
            _PLAN_DIR = None
        else:
            _PLAN_DIR = Path(directory)
            _PLAN_DIR.mkdir(parents=True, exist_ok=True)
        _DISK_STATS.update(hits=0, misses=0, writes=0)
        return _PLAN_DIR


def plan_cache_stats() -> dict:
    """Disk-layer counters: hits/misses/writes since configuration.

    A *hit* is a plan loaded from disk instead of rebuilt; a *miss* is a
    build that happened with the disk layer enabled (no usable file); a
    *write* is a plan persisted.  ``memory_entries`` counts the process
    memo; ``dir`` is the active cache directory (``None`` = disabled).
    """
    with _DISK_LOCK:
        return {
            "dir": str(_PLAN_DIR) if _PLAN_DIR is not None else None,
            "hits": _DISK_STATS["hits"],
            "misses": _DISK_STATS["misses"],
            "writes": _DISK_STATS["writes"],
            "memory_entries": len(_PLAN_CACHE),
        }


def clear_plan_memory() -> None:
    """Drop the in-process memo (benches/tests: force disk or rebuild).

    Plans are pure functions of their key, so clearing only costs the
    next call a disk load (or rebuild) — outputs are unaffected.
    """
    _PLAN_CACHE.clear()


def _load_plan(
    schedule: NoiseSchedule, key: tuple[str, int, float], path: Path
) -> SamplerPlan | None:
    """Load ``key``'s plan from ``path``, or ``None`` if absent/stale.

    Guards: the npz must carry the expected format and the *stored* key
    (fingerprint, steps, eta) must equal the requested one — a file left
    behind by an older layout, a different schedule, or a digest
    collision is skipped and rebuilt rather than trusted.
    """
    try:
        with np.load(path) as data:
            if int(data["__format__"]) != _PLAN_FORMAT:
                return None
            stored_key = (
                str(data["__fingerprint__"][()]),
                int(data["__num_steps__"]),
                float(data["__eta__"]),
            )
            if stored_key != tuple(key):
                return None
            num_train_steps = int(data["__num_train_steps__"])
            if num_train_steps != schedule.num_steps:
                return None
            arrays = {name: np.array(data[name]) for name in _ARRAY_FIELDS}
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    for value in arrays.values():
        value.setflags(write=False)
    return SamplerPlan(
        num_train_steps=num_train_steps,
        num_steps=int(key[1]),
        eta=float(key[2]),
        **arrays,
    )


def _store_plan(
    key: tuple[str, int, float], plan: SamplerPlan, path: Path
) -> bool:
    """Persist ``plan`` at ``path`` atomically (tmp + replace)."""
    payload = {name: getattr(plan, name) for name in _ARRAY_FIELDS}
    payload["__format__"] = np.int64(_PLAN_FORMAT)
    payload["__fingerprint__"] = np.asarray(key[0])
    payload["__num_steps__"] = np.int64(key[1])
    payload["__eta__"] = np.float64(key[2])
    payload["__num_train_steps__"] = np.int64(plan.num_train_steps)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False  # cache writes are best-effort
    return True


def sampler_plan(
    schedule: NoiseSchedule, num_steps: int, eta: float = 0.0
) -> SamplerPlan:
    """The memoised coefficient tables for ``(schedule, num_steps, eta)``.

    Repeated calls with an equivalent schedule (same betas, any instance)
    return the same plan object; the cache is unbounded but each entry is
    a handful of ``num_steps``-long float64 arrays.  With
    :func:`configure_plan_cache` enabled, lookup goes memory -> disk ->
    build (persisting fresh builds), which warm-starts new processes.
    """
    key = (schedule.fingerprint, int(num_steps), float(eta))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        with _DISK_LOCK:
            directory = _PLAN_DIR
        if directory is not None:
            path = _plan_path(directory, key)
            plan = _load_plan(schedule, key, path)
            if plan is not None:
                with _DISK_LOCK:
                    _DISK_STATS["hits"] += 1
            else:
                plan = _build_plan(schedule, num_steps, eta)
                wrote = _store_plan(key, plan, path)
                with _DISK_LOCK:
                    _DISK_STATS["misses"] += 1
                    if wrote:
                        _DISK_STATS["writes"] += 1
        else:
            plan = _build_plan(schedule, num_steps, eta)
        _PLAN_CACHE[key] = plan
    return plan
