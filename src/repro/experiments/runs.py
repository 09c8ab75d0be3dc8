"""Cached end-to-end runs of PatternPaint variants and baselines.

These functions produce the *data* behind Tables I-III and Figure 7; the
table modules only aggregate and format.  Each run is deterministic given
its parameters and cached under ``.artifacts/results``.

All generation routes through :mod:`repro.engine`: the PatternPaint runs
via the pipeline's built-in :class:`~repro.engine.executor.BatchExecutor`,
the baseline campaigns via the backend registry — there is no per-
experiment generate -> check loop here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.solver import SolverSettings
from ..core.pipeline import PatternPaint, PatternPaintConfig
from ..engine import GenerationRequest, get_backend, run_generation
from ..zoo.artifacts import finetuned, pretrained
from ..zoo.corpora import experiment_deck, starter_patterns
from .common import ModelRun, load_model_run, results_dir, save_model_run, scaled

__all__ = [
    "PATTERNPAINT_MODELS",
    "patternpaint_run",
    "all_patternpaint_runs",
    "BaselineRun",
    "baseline_run",
]

#: The four model rows of Table I, in paper order.
PATTERNPAINT_MODELS = ("sd1-base", "sd2-base", "sd1-ft", "sd2-ft")

#: Result-cache revision.  Bump whenever the generation stream changes for
#: the same parameters (e.g. "eng1": the engine refactor's per-job
#: ``rng.spawn`` denoise streams; "steps10": runs sample at
#: ``SAMPLE_STEPS`` = 10 DDIM steps instead of 20), so stale campaign
#: caches from earlier revisions are never replayed as current results.
_CACHE_REV = "steps10"


def _load_model(name: str):
    variant, role = name.rsplit("-", 1)
    if role == "base":
        return pretrained(variant)
    if role == "ft":
        return finetuned(variant)
    raise ValueError(f"unknown model name {name!r}")


def patternpaint_run(
    name: str,
    *,
    init_budget: int | None = None,
    iterations: int = 6,
    iter_budget: int | None = None,
    seed: int = 0,
    use_cache: bool = True,
) -> ModelRun:
    """Full PatternPaint run (init + iterations) for one model variant.

    ``init_budget`` is the initial-generation sample count (split over
    20 starters x 10 masks); ``iter_budget`` the *total* iterative count
    (split over ``iterations`` rounds).  Defaults follow the paper's
    20k/50k ratio at ``REPRO_SCALE`` size.
    """
    init_budget = init_budget if init_budget is not None else scaled(200)
    iter_budget = iter_budget if iter_budget is not None else scaled(500)
    cache_path = results_dir() / (
        f"run-{_CACHE_REV}-{name}-i{init_budget}-r{iterations}-t{iter_budget}"
        f"-s{seed}.npz"
    )
    if use_cache and cache_path.exists():
        return load_model_run(cache_path)

    deck = experiment_deck()
    starters = starter_patterns(20)
    variations = max(1, round(init_budget / (len(starters) * 10)))
    per_iteration = max(1, iter_budget // max(iterations, 1))

    pipeline = PatternPaint(
        _load_model(name),
        deck,
        PatternPaintConfig(
            variations_per_mask=variations,
            model_batch=64,
            select_k=20,
            samples_per_iteration=per_iteration,
            keep_raw=True,
        ),
    )
    rng = np.random.default_rng(10_000 + seed)
    result = pipeline.run(
        starters,
        rng,
        iterations=iterations,
        samples_per_iteration=per_iteration,
    )
    run = ModelRun(
        name=name,
        stats=result.stats,
        library=list(result.library.clips),
        raw=result.raw_samples,
    )
    save_model_run(run, cache_path)
    return run


def all_patternpaint_runs(
    *,
    iterations: int = 6,
    seed: int = 0,
    use_cache: bool = True,
    verbose: bool = False,
) -> dict[str, ModelRun]:
    """The four Table I model runs, in paper order."""
    runs: dict[str, ModelRun] = {}
    for name in PATTERNPAINT_MODELS:
        if verbose:  # pragma: no cover - progress chatter
            print(f"[experiments] running {name} ...", flush=True)
        runs[name] = patternpaint_run(
            name,
            iterations=iterations,
            seed=seed,
            use_cache=use_cache,
        )
    return runs


@dataclass
class BaselineRun:
    """Outcome of a CUP / DiffPattern generation campaign."""

    name: str
    attempts: int
    legal: list[np.ndarray]
    seconds: float

    @property
    def seconds_per_sample(self) -> float:
        return self.seconds / max(self.attempts, 1)


def baseline_run(
    kind: str,
    *,
    attempts: int | None = None,
    seed: int = 0,
    use_cache: bool = True,
) -> BaselineRun:
    """Run (or load) a CUP / DiffPattern campaign on the advanced deck."""
    attempts = attempts if attempts is not None else scaled(200)
    cache_path = results_dir() / (
        f"baseline-{_CACHE_REV}-{kind}-n{attempts}-s{seed}.npz"
    )
    if use_cache and cache_path.exists():
        with np.load(cache_path) as archive:
            legal = [clip for clip in archive["legal"]] if "legal" in archive else []
            return BaselineRun(
                name=kind,
                attempts=int(archive["attempts"]),
                legal=legal,
                seconds=float(archive["seconds"]),
            )

    if kind not in ("cup", "diffpattern"):
        raise ValueError(f"unknown baseline {kind!r}")
    deck = experiment_deck()
    settings = SolverSettings(max_iter=120, discrete_restarts=3)
    backend = get_backend(kind, deck=deck, settings=settings)
    rng = np.random.default_rng(20_000 + seed)
    batch = run_generation(
        GenerationRequest(backend=kind, count=attempts, seed=seed, deck=deck),
        backend=backend,
        rng=rng,
    )
    legal = batch.legal_clips
    seconds = batch.timings.total_seconds

    payload: dict[str, np.ndarray] = {
        "attempts": np.asarray(batch.attempts),
        "seconds": np.asarray(seconds),
    }
    if legal:
        payload["legal"] = np.stack(legal).astype(np.uint8)
    np.savez_compressed(cache_path, **payload)
    return BaselineRun(
        name=kind, attempts=batch.attempts, legal=legal, seconds=seconds
    )
