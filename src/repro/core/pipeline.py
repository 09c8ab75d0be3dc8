"""The PatternPaint framework (Figure 4): finetune -> inpaint -> denoise ->
DRC -> PCA-select -> iterate.

:class:`PatternPaint` wires the four components of the paper around a
diffusion model and a rule deck:

1. *few-shot finetuning* is performed up front via
   :func:`repro.diffusion.finetune.finetune` (or loaded from
   :mod:`repro.zoo`);
2. *initial generation* inpaints every starter x mask x variation
   combination;
3. every generated clip is *template-denoised* against its starter and
   checked by the DRC engine; clean, never-seen-before patterns enter the
   library;
4. *iterative generation* re-seeds from the library via PCA-based
   representative selection under a density constraint, with masks advancing
   sequentially per pattern.

The denoise -> DRC -> dedup stage and the model-batch chunking are not
implemented here: they route through the shared
:class:`~repro.engine.executor.BatchExecutor`, which adds hash-keyed DRC
caching, deterministic per-job rng splitting and optional worker pools
(``PatternPaintConfig.jobs``).  All stages are timed per sample, which is
what Table II reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..diffusion.ddpm import Ddpm
from ..diffusion.inpaint import InpaintConfig
from ..drc.decks import RuleDeck
from ..engine.executor import BatchExecutor, ExecutorConfig
from ..engine.modelpool import InpaintModelSpec, inpaint_jobs, publish_model
from ..library import LibraryStore, ShardedStore
from .library import PatternLibrary
from .masks import MaskScheduler, all_masks
from .selection import density_constraint, select_representative
from .template_denoise import TemplateDenoiseConfig

__all__ = ["PatternPaintConfig", "GenerationStats", "PatternPaintResult", "PatternPaint"]


@dataclass(frozen=True)
class PatternPaintConfig:
    """Generation-loop knobs (defaults follow Section V-A, scaled down).

    ``variations_per_mask`` is the paper's ``v`` (they use 100 on a GPU
    farm; CPU-scale experiments use single digits and more seeds).
    ``keep_raw`` retains pre-denoise model outputs with their templates so
    the Table III harness can re-score them under different denoisers.
    ``jobs``/``pool`` configure the executor's denoise/DRC worker pool
    (1 = serial; results are identical either way).  ``model_jobs`` fans
    the inpainting model stage itself out over process workers (chunks of
    ``model_batch`` jobs, worker-local rehydrated models; bit-identical
    to serial for a fixed seed).  ``library_shards`` selects the library
    store the run admits into (1 = the classic single-population store;
    >1 = a hash-prefix :class:`~repro.library.ShardedStore`); contents
    and order are identical for any shard count.
    """

    inpaint: InpaintConfig = field(default_factory=InpaintConfig)
    denoise: TemplateDenoiseConfig = field(default_factory=TemplateDenoiseConfig)
    variations_per_mask: int = 1
    model_batch: int = 32
    select_k: int = 20
    samples_per_iteration: int = 200
    max_density: float = 0.4
    explained_variance: float = 0.9
    use_horizontal_masks: bool = True
    keep_raw: bool = False
    jobs: int = 1
    pool: str = "thread"
    model_jobs: int = 1
    library_shards: int = 1


@dataclass
class GenerationStats:
    """Outcome of one generation stage (initial round or one iteration)."""

    label: str
    generated: int = 0
    legal: int = 0
    admitted: int = 0  # clean AND new (entered the library)
    library_size: int = 0
    h1: float = 0.0
    h2: float = 0.0
    inpaint_seconds: float = 0.0
    denoise_seconds: float = 0.0
    drc_seconds: float = 0.0

    @property
    def legality_rate(self) -> float:
        return self.legal / self.generated if self.generated else 0.0

    @property
    def inpaint_seconds_per_sample(self) -> float:
        return self.inpaint_seconds / self.generated if self.generated else 0.0

    @property
    def denoise_seconds_per_sample(self) -> float:
        return self.denoise_seconds / self.generated if self.generated else 0.0


@dataclass
class PatternPaintResult:
    """Library plus per-stage statistics from a full run."""

    library: LibraryStore
    stats: list[GenerationStats]
    raw_samples: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def total_generated(self) -> int:
        return sum(s.generated for s in self.stats)

    @property
    def total_legal(self) -> int:
        return sum(s.legal for s in self.stats)


class PatternPaint:
    """Pattern generation around one diffusion model and one rule deck."""

    def __init__(
        self,
        ddpm: Ddpm,
        deck: RuleDeck,
        config: PatternPaintConfig | None = None,
        *,
        executor: BatchExecutor | None = None,
    ):
        self.ddpm = ddpm
        self.deck = deck
        self.config = config or PatternPaintConfig()
        if executor is not None:
            # Shared executor (e.g. the generation service's): its worker
            # pools and DRC cache stay warm across many pipelines and
            # requests, and its owner — not this pipeline — closes it.
            # model_batch and the denoise config change seeded outputs
            # (chunk-level rng spawning / denoise behaviour), so a shared
            # executor must agree with this pipeline's config on both —
            # refuse a silent mismatch.
            if executor.config.model_batch != self.config.model_batch:
                raise ValueError(
                    f"shared executor model_batch="
                    f"{executor.config.model_batch} differs from "
                    f"PatternPaintConfig.model_batch="
                    f"{self.config.model_batch}; seeded outputs would "
                    "change"
                )
            if executor.config.denoise != self.config.denoise:
                raise ValueError(
                    "shared executor's denoise config differs from "
                    "PatternPaintConfig.denoise; seeded outputs would "
                    "change"
                )
            self.engine = executor.engine
            self.executor = executor
            self._owns_executor = False
        else:
            self.engine = deck.engine()
            self.executor = BatchExecutor(
                self.engine,
                ExecutorConfig(
                    model_batch=self.config.model_batch,
                    jobs=self.config.jobs,
                    pool=self.config.pool,
                    model_jobs=self.config.model_jobs,
                    denoise=self.config.denoise,
                ),
            )
            self._owns_executor = True
        size = ddpm.model.config.image_size
        self._shape = (size, size)

    @property
    def clip_shape(self) -> tuple[int, int]:
        """(H, W) of the clips this pipeline generates."""
        return self._shape

    def close(self) -> None:
        """Shut down the worker pools of any executor this pipeline owns.

        Idempotent; a shared executor passed in at construction is left
        open for its owner to close.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "PatternPaint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def new_library(self) -> LibraryStore:
        """A fresh store per ``config.library_shards`` (facade when 1)."""
        if self.config.library_shards > 1:
            return ShardedStore(
                num_shards=self.config.library_shards, name="patternpaint"
            )
        return PatternLibrary(name="patternpaint")

    # ------------------------------------------------------------------
    # Low-level stages
    # ------------------------------------------------------------------
    @staticmethod
    def build_jobs(
        templates: list[np.ndarray],
        masks: list[np.ndarray],
        variations: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Enumerate template x mask x variation inpainting jobs, in the
        paper's initial-generation order."""
        jobs_t: list[np.ndarray] = []
        jobs_m: list[np.ndarray] = []
        for template in templates:
            for mask in masks:
                for _ in range(variations):
                    jobs_t.append(np.asarray(template))
                    jobs_m.append(np.asarray(mask, dtype=bool))
        return jobs_t, jobs_m

    def inpaint_batch(
        self,
        templates: list[np.ndarray],
        masks: list[np.ndarray],
        rng: np.random.Generator,
    ) -> tuple[list[np.ndarray], float]:
        """Run inpainting for parallel (template, mask) jobs.

        Returns float model outputs (N entries, each (H, W) in [-1, 1]) and
        the wall-clock seconds spent in the sampler.  Chunking, per-chunk
        rng spawning and (with ``config.model_jobs > 1``) process-pool
        fan-out are the executor's job; sampling always runs through the
        model's inference fast path, which is bit-identical to the
        training-mode forward.
        """

        def model_fn(
            chunk_t: list[np.ndarray],
            chunk_m: list[np.ndarray],
            chunk_rng: np.random.Generator,
        ) -> list[np.ndarray]:
            return inpaint_jobs(
                self.ddpm.model,
                self.ddpm.schedule,
                chunk_t,
                chunk_m,
                chunk_rng,
                self.config.inpaint,
            )

        return self.executor.run_model_batched(
            model_fn, templates, masks, rng, spec=self._spec(len(templates))
        )

    def model_spec(self) -> "InpaintModelSpec":
        """The picklable model spec for process-pool sampling dispatch.

        Publishing is content-addressed, so an unchanged model maps to
        the same checkpoint file (written once, rehydrated once per
        worker) while mutated weights automatically get a fresh one —
        re-hashing the parameters each round (sub-MB at repro scale, a
        few ms against seconds of sampling) buys that robustness without
        a weight-version protocol.
        """
        return InpaintModelSpec(
            checkpoint=publish_model(self.ddpm.model),
            betas=np.ascontiguousarray(self.ddpm.schedule.betas).tobytes(),
            config=self.config.inpaint,
        )

    def _spec(self, num_jobs: int) -> "InpaintModelSpec | None":
        """:meth:`model_spec`, gated to when pooled fan-out can engage.

        Only built when the executor will actually fan the model stage
        out — ``model_jobs > 1`` *and* the batch spans more than one
        model chunk.
        """
        if self.config.model_jobs <= 1:
            return None
        chunks = -(-num_jobs // self.config.model_batch)
        if chunks <= 1:
            return None
        return self.model_spec()

    def denoise_and_check(
        self,
        raw_outputs: list[np.ndarray],
        templates: list[np.ndarray],
        rng: np.random.Generator,
        stats: GenerationStats,
        library: LibraryStore,
    ) -> None:
        """Template-denoise, DRC-check and admit clean+new clips.

        Routed through the shared executor: per-job spawned rng streams,
        cached DRC, optional worker pool.
        """
        outcome = self.executor.postprocess(
            raw_outputs, list(templates), rng, library=library
        )
        stats.generated += len(outcome.clips)
        stats.legal += int(outcome.legal.sum())
        stats.admitted += outcome.admitted
        stats.denoise_seconds += outcome.timings.denoise_seconds
        stats.drc_seconds += outcome.timings.drc_seconds

    # ------------------------------------------------------------------
    # Stage 2: initial generation
    # ------------------------------------------------------------------
    def initial_generation(
        self,
        starters: list[np.ndarray],
        rng: np.random.Generator,
        *,
        variations_per_mask: int | None = None,
        library: LibraryStore | None = None,
    ) -> tuple[LibraryStore, GenerationStats, list[tuple[np.ndarray, np.ndarray]]]:
        """Inpaint every starter x mask x variation combination.

        Returns ``(library, stats, raw_pairs)`` where ``raw_pairs`` is
        non-empty only when ``config.keep_raw`` is set.  Pass ``library``
        (e.g. a store loaded from a snapshot) to dedup against and extend
        previous runs; by default a fresh store is created per
        ``config.library_shards``.
        """
        v = variations_per_mask or self.config.variations_per_mask
        masks = [named.mask for named in all_masks(self._shape)]
        jobs_t, jobs_m = self.build_jobs(starters, masks, v)

        stats = GenerationStats(label="init")
        library = library if library is not None else self.new_library()
        raw_outputs, stats.inpaint_seconds = self.inpaint_batch(jobs_t, jobs_m, rng)
        self.denoise_and_check(raw_outputs, jobs_t, rng, stats, library)

        self._finish_stats(stats, library)
        raw_pairs = (
            list(zip(raw_outputs, jobs_t)) if self.config.keep_raw else []
        )
        return library, stats, raw_pairs

    @staticmethod
    def _finish_stats(stats: GenerationStats, library: LibraryStore) -> None:
        """Record library size and diversity from the store's cached summary."""
        stats.library_size = len(library)
        summary = library.summary()
        stats.h1 = summary.h1
        stats.h2 = summary.h2

    # ------------------------------------------------------------------
    # Stage 4: iterative generation
    # ------------------------------------------------------------------
    def iterate(
        self,
        library: LibraryStore,
        rng: np.random.Generator,
        *,
        iterations: int,
        samples_per_iteration: int | None = None,
        scheduler: MaskScheduler | None = None,
        fallback_seeds: list[np.ndarray] | None = None,
    ) -> list[GenerationStats]:
        """Run PCA-seeded iterative generation rounds on ``library``.

        ``fallback_seeds`` (typically the starter patterns) are used when
        the library has no eligible seeds yet — e.g. when the initial
        round admitted nothing under a strict deck.
        """
        cfg = self.config
        per_iter = samples_per_iteration or cfg.samples_per_iteration
        scheduler = scheduler or MaskScheduler(
            self._shape, use_horizontal=cfg.use_horizontal_masks
        )
        constraint = density_constraint(cfg.max_density)
        out: list[GenerationStats] = []

        for round_idx in range(iterations):
            stats = GenerationStats(label=f"iter-{round_idx + 1}")
            seeds = self._select_seeds(library, rng, constraint)
            if not seeds:
                # Library too small/dense to seed: fall back to everything,
                # then to the caller-provided seeds.
                seeds = list(library.clips) or list(fallback_seeds or [])
            if not seeds:
                stats.library_size = len(library)
                out.append(stats)
                continue
            per_seed = max(1, -(-per_iter // len(seeds)))

            jobs_t: list[np.ndarray] = []
            jobs_m: list[np.ndarray] = []
            for seed_clip in seeds:
                named = scheduler.next_mask(seed_clip.tobytes())
                for _ in range(per_seed):
                    if len(jobs_t) >= per_iter:
                        break
                    jobs_t.append(seed_clip)
                    jobs_m.append(named.mask)

            raw_outputs, stats.inpaint_seconds = self.inpaint_batch(
                jobs_t, jobs_m, rng
            )
            self.denoise_and_check(raw_outputs, jobs_t, rng, stats, library)
            self._finish_stats(stats, library)
            out.append(stats)
        return out

    def _select_seeds(
        self,
        library: LibraryStore,
        rng: np.random.Generator,
        constraint,
    ) -> list[np.ndarray]:
        clips = list(library.clips)
        if not clips:
            return []
        indices = select_representative(
            clips,
            self.config.select_k,
            rng,
            constraint=constraint,
            explained_variance=self.config.explained_variance,
        )
        return [clips[i] for i in indices]

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------
    def run(
        self,
        starters: list[np.ndarray],
        rng: np.random.Generator,
        *,
        iterations: int = 6,
        variations_per_mask: int | None = None,
        samples_per_iteration: int | None = None,
        library: LibraryStore | None = None,
    ) -> PatternPaintResult:
        """Initial generation followed by ``iterations`` iterative rounds."""
        library, init_stats, raw_pairs = self.initial_generation(
            starters, rng, variations_per_mask=variations_per_mask,
            library=library,
        )
        stats = [init_stats]
        stats.extend(
            self.iterate(
                library,
                rng,
                iterations=iterations,
                samples_per_iteration=samples_per_iteration,
                fallback_seeds=starters,
            )
        )
        return PatternPaintResult(
            library=library, stats=stats, raw_samples=raw_pairs
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_config(self, **overrides) -> "PatternPaint":
        """A copy of this pipeline with config fields replaced."""
        return PatternPaint(
            self.ddpm, self.deck, replace(self.config, **overrides)
        )
