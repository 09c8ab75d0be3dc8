"""Built-in generator backends: one adapter per pattern generator.

Each adapter wraps an existing generator behind the
:class:`~repro.engine.registry.GeneratorBackend` protocol and registers
itself by name, so ``repro generate --backend <name>`` and the experiment
harnesses reach every generator through the same
:class:`~repro.engine.executor.BatchExecutor` path:

``patternpaint``
    Diffusion inpainting over starter templates and repaint masks (raw
    float outputs; the executor template-denoises them).
``diffpattern``
    Discrete-diffusion topologies legalized by the nonlinear solver.
``cup``
    Convolutional-VAE topologies legalized by the nonlinear solver.
``rule``
    The rule-based track generator (DR-clean by construction).
``solver``
    Random squish topologies pushed straight through the solver.

Model-backed adapters resolve their models lazily from :mod:`repro.zoo`
on first use, so registry import stays cheap; pass explicit models/decks
to the factories (``get_backend(name, deck=..., ...)``) to override.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines.cup import CupGenerator
from ..baselines.diffpattern import DiffPatternGenerator
from ..baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from ..baselines.solver import SolverSettings, SquishLegalizer
from ..baselines.topologies import random_topology
from ..core.masks import all_masks
from ..core.pipeline import PatternPaint, PatternPaintConfig
from ..drc.decks import RuleDeck
from ..zoo.corpora import experiment_deck
from .registry import register_backend
from .request import CandidateBatch, GenerationRequest

__all__ = [
    "PatternPaintBackend",
    "DiffPatternBackend",
    "CupBackend",
    "RuleBackend",
    "SolverBackend",
]


class PatternPaintBackend:
    """Inpainting proposals from a (zoo or injected) diffusion model.

    ``request.templates`` / ``request.masks`` override the default starter
    set and Figure 6 mask sets; jobs enumerate starter x mask x variation
    exactly like :meth:`PatternPaint.initial_generation`.  ``jobs`` /
    ``model_jobs`` size the wrapped pipeline's own executor, which only
    :meth:`propose` uses (``repro generate``).  The service builds the
    backend with the deck alone and samples through the pack hooks on
    its own executor, so the service's pools are the only ones in use.
    """

    name = "patternpaint"

    def __init__(
        self,
        deck: RuleDeck | None = None,
        *,
        ddpm=None,
        config: PatternPaintConfig | None = None,
        variant: str = "sd1-ft",
        templates: list[np.ndarray] | None = None,
        jobs: int | None = None,
        model_jobs: int | None = None,
    ):
        from dataclasses import replace

        self._deck = deck if deck is not None else experiment_deck()
        self._ddpm = ddpm
        cfg = config or PatternPaintConfig()
        if jobs is not None or model_jobs is not None:
            cfg = replace(
                cfg,
                jobs=jobs if jobs is not None else cfg.jobs,
                model_jobs=model_jobs if model_jobs is not None else cfg.model_jobs,
            )
        self._config = cfg
        self.variant = variant
        self._templates = list(templates) if templates is not None else None
        self._pipeline: PatternPaint | None = None
        self._starter_cache: list[np.ndarray] | None = None

    def close(self) -> None:
        """Shut down the wrapped pipeline's worker pools, if it was built."""
        if self._pipeline is not None:
            self._pipeline.close()

    @property
    def deck(self) -> RuleDeck:
        return self._deck

    @property
    def pipeline(self) -> PatternPaint:
        """The wrapped :class:`PatternPaint` (model loaded on first use)."""
        if self._pipeline is None:
            if self._ddpm is None:
                from ..zoo.artifacts import finetuned, pretrained

                variant, role = self.variant.rsplit("-", 1)
                if role == "ft":
                    self._ddpm = finetuned(variant)
                elif role == "base":
                    self._ddpm = pretrained(variant)
                else:
                    raise ValueError(f"unknown model variant {self.variant!r}")
            self._pipeline = PatternPaint(self._ddpm, self._deck, self._config)
        return self._pipeline

    def _default_templates(self) -> list[np.ndarray]:
        # Fixed-seed starters: caching is behaviour-identical and keeps a
        # long-lived backend from regenerating them on every request.
        if self._starter_cache is None:
            generator = TrackPatternGenerator(
                TrackGeneratorConfig(deck=self._deck)
            )
            self._starter_cache = generator.sample_many(
                20, np.random.default_rng(2024)
            )
        return self._starter_cache

    def pack_jobs(
        self, request: GenerationRequest
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The request's model-stage (template, mask) job lists.

        The single definition of job enumeration — starter x mask x
        variation, truncated to ``request.count`` — used by
        :meth:`propose` and by the service's cross-request packed model
        stage, so the two paths can never enumerate different jobs.
        Building jobs consumes no rng, which is what lets the packed
        path fall back to per-request sampling cleanly if packing is
        not possible.
        """
        pipeline = self.pipeline
        shape = pipeline.clip_shape
        if request.templates is not None:
            templates = [np.asarray(t) for t in request.templates]
        else:
            templates = self._templates or self._default_templates()
        if request.masks is not None:
            masks = [np.asarray(m, dtype=bool) for m in request.masks]
        else:
            masks = [named.mask for named in all_masks(shape)]

        per_combo = max(1, -(-request.count // (len(templates) * len(masks))))
        jobs_t, jobs_m = pipeline.build_jobs(templates, masks, per_combo)
        return jobs_t[: request.count], jobs_m[: request.count]

    def pack_model_batch(self) -> int:
        """Chunk capacity the packed stage must mirror.

        :meth:`propose` samples through the pipeline's executor, which
        chunks jobs by ``PatternPaintConfig.model_batch`` and spawns one
        rng child per chunk; the cross-request packed stage has to use
        the same capacity for its chunking or its spawned children would
        not line up with a serial run's.
        """
        return self._config.model_batch

    def pack_model_fn(self):
        """The packed-batch sampler for cross-request model packing.

        Returns a callable with the
        :meth:`~repro.engine.BatchExecutor.run_model_packed` ``packed_fn``
        signature: per-chunk template/mask/rng segments in, per-chunk
        output lists out, sampled as one batch through
        :func:`~repro.engine.modelpool.inpaint_jobs_packed`.
        """
        from .modelpool import inpaint_jobs_packed

        pipeline = self.pipeline

        def packed_fn(seg_templates, seg_masks, seg_rngs):
            return inpaint_jobs_packed(
                pipeline.ddpm.model,
                pipeline.ddpm.schedule,
                seg_templates,
                seg_masks,
                seg_rngs,
                pipeline.config.inpaint,
            )

        return packed_fn

    def pack_spec(self):
        """Picklable model spec for process-pool packed dispatch."""
        return self.pipeline.model_spec()

    def propose(
        self, request: GenerationRequest, rng: np.random.Generator
    ) -> CandidateBatch:
        jobs_t, jobs_m = self.pack_jobs(request)
        raws, seconds = self.pipeline.inpaint_batch(jobs_t, jobs_m, rng)
        return CandidateBatch(
            raws=raws,
            templates=jobs_t,
            attempts=len(jobs_t),
            generate_seconds=seconds,
        )


class _SolverLegalizedBackend:
    """Shared shape of the squish-pipeline baselines (sample + legalize)."""

    name = "base"

    def __init__(
        self,
        deck: RuleDeck | None = None,
        *,
        settings: SolverSettings | None = None,
        model=None,
    ):
        self._deck = deck if deck is not None else experiment_deck()
        self._settings = settings or SolverSettings(
            max_iter=120, discrete_restarts=3
        )
        self._model = model
        self._generator = None

    @property
    def deck(self) -> RuleDeck:
        return self._deck

    def _build_generator(self):  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def generator(self):
        """The wrapped generator (zoo model trained/loaded on first use)."""
        if self._generator is None:
            self._generator = self._build_generator()
        return self._generator

    def propose(
        self, request: GenerationRequest, rng: np.random.Generator
    ) -> CandidateBatch:
        t0 = time.perf_counter()
        legal, attempts, _ = self.generator.generate(request.count, rng)
        return CandidateBatch.from_clips(
            legal, attempts=attempts, generate_seconds=time.perf_counter() - t0
        )


class DiffPatternBackend(_SolverLegalizedBackend):
    """Discrete diffusion -> topology -> solver legalization."""

    name = "diffpattern"

    def _build_generator(self) -> DiffPatternGenerator:
        model = self._model
        if model is None:
            from ..zoo.artifacts import diffpattern_model

            model = diffpattern_model(image_size=self._deck.grid.width_px)
        return DiffPatternGenerator(model, self._deck, self._settings)


class CupBackend(_SolverLegalizedBackend):
    """Convolutional VAE -> topology -> solver legalization."""

    name = "cup"

    def _build_generator(self) -> CupGenerator:
        model = self._model
        if model is None:
            from ..zoo.artifacts import cup_model

            model = cup_model(image_size=self._deck.grid.width_px)
        return CupGenerator(model, self._deck, self._settings)


class RuleBackend:
    """The rule-based track generator (the commercial-tool stand-in)."""

    name = "rule"

    def __init__(
        self,
        deck: RuleDeck | None = None,
        *,
        config: TrackGeneratorConfig | None = None,
    ):
        from dataclasses import replace

        self._deck = deck if deck is not None else experiment_deck()
        cfg = config or TrackGeneratorConfig(deck=self._deck)
        if cfg.deck is not self._deck:
            cfg = replace(cfg, deck=self._deck)
        self._generator = TrackPatternGenerator(cfg)

    @property
    def deck(self) -> RuleDeck:
        return self._deck

    def propose(
        self, request: GenerationRequest, rng: np.random.Generator
    ) -> CandidateBatch:
        t0 = time.perf_counter()
        clips = self._generator.sample_many(request.count, rng)
        return CandidateBatch.from_clips(
            clips,
            attempts=request.count,
            generate_seconds=time.perf_counter() - t0,
        )


class SolverBackend:
    """Random squish topologies legalized by the nonlinear solver.

    The purest solver workload: no learned model at all, so it isolates
    legalization cost and success rate (Figure 9's subject).
    """

    name = "solver"

    def __init__(
        self,
        deck: RuleDeck | None = None,
        *,
        settings: SolverSettings | None = None,
        cells: int | None = None,
        fill_target: float = 0.35,
    ):
        self._deck = deck if deck is not None else experiment_deck()
        self._settings = settings or SolverSettings(
            max_iter=120, discrete_restarts=3
        )
        if cells is None:
            cells = max(4, self._deck.grid.width_px // self._settings.px_per_cell)
        self._cells = cells
        self._fill_target = fill_target
        self._legalizer = SquishLegalizer(self._deck, self._settings)

    @property
    def deck(self) -> RuleDeck:
        return self._deck

    def propose(
        self, request: GenerationRequest, rng: np.random.Generator
    ) -> CandidateBatch:
        t0 = time.perf_counter()
        clips: list[np.ndarray] = []
        grid = self._deck.grid
        for _ in range(request.count):
            topology = random_topology(self._cells, rng, fill_target=self._fill_target)
            result = self._legalizer.legalize(
                topology,
                width_px=grid.width_px,
                height_px=grid.height_px,
                rng=rng,
            )
            if result.success and result.clip is not None:
                clips.append(result.clip)
        return CandidateBatch.from_clips(
            clips,
            attempts=request.count,
            generate_seconds=time.perf_counter() - t0,
        )


register_backend("patternpaint", PatternPaintBackend)
register_backend("diffpattern", DiffPatternBackend)
register_backend("cup", CupBackend)
register_backend("rule", RuleBackend)
register_backend("solver", SolverBackend)
