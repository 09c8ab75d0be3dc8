"""Batched, cached execution of generation requests.

:class:`BatchExecutor` owns the *how* of generation that every backend
shares, regardless of which model proposed the candidates:

* **chunked model batching** — :meth:`run_model_batched` slices arbitrary
  job lists into model-sized chunks (the paper's GPU-batch discipline,
  reused by :meth:`repro.core.pipeline.PatternPaint.inpaint_batch`);
* **serial post-processing** — template denoise, the DRC sweep and
  admission run on the calling thread: next to the model stage they are
  about 1% of a sample's time;
* **content-hash DRC caching** — legality checks go through
  :meth:`repro.drc.engine.DrcEngine.check_batch`, whose
  :class:`~repro.drc.cache.DrcCache` makes re-checks of identical clips
  free across iterations and experiments;
* **deterministic seeding** — one root :class:`numpy.random.Generator` is
  split via ``rng.spawn()`` into an independent child per job, so a
  clip's randomness depends on its position in the request only;
* **store-based admission** — clean candidates enter any
  :class:`~repro.library.LibraryStore` through :meth:`admit_batch`, the
  store's vectorised ``admit_many``.

:func:`run_generation` is the one-call entry point used by the CLI and the
experiment harnesses.  The async service layer drives the same machinery
through the **staged** API instead — :meth:`BatchExecutor.plan` /
:meth:`~BatchExecutor.execute` / :meth:`~BatchExecutor.finalize` — which
splits a run into resumable pieces an external scheduler can interleave
across requests.  For
pack-capable backends the service replaces per-request ``execute`` calls
with :meth:`BatchExecutor.run_model_packed` on every micro-batch, a lone
request included: it interleaves the requests' sampling chunks into
shared full-width model batches while spawning each chunk's rng from its
own request — packing that is bit-identical, per request, to the serial
path.  :func:`run_generation` samples through
:meth:`~BatchExecutor.run_model_batched`, serial chunk by chunk.  Either
way every inference forward shards its rows across cores on threads
(:mod:`repro.nn.shards`): that is the model stage's one in-process
parallelism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.library import PatternLibrary
from ..core.template_denoise import TemplateDenoiseConfig, template_denoise
from ..drc.engine import DrcEngine
from ..geometry.raster import validate_clip
from ..library import LibraryStore
from .packing import PackingPlan, chunk_sizes, pack_chunks
from .registry import GeneratorBackend, get_backend
from .request import (
    CandidateBatch,
    GenerationBatch,
    GenerationRequest,
    StageTimings,
)

__all__ = [
    "ExecutorConfig",
    "ExecutionPlan",
    "PackedModelResult",
    "PostprocessResult",
    "BatchExecutor",
    "run_generation",
]


def _fault_action(site: str) -> "str | None":
    """Consult the fault-injection harness for ``site`` (no-op without one).

    Imported lazily: :mod:`repro.service.faults` depends on
    :mod:`repro.engine.retry`, so the engine cannot import it at module
    load without a cycle — and the engine must stay usable when the
    service package is absent entirely.
    """
    try:
        from ..service.faults import maybe_fire
    except ImportError:  # pragma: no cover - service layer not installed
        return None
    return maybe_fire(site)


def _denoise_one(
    raw: np.ndarray,
    template: np.ndarray | None,
    config: TemplateDenoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Denoise (against its template) or validate one candidate."""
    if template is None:
        return validate_clip(raw)
    return template_denoise(raw, template, config, rng)


def _chunks(
    num_jobs: int, rng: np.random.Generator, model_batch: int
) -> list[tuple[int, int, np.random.Generator]]:
    """``(lo, hi, child)`` per model-sized chunk of ``num_jobs`` jobs.

    The one chunk-and-spawn rule of both model stages: boundaries from
    :func:`~repro.engine.packing.chunk_sizes`, one ``rng.spawn()`` child
    per chunk in chunk order, and nothing spawned for an empty job list.
    It is what keeps packed outputs bit-identical to serial ones.
    """
    sizes = chunk_sizes(num_jobs, model_batch)
    children = rng.spawn(len(sizes)) if sizes else []
    starts = range(0, num_jobs, model_batch)
    return [
        (lo, lo + size, child)
        for lo, size, child in zip(starts, sizes, children)
    ]


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution knobs shared by every backend.

    ``denoise`` configures the template-denoise stage.  The model-stage
    chunk size is not here: it fixes which rng child each job draws
    from, so the backend or pipeline that owns it passes it on every
    :meth:`BatchExecutor.run_model_batched` /
    :meth:`~BatchExecutor.run_model_packed` call.  There is no worker
    count: each inference forward runs its rows as shards on threads
    across every core (:mod:`repro.nn.shards`), and the post-processing
    stages run serially.
    """

    denoise: TemplateDenoiseConfig = field(default_factory=TemplateDenoiseConfig)


@dataclass
class PackedModelResult:
    """Outcome of one cross-request packed model stage.

    ``outputs[r]`` is request *r*'s raw model outputs in job order —
    bit-identical to what :meth:`BatchExecutor.run_model_batched` would
    have produced for that request alone: chunk rngs are spawned per
    chunk, and the model conditions on time once per distinct timestep,
    so rows sharing a timestep get the same bits at any batch size.
    ``seconds[r]`` is the wall-clock sampler time attributed to the
    request (each packed batch's time split by job share).  ``plan`` is
    the first-fit packing that ran; the service exports its
    ``fill_ratio`` as a gauge.
    """

    outputs: list[list[np.ndarray]]
    seconds: list[float]
    plan: PackingPlan


@dataclass
class PostprocessResult:
    """Outcome of the shared denoise -> DRC -> dedup stage."""

    clips: list[np.ndarray]
    legal: np.ndarray
    admitted: int
    timings: StageTimings


@dataclass
class ExecutionPlan:
    """One request's staged execution state (plan -> execute -> finalize).

    Built by :meth:`BatchExecutor.plan`, the plan pins everything a run
    depends on — resolved backend, the request's root rng stream and the
    destination store — so the model
    stage (:meth:`~BatchExecutor.execute`) and the post-processing stage
    (:meth:`~BatchExecutor.finalize`) can run at different times, from a
    scheduler, while staying bit-identical to a monolithic
    :meth:`~BatchExecutor.run`: the rng object threads propose -> denoise
    exactly as it does in the one-call path.
    """

    request: GenerationRequest
    backend: GeneratorBackend
    rng: np.random.Generator
    library: LibraryStore
    proposal: CandidateBatch | None = None
    generate_seconds: float = 0.0


class BatchExecutor:
    """Runs the shared generation machinery against one DRC engine.

    An executor holds no threads or processes of its own; it may be
    driven from several threads at once (its DRC cache is thread-safe),
    as when two services in one process serve the same deck.
    """

    def __init__(self, engine: DrcEngine, config: ExecutorConfig | None = None):
        self.engine = engine
        self.config = config or ExecutorConfig()

    def close(self) -> None:
        """A no-op, kept so callers may release any executor uniformly."""

    # ------------------------------------------------------------------
    # Stage helpers
    # ------------------------------------------------------------------
    def run_model_batched(
        self,
        model_fn: Callable[
            [list[np.ndarray], list[np.ndarray], np.random.Generator],
            Sequence[np.ndarray],
        ],
        templates: list[np.ndarray],
        masks: list[np.ndarray],
        rng: np.random.Generator,
        model_batch: int,
    ) -> tuple[list[np.ndarray], float]:
        """Run ``model_fn`` over (template, mask) jobs in ``model_batch``-sized
        chunks, one spawned rng child per chunk (:func:`_chunks`).

        A request's outputs are therefore identical whether its chunks
        run here one by one or packed with other requests' chunks
        (:meth:`run_model_packed`).

        Returns the concatenated outputs and the wall-clock seconds spent
        inside the model stage.
        """
        if len(templates) != len(masks):
            raise ValueError("templates and masks must pair up")
        outputs: list[np.ndarray] = []
        seconds = 0.0
        for lo, hi, child in _chunks(len(templates), rng, model_batch):
            t0 = time.perf_counter()
            outputs.extend(model_fn(templates[lo:hi], masks[lo:hi], child))
            seconds += time.perf_counter() - t0
        return outputs, seconds

    def run_model_packed(
        self,
        packed_fn: Callable[
            [
                list[list[np.ndarray]],
                list[list[np.ndarray]],
                list[np.random.Generator],
            ],
            list[list[np.ndarray]],
        ],
        job_lists: Sequence[tuple[list[np.ndarray], list[np.ndarray]]],
        rngs: Sequence[np.random.Generator],
        model_batch: int,
    ) -> PackedModelResult:
        """Run several requests' model stages as shared packed batches.

        ``job_lists[r]`` is request *r*'s (templates, masks) job pair and
        ``rngs[r]`` its root generator.  Each request is chunked and its
        rng spawned by the same rule as :meth:`run_model_batched`
        (:func:`_chunks`); the chunks are then interleaved across
        requests into full-width batches by a first-fit
        :func:`~repro.engine.packing.pack_chunks` plan.  ``packed_fn``
        samples one packed batch: it receives per-chunk
        template/mask/rng segments and returns per-chunk output lists
        (see :func:`~repro.engine.modelpool.inpaint_jobs_packed`).

        Per-request outputs are reassembled in chunk order and are
        bit-identical to that request's serial ``run_model_batched`` run:
        packing changes which forwards execute together, never which
        random numbers a request sees.
        """
        _fault_action("model")  # chaos hook: may raise InjectedFault
        job_lists = list(job_lists)
        if len(job_lists) != len(rngs):
            raise ValueError("job_lists and rngs must pair up")
        if any(len(templates) != len(masks) for templates, masks in job_lists):
            raise ValueError("templates and masks must pair up")
        chunks = [
            _chunks(len(templates), rng, model_batch)
            for (templates, _), rng in zip(job_lists, rngs)
        ]
        plan = pack_chunks([len(t) for t, _ in job_lists], model_batch)
        chunk_outputs: list[list] = [[None] * len(c) for c in chunks]
        seconds = [0.0] * len(job_lists)
        for packed in plan.batches:
            segments = [
                (job_lists[ref.entry], chunks[ref.entry][ref.chunk])
                for ref in packed.chunks
            ]
            t0 = time.perf_counter()
            outs = packed_fn(
                [templates[lo:hi] for (templates, _), (lo, hi, _) in segments],
                [masks[lo:hi] for (_, masks), (lo, hi, _) in segments],
                [child for _, (_, _, child) in segments],
            )
            elapsed = time.perf_counter() - t0
            for ref, out in zip(packed.chunks, outs):
                chunk_outputs[ref.entry][ref.chunk] = out
                seconds[ref.entry] += elapsed * (ref.jobs / packed.jobs)
        outputs = [
            [out for chunk in entry for out in chunk] for entry in chunk_outputs
        ]
        return PackedModelResult(outputs=outputs, seconds=seconds, plan=plan)

    def denoise_batch(
        self,
        raws: list[np.ndarray],
        templates: list[np.ndarray | None],
        rng: np.random.Generator,
    ) -> tuple[list[np.ndarray], float]:
        """Template-denoise (or validate) every candidate.

        Each job gets an independent child generator from ``rng.spawn()``,
        so a clip's randomness depends only on its position in the batch.
        """
        if len(raws) != len(templates):
            raise ValueError("raws and templates must pair up")
        if not raws:
            return [], 0.0
        children = rng.spawn(len(raws))
        config = self.config.denoise
        t0 = time.perf_counter()
        clips = [
            _denoise_one(raw, template, config, child)
            for raw, template, child in zip(raws, templates, children)
        ]
        return clips, time.perf_counter() - t0

    def check_batch(self, clips: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
        """Cached DRC sweep; returns (mask, seconds)."""
        _fault_action("drc")  # chaos hook: may raise InjectedFault
        t0 = time.perf_counter()
        mask = self.engine.check_batch(clips)
        return mask, time.perf_counter() - t0

    def admit_batch(
        self, store: LibraryStore, clips: Sequence[np.ndarray]
    ) -> list[bool]:
        """Admit candidates to ``store``; per-clip flags, in batch order."""
        clips = list(clips)
        if not clips:
            return []
        return list(store.admit_many(clips))

    # ------------------------------------------------------------------
    # The shared post-processing pipeline
    # ------------------------------------------------------------------
    def postprocess(
        self,
        raws: list[np.ndarray],
        templates: list[np.ndarray | None],
        rng: np.random.Generator,
        *,
        library: LibraryStore | None = None,
    ) -> PostprocessResult:
        """denoise -> DRC -> dedup, admitting clean+new clips to ``library``."""
        clips, denoise_seconds = self.denoise_batch(raws, templates, rng)
        legal, drc_seconds = self.check_batch(clips)
        admitted = 0
        if library is not None:
            legal_clips = [clip for clip, ok in zip(clips, legal) if ok]
            admitted = sum(self.admit_batch(library, legal_clips))
        return PostprocessResult(
            clips=clips,
            legal=legal,
            admitted=admitted,
            timings=StageTimings(
                denoise_seconds=denoise_seconds, drc_seconds=drc_seconds
            ),
        )

    # ------------------------------------------------------------------
    # Staged API (what the service scheduler drives)
    # ------------------------------------------------------------------
    def plan(
        self,
        request: GenerationRequest,
        *,
        backend: GeneratorBackend | None = None,
        rng: np.random.Generator | None = None,
        library: LibraryStore | None = None,
    ) -> ExecutionPlan:
        """Resolve a request into an :class:`ExecutionPlan` (no work yet).

        Resolves the backend (from the registry when not supplied), seeds
        the request's root rng and picks the destination store (a fresh
        single-shard store by default, matching :meth:`run`).
        """
        if backend is None:
            backend = get_backend(request.backend)
        rng = rng if rng is not None else request.rng()
        if library is None:
            library = PatternLibrary(name=backend.name)
        return ExecutionPlan(
            request=request, backend=backend, rng=rng, library=library
        )

    def execute(self, plan: ExecutionPlan) -> CandidateBatch:
        """Run the model stage: the backend proposes candidates.

        Consumes the plan's rng exactly as the one-call path does, so a
        later :meth:`finalize` (or a scheduler-driven denoise with the
        same rng object) is bit-identical to :meth:`run`.
        """
        _fault_action("model")  # chaos hook: may raise InjectedFault
        t0 = time.perf_counter()
        proposal = plan.backend.propose(plan.request, plan.rng)
        plan.generate_seconds = proposal.generate_seconds or (
            time.perf_counter() - t0
        )
        plan.proposal = proposal
        return proposal

    def finalize(self, plan: ExecutionPlan) -> GenerationBatch:
        """Post-process an executed plan: denoise -> DRC -> admit."""
        if plan.proposal is None:
            raise ValueError("plan has not been executed (no proposal)")
        post = self.postprocess(
            plan.proposal.raws,
            plan.proposal.templates,
            plan.rng,
            library=plan.library,
        )
        return self.assemble(plan, post.clips, post.legal, post.admitted,
                             post.timings)

    def assemble(
        self,
        plan: ExecutionPlan,
        clips: list[np.ndarray],
        legal: np.ndarray,
        admitted: int,
        timings: StageTimings,
    ) -> GenerationBatch:
        """Build the final :class:`GenerationBatch` from staged pieces.

        Used by :meth:`finalize` and by schedulers that ran the denoise /
        DRC / admission stages themselves and now need the per-request
        result object.
        """
        total = StageTimings(generate_seconds=plan.generate_seconds)
        total.add(timings)
        return GenerationBatch(
            request=plan.request,
            backend=plan.backend.name,
            clips=clips,
            legal=legal,
            library=plan.library,
            attempts=plan.proposal.attempts if plan.proposal else 0,
            timings=total,
            admitted=admitted,
            library_size=len(plan.library),
        )

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------
    def run(
        self,
        request: GenerationRequest,
        *,
        backend: GeneratorBackend | None = None,
        rng: np.random.Generator | None = None,
        library: LibraryStore | None = None,
    ) -> GenerationBatch:
        """Serve one request end to end through the staged pipeline.

        A thin composition of the staged API — :meth:`plan` (resolve the
        backend, seed the root rng, pick the destination store),
        :meth:`execute` (the model stage) and :meth:`finalize` (denoise
        -> DRC -> admit, which builds the result via :meth:`assemble`).
        External schedulers drive those same stages separately to
        interleave work across requests (cross-request packed model
        batches); both paths are bit-identical for the same request and
        rng.

        Pass ``library`` to admit into an existing store (e.g. one
        loaded from a snapshot, for cross-run dedup); by default each
        run gets a fresh single-shard store.  ``batch.admitted`` counts
        only clips admitted by *this* run, whatever the store held
        before.
        """
        staged = self.plan(request, backend=backend, rng=rng, library=library)
        self.execute(staged)
        return self.finalize(staged)


def run_generation(
    request: GenerationRequest,
    *,
    backend: GeneratorBackend | None = None,
    executor: BatchExecutor | None = None,
    rng: np.random.Generator | None = None,
    library: LibraryStore | None = None,
) -> GenerationBatch:
    """One-call generation: resolve the backend, build an executor, run.

    The DRC engine comes from ``request.deck`` when given, else from the
    backend's own deck; pass ``executor`` explicitly to reuse one (and its
    warm DRC cache) across requests, and ``library`` to dedup against (and
    grow) an existing store.
    """
    if backend is None:
        kwargs = {"deck": request.deck} if request.deck is not None else {}
        backend = get_backend(request.backend, **kwargs)
    if executor is None:
        deck = request.deck if request.deck is not None else backend.deck
        executor = BatchExecutor(deck.engine())
    return executor.run(request, backend=backend, rng=rng, library=library)
