"""Batched, cached execution of generation requests.

:class:`BatchExecutor` owns the *how* of generation that every backend
shares, regardless of which model proposed the candidates:

* **chunked model batching** — :meth:`run_model_batched` slices arbitrary
  job lists into model-sized chunks (the paper's GPU-batch discipline,
  reused by :meth:`repro.core.pipeline.PatternPaint.inpaint_batch`);
* **pooled post-processing** — the template-denoise and DRC stages are
  embarrassingly parallel per clip, so ``jobs > 1`` fans them out over a
  thread or process pool;
* **content-hash DRC caching** — legality checks go through
  :meth:`repro.drc.engine.DrcEngine.check_batch`, whose
  :class:`~repro.drc.cache.DrcCache` makes re-checks of identical clips
  free across iterations and experiments;
* **deterministic seeding** — one root :class:`numpy.random.Generator` is
  split via ``rng.spawn()`` into an independent child per job, so pooled
  and serial execution produce bit-identical libraries for the same seed;
* **store-based admission** — clean candidates enter any
  :class:`~repro.library.LibraryStore` through :meth:`admit_batch`, which
  under ``jobs > 1`` (and past ``admit_pool_threshold`` candidates —
  below it the store's vectorised ``admit_many`` beats pool spin-up)
  hashes contiguous batch slices on the worker pool
  (:func:`repro.library.compute_delta`) and merges the resulting
  :class:`~repro.library.ShardDelta`\\ s into the store in batch order —
  the worker merge protocol that keeps pooled admission bit-identical to
  serial.

:func:`run_generation` is the one-call entry point used by the CLI and the
experiment harnesses.  The async service layer drives the same machinery
through the **staged** API instead — :meth:`BatchExecutor.plan` /
:meth:`~BatchExecutor.execute` / :meth:`~BatchExecutor.finalize` — which
splits a run into resumable pieces an external scheduler can interleave
across requests (e.g. one DRC sweep over a whole micro-batch).  For
pack-capable backends the service replaces per-request ``execute`` calls
with :meth:`BatchExecutor.run_model_packed` on every micro-batch, a lone
request included: it interleaves the requests' sampling chunks into
shared full-width model batches while spawning each chunk's rng from its
own request — packing that is bit-identical, per request, to the serial
path.  :func:`run_generation` samples through
:meth:`~BatchExecutor.run_model_batched`, process-pooled when
``model_jobs > 1``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.library import PatternLibrary
from ..core.template_denoise import TemplateDenoiseConfig, template_denoise
from ..drc.engine import DrcEngine
from ..geometry.raster import validate_clip
from ..library import LibraryStore, compute_delta
from .modelpool import (
    InpaintModelSpec,
    run_inpaint_chunk,
    run_inpaint_packed_batch,
)
from .packing import PackingPlan, chunk_sizes, pack_chunks
from .registry import GeneratorBackend, get_backend
from .retry import BreakerBoard
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
    "PoolRegistry",
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


def _supervised_fault_action(site: str) -> "str | None":
    """Like :func:`_fault_action`, for sites whose failure is recovered
    right here in the engine — marks the call as a protected region so
    environment-scoped fault plans (``scope="protected"``) fire too."""
    try:
        from ..service.faults import maybe_fire, protected
    except ImportError:  # pragma: no cover - service layer not installed
        return None
    with protected():
        return maybe_fire(site)


def _denoise_one(
    raw: np.ndarray,
    template: np.ndarray | None,
    config: TemplateDenoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Denoise/validate one candidate (module-level: process-pool safe)."""
    if template is None:
        return validate_clip(raw)
    return template_denoise(raw, template, config, rng)


class _PoolLease:
    """A persistent pool plus its lease bookkeeping (see ``PoolRegistry``)."""

    __slots__ = ("pool", "refs", "retired")

    def __init__(self, pool: Executor):
        self.pool = pool
        self.refs = 0
        self.retired = False


class PoolRegistry:
    """Lease-managed persistent worker pools, keyed by ``(kind, workers)``.

    One registry may back several :class:`BatchExecutor` instances — the
    service's per-deck executors share one, so they hold one thread pool
    and one process pool between them instead of one of each per deck.
    Pools are created lazily on first lease and live until
    :meth:`close`; each distinct (kind, size) pair has at most one live
    pool at a time.

    The lease is what makes :meth:`close` safe while stages run: a pool
    is only ever shut down with zero lessees, so a stage can never see
    its pool die between acquiring it and submitting work.  A close
    racing an active stage *retires* the pool (detaches it from the map)
    and the stage — the last lessee — shuts it down on release.  A
    closed registry lazily re-creates pools if leased again.

    The registry is also the pool *supervisor*: when a stage observes a
    dead pool (``BrokenProcessPool`` — its workers were killed),
    :meth:`rebuild` retires the broken pool so the next lease creates a
    fresh one, and the per-``(kind, workers)`` circuit breaker on
    :attr:`breakers` records the failure.  A breaker that trips (too
    many pool deaths inside its window) makes the executor degrade that
    pool's stages to serial dispatch until the cooldown passes — which
    is safe because every dispatch strategy is bit-identical.
    """

    def __init__(self, *, breakers: BreakerBoard | None = None) -> None:
        self._pools: dict[tuple[str, int], _PoolLease] = {}
        self._lock = threading.Lock()
        #: One circuit breaker per (kind, workers) pool; consulted by the
        #: executor's supervised pooled dispatch.
        self.breakers = breakers if breakers is not None else BreakerBoard()
        #: How many broken pools were replaced (telemetry for ``health``).
        self.rebuilds = 0

    def breaker(self, kind: str, workers: int):
        """The circuit breaker guarding the ``(kind, workers)`` pool."""
        return self.breakers.get((kind, workers))

    def rebuild(self, kind: str, workers: int) -> bool:
        """Retire the ``(kind, workers)`` pool so the next lease is fresh.

        Called when a stage caught ``BrokenProcessPool``: the broken pool
        is detached from the map (idle → shut down here without waiting,
        its workers are already dead; still leased → the last lessee
        shuts it down on release) and the next :meth:`lease` creates a
        replacement.  Returns ``False`` when no such pool exists (someone
        else already rebuilt it) — the failure still counts against the
        breaker either way, at the call site.
        """
        key = (kind, workers)
        with self._lock:
            lease = self._pools.pop(key, None)
            if lease is None:
                return False
            lease.retired = True
            idle = lease.refs == 0
            self.rebuilds += 1
        if idle:
            lease.pool.shutdown(wait=False)
        return True

    @contextmanager
    def lease(self, kind: str, workers: int):
        """Lease the persistent pool for ``(kind, workers)`` for one stage."""
        if kind not in ("thread", "process"):
            raise ValueError(
                f"unknown pool kind {kind!r} (use 'thread' or 'process')"
            )
        key = (kind, workers)
        with self._lock:
            lease = self._pools.get(key)
            if lease is None:
                if kind == "thread":
                    pool = ThreadPoolExecutor(max_workers=workers)
                else:
                    pool = ProcessPoolExecutor(max_workers=workers)
                lease = _PoolLease(pool)
                self._pools[key] = lease
            lease.refs += 1
        try:
            yield lease.pool
        finally:
            with self._lock:
                lease.refs -= 1
                shutdown_now = lease.retired and lease.refs == 0
            if shutdown_now:
                lease.pool.shutdown(wait=True)

    def close(self) -> None:
        """Shut down the pools (idempotent; safe under concurrent callers).

        The pool map is detached under the lock (a double close, or two
        closes racing, each shut down disjoint sets), idle pools are shut
        down here with ``wait=True``, and pools a running stage currently
        leases are retired for that stage to shut down when it finishes.
        """
        with self._lock:
            leases, self._pools = list(self._pools.values()), {}
            idle = []
            for lease in leases:
                lease.retired = True
                if lease.refs == 0:
                    idle.append(lease)
        for lease in idle:
            lease.pool.shutdown(wait=True)

    # Dict-like inspection of the live leases (tests and telemetry peek
    # at which (kind, workers) pools currently exist).
    def get(self, key: tuple[str, int]) -> "_PoolLease | None":
        with self._lock:
            return self._pools.get(key)

    def __getitem__(self, key: tuple[str, int]) -> "_PoolLease":
        with self._lock:
            return self._pools[key]

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._pools

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __enter__(self) -> "PoolRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution knobs shared by every backend.

    ``jobs`` is the worker count for the denoise and DRC stages (1 =
    serial); ``pool`` selects ``"thread"`` or ``"process"`` workers for
    those stages.  ``model_jobs`` is the worker count for the *model*
    stage: with ``model_jobs > 1`` (and a picklable model spec, see
    :meth:`BatchExecutor.run_model_batched` and
    :meth:`~BatchExecutor.run_model_packed`) sampling chunks or packed
    batches fan out over the persistent **process** pool — the numpy
    model's inference workspaces are per-instance, so model parallelism
    always uses worker-local rehydrated models rather than shared-memory
    threads.
    ``model_batch`` is the chunk size for
    :meth:`BatchExecutor.run_model_batched`.
    ``admit_pool_threshold`` is the batch size below which
    :meth:`BatchExecutor.admit_batch` skips the worker pool and admits
    with the store's own vectorised ``admit_many`` — pool dispatch
    overhead dwarfs the hashing cost for small batches, and the admitted
    result is bit-identical either way.
    """

    model_batch: int = 32
    jobs: int = 1
    pool: str = "thread"
    model_jobs: int = 1
    use_cache: bool = True
    denoise: TemplateDenoiseConfig = field(default_factory=TemplateDenoiseConfig)
    admit_pool_threshold: int = 4096

    def __post_init__(self) -> None:
        if self.model_batch < 1:
            raise ValueError("model_batch must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.model_jobs < 1:
            raise ValueError("model_jobs must be positive")
        if self.pool not in ("thread", "process"):
            raise ValueError("pool must be 'thread' or 'process'")


@dataclass
class PackedModelResult:
    """Outcome of one cross-request packed model stage.

    ``outputs[r]`` is request *r*'s raw model outputs in job order —
    bit-identical to what :meth:`BatchExecutor.run_model_batched` would
    have produced for that request alone.  ``seconds[r]`` is the
    wall-clock sampler time attributed to the request (each packed
    batch's time split by job share).  ``plan`` is the packing that ran,
    whose ``fill_ratio`` the service exports as a gauge.
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
    depends on — resolved backend, the request's root rng stream, the
    destination store and the DRC-cache counters at start — so the model
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
    cache_hits0: int = 0
    cache_misses0: int = 0
    proposal: CandidateBatch | None = None
    generate_seconds: float = 0.0


class BatchExecutor:
    """Runs the shared generation machinery against one DRC engine.

    The executor runs its pooled stages on **persistent** worker pools:
    the first pooled stage lazily creates the thread and/or process pool
    and every later batch reuses it, instead of paying pool spin-up on
    each ``denoise_batch``/``check_batch``/``admit_batch``/model-stage
    call.  By default each executor owns a private :class:`PoolRegistry`
    and ``close()`` (or exiting a ``with`` block) shuts its pools down;
    pass ``pools=`` to share one registry across executors — the
    service does this so its per-deck executors hold one pool per
    (kind, size) — in which case ``close()`` leaves the shared pools to
    their owner.  A closed executor lazily re-creates
    pools if used again.
    """

    def __init__(
        self,
        engine: DrcEngine,
        config: ExecutorConfig | None = None,
        *,
        pools: PoolRegistry | None = None,
    ):
        self.engine = engine
        self.config = config or ExecutorConfig()
        self.pools = pools if pools is not None else PoolRegistry()
        self._owns_pools = pools is None

    # ------------------------------------------------------------------
    # Persistent pools
    # ------------------------------------------------------------------
    def _supervised_pooled(self, workers: int, dispatch: Callable):
        """One pooled model-stage dispatch, supervised for worker death.

        ``dispatch(pool)`` submits the stage's work and returns its
        futures.  On ``BrokenProcessPool`` (the pool's workers died —
        or the ``pool`` fault site injected exactly that) the registry
        :meth:`~PoolRegistry.rebuild`\\ s the pool and the dispatch is
        retried once on the replacement; the per-pool circuit breaker
        counts each death, and while it is open (or once it trips here)
        this returns ``None`` without dispatching — the caller falls
        back to serial with the *same* spawned children, which is
        bit-identical because pooled workers consume pickled rng copies,
        never the parent's.  Returns ``(results, elapsed)`` on success.
        """
        breaker = self.pools.breaker("process", workers)
        if not breaker.allow():
            return None
        for _attempt in range(2):
            try:
                with self.pools.lease("process", workers) as pool:
                    t0 = time.perf_counter()
                    if _supervised_fault_action("pool") == "crash":
                        raise BrokenProcessPool("injected process-pool crash")
                    futures = dispatch(pool)
                    results = [future.result() for future in futures]
                    elapsed = time.perf_counter() - t0
                breaker.record_success()
                return results, elapsed
            except BrokenExecutor:
                self.pools.rebuild("process", workers)
                if breaker.record_failure():
                    break
        return None

    def close(self) -> None:
        """Shut down the owned pool registry (see :meth:`PoolRegistry.close`).

        Idempotent and safe under concurrent callers; a close racing
        in-flight work never raises and never pulls a pool out from
        under a stage.  When the registry was injected (shared across
        executors), this is a no-op — the registry's owner closes it.
        """
        if self._owns_pools:
            self.pools.close()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        *,
        spec: InpaintModelSpec | None = None,
    ) -> tuple[list[np.ndarray], float]:
        """Run ``model_fn`` over (template, mask) jobs in model-sized chunks.

        Every chunk gets an independent child generator from
        ``rng.spawn()`` (consumed in chunk order), so the concatenated
        outputs are identical whether chunks run serially or on workers.
        With ``model_jobs > 1``, more than one chunk and a picklable
        ``spec`` (:class:`~repro.engine.modelpool.InpaintModelSpec`),
        chunks are dispatched to the persistent process pool, where each
        worker rehydrates the checkpointed model once and samples in
        inference mode — bit-identical to the serial path for a fixed
        seed.  Otherwise they run serially in this process.

        Returns the concatenated outputs and the wall-clock seconds spent
        inside the model stage.
        """
        if len(templates) != len(masks):
            raise ValueError("templates and masks must pair up")
        if not templates:
            return [], 0.0
        batch = self.config.model_batch
        bounds = list(range(0, len(templates), batch))
        chunks = [(start, min(start + batch, len(templates))) for start in bounds]
        children = rng.spawn(len(chunks))
        outputs: list[np.ndarray] = []
        jobs = min(self.config.model_jobs, len(chunks))
        if spec is not None and jobs > 1:
            dispatched = self._supervised_pooled(
                jobs,
                lambda pool: [
                    pool.submit(
                        run_inpaint_chunk, spec, templates[lo:hi],
                        masks[lo:hi], child
                    )
                    for (lo, hi), child in zip(chunks, children)
                ],
            )
            if dispatched is not None:
                results, elapsed = dispatched
                for result in results:
                    outputs.extend(result)
                return outputs, elapsed
            # Pooled dispatch unavailable (breaker open, or the pool
            # died twice): degrade to the serial loop below with the
            # SAME children — workers consume pickled rng copies, so
            # the parent streams are untouched and degraded output is
            # bit-identical to a healthy pooled run.
        seconds = 0.0
        for (lo, hi), child in zip(chunks, children):
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
        *,
        packing: PackingPlan | None = None,
        spec: InpaintModelSpec | None = None,
    ) -> PackedModelResult:
        """Run several requests' model stages as shared packed batches.

        ``job_lists[r]`` is request *r*'s (templates, masks) job pair and
        ``rngs[r]`` its root generator.  Each request is chunked exactly
        like :meth:`run_model_batched` (``model_batch`` jobs per chunk)
        and its rng spawned into per-chunk children in chunk order, so
        every generator is consumed precisely as the serial path consumes
        it; the chunks are then interleaved across requests into
        full-width packed batches — ``packing`` (a scheduler-emitted
        :class:`~repro.engine.packing.PackingPlan`, validated here
        against the actual job counts) or a first-fit plan computed on
        the spot.  ``packed_fn`` samples one packed batch: it receives
        per-chunk template/mask/rng segments and returns per-chunk output
        lists (see :func:`~repro.engine.modelpool.inpaint_jobs_packed`).

        Per-request outputs are reassembled in chunk order and are
        bit-identical to that request's serial ``run_model_batched`` run:
        packing changes which forwards execute together, never which
        random numbers a request sees.  With ``model_jobs > 1``, a
        picklable ``spec`` and more than one packed batch, batches fan
        out over the persistent process pool
        (:func:`~repro.engine.modelpool.run_inpaint_packed_batch`).
        """
        job_lists = list(job_lists)
        rngs = list(rngs)
        if len(job_lists) != len(rngs):
            raise ValueError("job_lists and rngs must pair up")
        counts = []
        for templates, masks in job_lists:
            if len(templates) != len(masks):
                raise ValueError("templates and masks must pair up")
            counts.append(len(templates))
        if packing is None:
            packing = pack_chunks(counts, self.config.model_batch)
        # The plan's capacity is the chunking unit: it must equal the
        # chunk size the requests' serial model stage uses (the service
        # asks the backend via ``pack_model_batch``), or the spawned
        # children would not line up with a serial run's.
        batch = packing.capacity
        # Spawn per-chunk children request by request, in chunk order —
        # the serial consumption discipline (an empty job list spawns
        # nothing, exactly like run_model_batched's early return).
        children: dict[tuple[int, int], np.random.Generator] = {}
        slices: dict[tuple[int, int], tuple[int, int]] = {}
        for entry, count in enumerate(counts):
            sizes = chunk_sizes(count, batch)
            if sizes:
                for chunk, child in enumerate(rngs[entry].spawn(len(sizes))):
                    children[(entry, chunk)] = child
                    lo = chunk * batch
                    slices[(entry, chunk)] = (lo, lo + sizes[chunk])
        planned = {
            (ref.entry, ref.chunk): ref.jobs
            for packed in packing.batches
            for ref in packed.chunks
        }
        expected = {key: hi - lo for key, (lo, hi) in slices.items()}
        if planned != expected or packing.num_chunks != len(expected):
            raise ValueError(
                "packing plan does not cover the submitted job lists "
                "(every chunk exactly once, with matching job counts)"
            )

        chunk_outputs: dict[tuple[int, int], list[np.ndarray]] = {}
        seconds = [0.0] * len(job_lists)

        def segments(packed):
            seg_t, seg_m, seg_rngs = [], [], []
            for ref in packed.chunks:
                lo, hi = slices[(ref.entry, ref.chunk)]
                templates, masks = job_lists[ref.entry]
                seg_t.append(templates[lo:hi])
                seg_m.append(masks[lo:hi])
                seg_rngs.append(children[(ref.entry, ref.chunk)])
            return seg_t, seg_m, seg_rngs

        def record(packed, outs, elapsed):
            total = max(packed.jobs, 1)
            for ref, out in zip(packed.chunks, outs):
                chunk_outputs[(ref.entry, ref.chunk)] = list(out)
                seconds[ref.entry] += elapsed * (ref.jobs / total)

        jobs = min(self.config.model_jobs, len(packing.batches))
        dispatched = None
        if spec is not None and jobs > 1:
            # Supervised like run_model_batched: a dead pool is rebuilt
            # and retried once; breaker-open or repeated death degrades
            # to the serial loop below, bit-identically (the parent
            # chunk rngs are never consumed by pooled workers).
            dispatched = self._supervised_pooled(
                jobs,
                lambda pool: [
                    pool.submit(run_inpaint_packed_batch, spec, *segments(p))
                    for p in packing.batches
                ],
            )
        if dispatched is not None:
            results, elapsed = dispatched
            # Pooled batches overlap in time; attribute the shared
            # wall clock to each batch by its job share.
            for packed, outs in zip(packing.batches, results):
                record(
                    packed,
                    outs,
                    elapsed * (packed.jobs / max(packing.packed_jobs, 1)),
                )
        else:
            for packed in packing.batches:
                t0 = time.perf_counter()
                outs = packed_fn(*segments(packed))
                record(packed, outs, time.perf_counter() - t0)

        outputs: list[list[np.ndarray]] = []
        for entry, count in enumerate(counts):
            merged: list[np.ndarray] = []
            for chunk in range(len(chunk_sizes(count, batch))):
                merged.extend(chunk_outputs[(entry, chunk)])
            outputs.append(merged)
        return PackedModelResult(
            outputs=outputs, seconds=seconds, plan=packing
        )

    def denoise_batch(
        self,
        raws: list[np.ndarray],
        templates: list[np.ndarray | None],
        rng: np.random.Generator,
    ) -> tuple[list[np.ndarray], float]:
        """Template-denoise (or validate) every candidate.

        Each job gets an independent child generator from ``rng.spawn()``,
        so the result is identical whether the map runs serially or on a
        pool.
        """
        if len(raws) != len(templates):
            raise ValueError("raws and templates must pair up")
        if not raws:
            return [], 0.0
        children = rng.spawn(len(raws))
        config = self.config.denoise
        t0 = time.perf_counter()
        jobs = min(self.config.jobs, len(raws))
        if jobs <= 1:
            clips = [
                _denoise_one(raw, template, config, child)
                for raw, template, child in zip(raws, templates, children)
            ]
        else:
            with self.pools.lease(self.config.pool, self.config.jobs) as pool:
                clips = list(
                    pool.map(
                        _denoise_one,
                        raws,
                        templates,
                        [config] * len(raws),
                        children,
                    )
                )
        return clips, time.perf_counter() - t0

    def check_batch(self, clips: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
        """Cached, optionally pooled DRC sweep; returns (mask, seconds).

        With ``jobs > 1`` the engine sweeps uncached clips on this
        executor's persistent pool instead of spinning one up per call.
        """
        _fault_action("drc")  # chaos hook: may raise InjectedFault
        t0 = time.perf_counter()
        if self.config.jobs > 1:
            with self.pools.lease(self.config.pool, self.config.jobs) as pool:
                mask = self.engine.check_batch(
                    clips,
                    jobs=self.config.jobs,
                    pool=self.config.pool,
                    use_cache=self.config.use_cache,
                    executor=pool,
                )
        else:
            mask = self.engine.check_batch(
                clips,
                jobs=self.config.jobs,
                pool=self.config.pool,
                use_cache=self.config.use_cache,
                executor=None,
            )
        return mask, time.perf_counter() - t0

    def admit_batch(
        self, store: LibraryStore, clips: Sequence[np.ndarray]
    ) -> list[bool]:
        """Admit candidates to ``store``; per-clip flags, in batch order.

        With ``jobs > 1`` and at least ``admit_pool_threshold``
        candidates, the batch is split into contiguous slices whose
        hashes are computed on the worker pool; the resulting deltas are
        then merged into the store in slice order, so the admitted
        contents and insertion order are bit-identical to a serial
        ``store.admit_many`` call.  Smaller batches take the store's own
        vectorised path directly.
        """
        clips = list(clips)
        if not clips:
            return []
        jobs = min(self.config.jobs, len(clips))
        if jobs <= 1 or len(clips) < self.config.admit_pool_threshold:
            return list(store.admit_many(clips))
        bounds = np.linspace(0, len(clips), jobs + 1).astype(int)
        slices = [
            (int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with self.pools.lease(self.config.pool, self.config.jobs) as pool:
            deltas = list(
                pool.map(
                    compute_delta,
                    [clips[lo:hi] for lo, hi in slices],
                    [lo for lo, _ in slices],
                )
            )
        flags: list[bool] = []
        for delta in sorted(deltas, key=lambda d: d.offset):
            flags.extend(store.merge(delta))
        return flags

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
        cache = self.engine.cache
        return ExecutionPlan(
            request=request,
            backend=backend,
            rng=rng,
            library=library,
            cache_hits0=cache.hits,
            cache_misses0=cache.misses,
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
        *,
        cache_hits: int | None = None,
        cache_misses: int | None = None,
    ) -> GenerationBatch:
        """Build the final :class:`GenerationBatch` from staged pieces.

        Used by :meth:`finalize` and by schedulers that ran the denoise /
        DRC / admission stages themselves (e.g. one DRC sweep across a
        whole micro-batch) and now need the per-request result object.
        By default cache traffic is the engine-counter delta since
        :meth:`plan`; a scheduler whose DRC sweep spanned several
        requests passes each request's attributed ``cache_hits`` /
        ``cache_misses`` explicitly (the shared counters would otherwise
        charge the whole sweep to every request).
        """
        cache = self.engine.cache
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
            cache_hits=(
                cache_hits if cache_hits is not None
                else cache.hits - plan.cache_hits0
            ),
            cache_misses=(
                cache_misses if cache_misses is not None
                else cache.misses - plan.cache_misses0
            ),
            admitted=admitted,
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
        interleave work across requests (one DRC sweep per micro-batch,
        cross-request packed model batches); both paths are
        bit-identical for the same request and rng.

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
    jobs: int = 1,
    pool: str = "thread",
    model_jobs: int = 1,
    backend: GeneratorBackend | None = None,
    executor: BatchExecutor | None = None,
    rng: np.random.Generator | None = None,
    library: LibraryStore | None = None,
) -> GenerationBatch:
    """One-call generation: resolve the backend, build an executor, run.

    The DRC engine comes from ``request.deck`` when given, else from the
    backend's own deck; pass ``executor`` explicitly to reuse one (and its
    warm DRC cache and worker pools) across requests, and ``library`` to
    dedup against (and grow) an existing store.  An executor created here
    is closed before returning; a caller-provided one is left open.
    """
    if backend is None:
        kwargs = {"deck": request.deck} if request.deck is not None else {}
        backend = get_backend(request.backend, **kwargs)
    if executor is not None:
        return executor.run(request, backend=backend, rng=rng, library=library)
    deck = request.deck if request.deck is not None else backend.deck
    with BatchExecutor(
        deck.engine(),
        ExecutorConfig(jobs=jobs, pool=pool, model_jobs=model_jobs),
    ) as owned:
        return owned.run(request, backend=backend, rng=rng, library=library)
