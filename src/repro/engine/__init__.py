"""The unified generation engine: backend registry + batched executor.

This subsystem makes every pattern generator in the reproduction — the
PatternPaint inpainting pipeline, the DiffPattern and CUP baselines, the
rule-based track generator and the squish solver — a uniform
:class:`GeneratorBackend` behind a name registry, and runs them all
through one :class:`BatchExecutor` implementing the shared
denoise -> DRC -> dedup post-processing with chunked model batching
and a content-hash DRC cache.

Typical use::

    from repro.engine import GenerationRequest, run_generation

    batch = run_generation(GenerationRequest(backend="rule", count=50, seed=0))
    print(len(batch.library), batch.legality_rate, batch.timings.total_seconds)

Adding a backend is one class plus one :func:`register_backend` call; see
:mod:`repro.engine.backends` for the built-in adapters.
"""

# NOTE: the built-in adapters in .backends are NOT imported here — they
# import repro.core.pipeline, which itself imports this package's executor.
# The registry lazy-loads them on the first get_backend()/list_backends()
# call instead, which breaks the cycle.
from .executor import (
    BatchExecutor,
    ExecutionPlan,
    ExecutorConfig,
    PackedModelResult,
    PostprocessResult,
    run_generation,
)
from .packing import ChunkRef, PackedModelBatch, PackingPlan, pack_chunks
from .registry import (
    GeneratorBackend,
    get_backend,
    is_registered,
    list_backends,
    register_backend,
)
from .request import (
    CandidateBatch,
    GenerationBatch,
    GenerationRequest,
    StageTimings,
    deck_key,
)
from .retry import CircuitBreaker, RetryPolicy, TransientError

__all__ = [
    "BatchExecutor",
    "CandidateBatch",
    "ChunkRef",
    "CircuitBreaker",
    "ExecutionPlan",
    "ExecutorConfig",
    "GenerationBatch",
    "GenerationRequest",
    "GeneratorBackend",
    "PackedModelBatch",
    "PackedModelResult",
    "PackingPlan",
    "PostprocessResult",
    "RetryPolicy",
    "StageTimings",
    "TransientError",
    "deck_key",
    "get_backend",
    "is_registered",
    "list_backends",
    "pack_chunks",
    "register_backend",
    "run_generation",
]
