"""Cross-request model-batch packing: the pure bin-packing plan.

The micro-batch scheduler coalesces compatible requests, but a model
stage that sampled one request at a time would still pay one sampler
invocation — one python step loop, one set of small BLAS calls — per
request.  Packing interleaves the *sampling chunks* of different
requests into shared, full-width model batches, so eight requests of
three jobs each become one batch of 24 samples walking the denoising
loop once.

Determinism is preserved by keeping the chunk — not the packed batch —
the unit of rng consumption: both model stages of
:class:`~repro.engine.executor.BatchExecutor` chunk a request by
:func:`chunk_sizes` and spawn one rng child per chunk, in chunk order,
through one shared helper, and the packed sampler draws each chunk's
noise from that chunk's own child (see
:class:`repro.diffusion.SegmentedGenerator`).  Packing therefore changes
which forward passes run together, never which random numbers a request
sees — per-request outputs stay bit-identical to a serial
:func:`~repro.engine.executor.run_generation`.

This module is deliberately pure (sizes in, plan out, no numpy, no
engine state).  Its one caller in the engine is
:meth:`BatchExecutor.run_model_packed`, which builds a first-fit plan
from the job counts and chunk size it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["ChunkRef", "PackedModelBatch", "PackingPlan", "pack_chunks", "chunk_sizes"]


def chunk_sizes(num_jobs: int, model_batch: int) -> list[int]:
    """Per-chunk job counts for one request, mirroring the serial chunking.

    Identical to the boundaries :meth:`BatchExecutor.run_model_batched`
    slices — full ``model_batch``-sized chunks plus one remainder — which
    is what makes a packed run spawn the same per-chunk rng children as a
    serial run.
    """
    if num_jobs < 0:
        raise ValueError("num_jobs must be non-negative")
    if model_batch < 1:
        raise ValueError("model_batch must be positive")
    full, rest = divmod(num_jobs, model_batch)
    return [model_batch] * full + ([rest] if rest else [])


@dataclass(frozen=True)
class ChunkRef:
    """One request's sampling chunk inside a packed batch.

    ``entry`` indexes the request within the micro-batch (the scheduler's
    entry order), ``chunk`` is the chunk index within that request — the
    pair that keys the chunk's spawned rng child — and ``jobs`` is how
    many (template, mask) jobs the chunk carries.
    """

    entry: int
    chunk: int
    jobs: int


@dataclass
class PackedModelBatch:
    """Chunks that run as one shared model invocation."""

    chunks: list[ChunkRef] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        """Total jobs (samples) in this packed batch."""
        return sum(ref.jobs for ref in self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass
class PackingPlan:
    """How a micro-batch's sampling chunks map onto shared model batches."""

    capacity: int
    batches: list[PackedModelBatch] = field(default_factory=list)

    @property
    def packed_jobs(self) -> int:
        """Total jobs across every packed batch."""
        return sum(batch.jobs for batch in self.batches)

    @property
    def num_chunks(self) -> int:
        return sum(len(batch) for batch in self.batches)

    @property
    def fill_ratio(self) -> float:
        """Mean occupancy of the packed batches (1.0 = every slot used)."""
        slots = self.capacity * len(self.batches)
        return self.packed_jobs / slots if slots else 0.0


def pack_chunks(counts: Sequence[int], model_batch: int) -> PackingPlan:
    """First-fit pack per-request chunk lists into shared model batches.

    ``counts`` is the per-request model-stage job count, in micro-batch
    entry order.  Each request is first split into chunks exactly like
    the serial path (:func:`chunk_sizes`), then chunks are placed — in
    (entry, chunk) order — into the first packed batch with room, opening
    a new batch when none fits.  The algorithm is deterministic and keeps
    a request's chunks in order, so the executor can reassemble outputs
    by walking each request's chunk indices.
    """
    if model_batch < 1:
        raise ValueError("model_batch must be positive")
    plan = PackingPlan(capacity=model_batch)
    loads: list[int] = []  # per-batch job totals, parallel to plan.batches
    for entry, count in enumerate(counts):
        for chunk, jobs in enumerate(chunk_sizes(count, model_batch)):
            ref = ChunkRef(entry=entry, chunk=chunk, jobs=jobs)
            for i, load in enumerate(loads):
                if load + jobs <= model_batch:
                    plan.batches[i].chunks.append(ref)
                    loads[i] += jobs
                    break
            else:
                plan.batches.append(PackedModelBatch(chunks=[ref]))
                loads.append(jobs)
    return plan
