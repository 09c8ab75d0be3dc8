"""Span tracing around the public functions of each layer.

The wrappers are installed from outside the program: :func:`install`
replaces a fixed list of functions and methods (:data:`TARGETS`) with
timing wrappers that record one span per call into a :class:`Tracer`.
A span is ``(id, name, start, end, parent, thread, counts)``; ``start``
and ``end`` are ``time.monotonic()`` readings, which share one clock
across the processes of a host, so spans recorded in a server process
line up with the client's measurement window.  Spans stay in memory
until :meth:`Tracer.dump` writes them out.

:func:`layer_metrics` turns a span list into the per-layer metrics:
call counts, busy time (outermost spans of a name), self time (a span's
duration minus the time its child spans cover) and the part of the
window that no span covers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time


class Tracer:
    """Collects spans from any thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording a span named ``name`` per call.

        ``counts(args, kwargs, result, state)`` returns a dict of counts
        for the span; ``state`` is what ``counts.before(args, kwargs)``
        returned just before the call, when ``counts`` has a ``before``.
        """
        before = getattr(counts, "before", None)
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            state = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            extra = counts(args, kwargs, result, state) if counts else None
            spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), extra)
            )
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(path) -> list[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _unet_rows(args, kwargs, result, state):
    return {"rows": int(args[1].shape[0])}


def _denoise_rows(args, kwargs, result, state):
    return {"rows": len(args[1])}


def _batched_jobs(args, kwargs, result, state):
    return {"batched_jobs": len(args[2])}


def _packed_jobs(args, kwargs, result, state):
    plan = result.plan
    return {
        "packed_jobs": plan.packed_jobs,
        "slots": plan.capacity * len(plan.batches),
    }


def _check_counts(args, kwargs, result, state):
    cache = args[0].engine.cache
    return {
        "clips": len(args[1]),
        "hits": cache.hits - state[0],
        "misses": cache.misses - state[1],
    }


def _check_before(args, kwargs):
    cache = args[0].engine.cache
    return cache.hits, cache.misses


_check_counts.before = _check_before


def _admit_counts(args, kwargs, result, state):
    return {"offered": len(result), "admitted": int(sum(result))}


def _encode_counts(args, kwargs, result, state):
    return {"bytes": int(result[0]["bytes"]), "chars": len(result[1])}


#: ``(span name, module, class or None, attribute, counts)``.  A function
#: imported by name into another module is wrapped where it is called
#: from, which is why ``gn_silu`` and ``inpaint_jobs`` appear more than
#: once.
TARGETS = (
    ("nn.unet", "repro.nn.unet", "TimeUnet", "forward", _unet_rows),
    ("nn.resblock", "repro.nn.blocks", "ResBlock", "forward", None),
    ("nn.attention", "repro.nn.blocks", "SelfAttention2d", "forward", None),
    ("nn.conv2d", "repro.nn.layers", "Conv2d", "forward", None),
    ("nn.groupnorm", "repro.nn.layers", "GroupNorm", "forward", None),
    ("nn.gn_silu", "repro.nn.layers", None, "gn_silu", None),
    ("nn.gn_silu", "repro.nn.blocks", None, "gn_silu", None),
    ("nn.gn_silu", "repro.nn.unet", None, "gn_silu", None),
    ("diffusion.sample", "repro.core.pipeline", None, "inpaint_jobs", None),
    ("diffusion.sample", "repro.engine.modelpool", None, "inpaint_jobs", None),
    ("diffusion.sample", "repro.engine.modelpool", None,
     "inpaint_jobs_packed", None),
    ("engine.model_stage", "repro.engine.executor", "BatchExecutor",
     "run_model_batched", _batched_jobs),
    ("engine.model_stage", "repro.engine.executor", "BatchExecutor",
     "run_model_packed", _packed_jobs),
    ("engine.denoise", "repro.engine.executor", "BatchExecutor",
     "denoise_batch", _denoise_rows),
    ("drc.check", "repro.engine.executor", "BatchExecutor", "check_batch",
     _check_counts),
    ("library.admit", "repro.engine.executor", "BatchExecutor",
     "admit_batch", _admit_counts),
    ("core.select", "repro.core.pipeline", None, "select_representative",
     None),
    ("payload.encode", "repro.service.server", None, "encode_payload",
     _encode_counts),
    ("backend.propose", "repro.engine.backends", "RuleBackend", "propose",
     None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` (idempotent per target)."""
    for name, module_name, class_name, attr, counts in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        current = getattr(owner, attr)
        if getattr(current, "__wrapped_by_perfbench__", False):
            continue
        setattr(owner, attr, tracer.wrap(name, current, counts))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple], window: tuple[float, float]) -> dict:
    """Per-name aggregates of the spans that start inside ``window``.

    Returns ``{"names": {name: {...}}, "uncovered_s", "spans"}`` where
    each name carries ``calls``, ``busy_s`` (outermost spans of that
    name only), ``self_s`` and the summed counts of its spans.
    """
    lo, hi = window
    kept = [s for s in spans if lo <= s[2] < hi]
    by_id = {s[0]: s for s in kept}
    child_time: dict[int, float] = {}
    for span in kept:
        if span[4] in by_id:
            child_time[span[4]] = child_time.get(span[4], 0.0) + (
                span[3] - span[2]
            )

    def has_ancestor_named(span) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] == span[1]:
                return True
            parent = by_id.get(parent[4])
        return False

    names: dict[str, dict] = {}
    for span in kept:
        entry = names.setdefault(
            span[1], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        duration = span[3] - span[2]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time.get(span[0], 0.0)
        if not has_ancestor_named(span):
            entry["busy_s"] += duration
        for key, value in (span[6] or {}).items():
            entry[key] = entry.get(key, 0) + value
    roots = [(s[2], min(s[3], hi)) for s in kept if s[4] not in by_id]
    return {
        "names": names,
        "uncovered_s": max(0.0, (hi - lo) - _union_seconds(roots)),
        "spans": len(kept),
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    """The span-derived per-layer metrics (0 for a layer that never ran)."""
    names = summary["names"]

    def get(name: str, key: str) -> float:
        return float(names.get(name, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    model_evals = get("nn.unet", "rows")
    unet_busy = get("nn.unet", "busy_s")
    sample_busy = get("diffusion.sample", "busy_s")
    stage_busy = get("engine.model_stage", "busy_s")
    packed_jobs = get("engine.model_stage", "packed_jobs")
    checked_hits = get("drc.check", "hits")
    checked_misses = get("drc.check", "misses")
    return {
        "nn.unet.calls": get("nn.unet", "calls"),
        "nn.unet.busy_s": unet_busy,
        "nn.unet.s_per_row_step": ratio(unet_busy, model_evals),
        "nn.unet.self_s": get("nn.unet", "self_s"),
        "nn.resblock.self_s": get("nn.resblock", "self_s"),
        "nn.attention.self_s": get("nn.attention", "self_s"),
        "nn.conv2d.self_s": get("nn.conv2d", "self_s"),
        "nn.gn_silu.self_s": get("nn.gn_silu", "self_s"),
        "nn.groupnorm.self_s": get("nn.groupnorm", "self_s"),
        "diffusion.sample.calls": get("diffusion.sample", "calls"),
        "diffusion.sample.busy_s": sample_busy,
        "diffusion.step_overhead_s": sample_busy - unet_busy,
        "diffusion.model_evals": model_evals,
        "engine.model_stage.busy_s": stage_busy,
        "engine.model_stage.dispatch_s": stage_busy - sample_busy,
        "engine.pack_fill": ratio(packed_jobs, get("engine.model_stage", "slots")),
        "engine.packed_job_share": ratio(
            packed_jobs,
            packed_jobs + get("engine.model_stage", "batched_jobs"),
        ),
        "engine.denoise.busy_s": get("engine.denoise", "busy_s"),
        "engine.denoise.s_per_sample": ratio(
            get("engine.denoise", "busy_s"), get("engine.denoise", "rows")
        ),
        "core.select.calls": get("core.select", "calls"),
        "core.select.busy_s": get("core.select", "busy_s"),
        "drc.check.calls": get("drc.check", "calls"),
        "drc.check.clips": get("drc.check", "clips"),
        "drc.check.busy_s": get("drc.check", "busy_s"),
        "drc.cache_hit_ratio": ratio(
            checked_hits, checked_hits + checked_misses
        ),
        "library.admit.busy_s": get("library.admit", "busy_s"),
        "library.admit_ratio": ratio(
            get("library.admit", "admitted"), get("library.admit", "offered")
        ),
        "payload.encode.busy_s": get("payload.encode", "busy_s"),
        "payload.encode.bytes": get("payload.encode", "bytes"),
        "backend.propose.busy_s": get("backend.propose", "busy_s"),
        "trace.uncovered_s": float(summary["uncovered_s"]),
        "trace.spans": float(summary["spans"]),
    }

