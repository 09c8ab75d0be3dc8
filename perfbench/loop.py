"""Workload ``loop-sd1ft``: the paper's Fig. 4 loop, in process.

``PatternPaint.run`` with the pinned ``sd1-ft`` checkpoint on the
advanced deck: 10 starters x all 10 masks, then one PCA-seeded
iterative round of 100 samples, with the settings of
``repro.experiments.runs`` (20 DDIM steps, ``model_batch=64``) and the
default executor.  No service code runs.

One loop is the unit of work (the "request").  The measured phase runs
whole loops back to back for as long as the next loop is expected to end
within ``--seconds``; at least one runs, so a run measures one loop
(~30 s on a 2-core host) even when ``--seconds`` is shorter.  A traced
run measures one untraced and one traced phase of ``--seconds / 2``
each, so one loop each.

The loop's input is fixed: it always samples from the generator the
paper runs use for seed 0 (``LOOP_SEED``), and ``--seed`` does not
change it.  Over ten seeds the 200-clip loop's legality ranged from 0.34
to 0.47 (quartile spread ~20% of the median), wider than any usable
bound, and a longer loop does not fit a run.  With a fixed input every
run repeats one deterministic computation: the time metrics measure the
host and the program, and legality, diversity and the library digest
must repeat exactly.
"""

from __future__ import annotations

import hashlib
import time

from common import BenchError, median, peak_rss_mb, remembered, source_digest, tail_percentile

STARTERS = 10
ITER_SAMPLES = 100
NUM_STEPS = 20
MODEL_BATCH = 64
SETUPS = 5
#: ``repro.experiments.runs`` seeds its loops with ``10_000 + seed``.
LOOP_SEED = 0


def _config():
    from repro.core.pipeline import PatternPaintConfig
    from repro.diffusion.inpaint import InpaintConfig

    return PatternPaintConfig(
        inpaint=InpaintConfig(num_steps=NUM_STEPS),
        model_batch=MODEL_BATCH,
        select_k=20,
        samples_per_iteration=ITER_SAMPLES,
    )


def _setup(deck, starters):
    """Launch to first servable state: load the checkpoint, build the
    pipeline, sample one warm-up job.  Returns ``(seconds, pipeline)``."""
    import numpy as np

    from repro.core.masks import all_masks
    from repro.core.pipeline import PatternPaint
    from repro.zoo.artifacts import finetuned

    t0 = time.monotonic()
    pipeline = PatternPaint(finetuned("sd1"), deck, _config())
    mask = all_masks(pipeline.clip_shape)[0].mask
    pipeline.inpaint_batch([starters[0]], [mask], np.random.default_rng(0))
    return time.monotonic() - t0, pipeline


def _library_digest(clips) -> str:
    from repro.geometry.hashing import pattern_hash

    digest = hashlib.sha256()
    for clip in clips:
        digest.update(pattern_hash(clip).encode())
    return digest.hexdigest()


def _run_loops(pipeline, starters, seconds: float) -> dict:
    import numpy as np

    loops = []
    t_start = time.monotonic()
    while True:
        # Each loop checks its clips as a fresh process would: a repeat
        # must not be served from the previous loop's verdicts.
        pipeline.engine.cache.clear()
        t0 = time.monotonic()
        result = pipeline.run(
            starters,
            np.random.default_rng(10_000 + LOOP_SEED),
            iterations=1,
            samples_per_iteration=ITER_SAMPLES,
        )
        wall = time.monotonic() - t0
        loops.append({
            "wall_s": wall,
            "generated": result.total_generated,
            "legal": result.total_legal,
            "admitted": sum(s.admitted for s in result.stats),
            "h2": result.stats[-1].h2,
            "digest": _library_digest(result.library.clips),
            "library": list(result.library.clips),
            "stages": [
                {
                    "generated": s.generated,
                    "inpaint_s": s.inpaint_seconds,
                    "denoise_s": s.denoise_seconds,
                    "drc_s": s.drc_seconds,
                }
                for s in result.stats
            ],
        })
        elapsed = time.monotonic() - t_start
        if elapsed + wall > seconds:
            break
    return {"window": (t_start, time.monotonic()), "loops": loops}


def _check(phase: dict, deck) -> None:
    """Every loop builds the same library, and every admitted clip passes
    an uncached DRC check."""
    digests = {loop["digest"] for loop in phase["loops"]}
    if len(digests) != 1:
        raise BenchError(f"loop libraries differ across repeats: {digests}")
    digest = digests.pop()
    key = (
        f"loop-sd1ft:{source_digest()}:seed={LOOP_SEED}:starters={STARTERS}:"
        f"iter={ITER_SAMPLES}:steps={NUM_STEPS}"
    )
    previous = remembered(key, digest)
    if previous is not None and previous != digest:
        raise BenchError(
            f"the loop built library {digest[:12]}, an earlier run of the "
            f"same sources built {previous[:12]}"
        )
    library = phase["loops"][0]["library"]
    if not library:
        raise BenchError("the loop admitted no clips")
    verdicts = deck.engine().check_batch(library, use_cache=False)
    if not verdicts.all():
        raise BenchError(
            f"{int((~verdicts).sum())} admitted clips fail an uncached DRC check"
        )


def _end_to_end(phase: dict, setups: list[float], wire_bytes_per_clip: float,
                rss: float) -> tuple[dict, float]:
    loops = phase["loops"]
    wall = sum(loop["wall_s"] for loop in loops)
    generated = sum(loop["generated"] for loop in loops)
    tail_pct, tail = tail_percentile([loop["wall_s"] for loop in loops])
    return {
        "setup_s": median(setups),
        "clips_per_s": generated / wall,
        "legal_unique_per_s": sum(loop["admitted"] for loop in loops) / wall,
        "legality_rate": sum(loop["legal"] for loop in loops) / generated,
        "diversity_h2": median(loop["h2"] for loop in loops),
        "latency_p50_s": median(loop["wall_s"] for loop in loops),
        "latency_tail_s": tail,
        "wire_bytes_per_clip": wire_bytes_per_clip,
        "peak_rss_mb": rss,
    }, tail_pct


def _table2(phase: dict) -> dict:
    """Per-sample seconds per stage (Table II columns), whole phase."""
    total: dict[str, float] = {"generated": 0, "inpaint_s": 0.0,
                               "denoise_s": 0.0, "drc_s": 0.0}
    for loop in phase["loops"]:
        for stage in loop["stages"]:
            for key in total:
                total[key] += stage[key]
    n = max(total.pop("generated"), 1)
    return {f"{key[:-2]}_s_per_sample": value / n for key, value in total.items()}


def run(args, workdir) -> dict:
    from repro.service.payload import encode_payload
    from repro.zoo.corpora import experiment_deck, starter_patterns

    deck = experiment_deck()
    starters = starter_patterns(20)[:STARTERS]
    setups = []
    pipeline = None
    for _ in range(SETUPS):
        if pipeline is not None:
            pipeline.close()
        took, pipeline = _setup(deck, starters)
        setups.append(took)
    accounting = {"warmup": {"sent": SETUPS, "succeeded": SETUPS, "failed": 0}}

    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        measured = _run_loops(pipeline, starters, seconds)
        rss = peak_rss_mb()
        traced = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = _run_loops(pipeline, starters, seconds)
            traced["spans"] = tracer.spans
    finally:
        pipeline.close()

    _check(measured, deck)
    library = measured["loops"][0]["library"]
    _, data = encode_payload(library, "npz")
    metrics, tail_pct = _end_to_end(
        measured, setups, len(data) / len(library), rss
    )
    n = len(measured["loops"])
    accounting["measured"] = {"sent": n, "succeeded": n, "failed": 0}
    detail = {
        "loops": n,
        "clips_per_loop": measured["loops"][0]["generated"],
        "library_size": len(library),
        "library_digest": measured["loops"][0]["digest"],
        "latency_tail_percentile": tail_pct,
        "setups_s": setups,
        "loop_walls_s": [loop["wall_s"] for loop in measured["loops"]],
        "table2": _table2(measured),
    }
    result = {"metrics": metrics, "attempted": n, "failed": 0,
              "accounting": accounting, "detail": detail}
    if traced is not None:
        _check(traced, deck)
        nt = len(traced["loops"])
        accounting["traced"] = {"sent": nt, "succeeded": nt, "failed": 0}
        untraced_s_per_clip = median(
            loop["wall_s"] / loop["generated"] for loop in measured["loops"]
        )
        traced_s_per_clip = median(
            loop["wall_s"] / loop["generated"] for loop in traced["loops"]
        )
        result["traced"] = {
            "spans": traced["spans"],
            "window": traced["window"],
            "attempted": nt,
            "wall_s": sum(loop["wall_s"] for loop in traced["loops"]),
            "overhead_ratio": traced_s_per_clip / untraced_s_per_clip,
            "table2": _table2(traced),
        }
    return result
