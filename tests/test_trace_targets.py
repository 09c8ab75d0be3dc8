"""Every function the benchmark's tracer wraps, or calls directly, still
exists.

``perfbench/run.py --trace`` wraps a fixed list of functions and methods
(``perfbench/tracing.py``'s ``TARGETS``) by module path and name.  A
rename or deletion in the program would only show when a traced run
fails, so this test resolves each target the way the tracer does.  The
workloads also call a few names directly (``perfbench/loop.py`` and
``perfbench/served.py``); those must keep their call shapes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _load_targets()
    assert targets
    missing = []
    for name, module_name, class_name, attr, _counts in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            label = ".".join(p for p in (module_name, class_name, attr) if p)
            missing.append(f"{name}: {label}")
    assert not missing, f"trace targets that no longer resolve: {missing}"


def test_direct_benchmark_calls_keep_their_shapes():
    from repro.core.pipeline import PatternPaint, PatternPaintConfig
    from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
    from repro.drc import advanced_deck
    from repro.engine import run_generation
    from repro.engine.executor import BatchExecutor, ExecutorConfig
    from repro.geometry import Grid
    from repro.nn import TimeUnet, UNetConfig

    deck = advanced_deck(Grid(nm_per_px=16.0, width_px=16, height_px=16))
    # served.py: one serial executor per deck, closed when done.
    executor = BatchExecutor(deck.engine(), ExecutorConfig())
    executor.close()
    inspect.signature(run_generation).bind(
        object(), backend=object(), executor=executor
    )
    # loop.py: build, run and close a pipeline; check with the cache off.
    config = PatternPaintConfig(
        inpaint=InpaintConfig(num_steps=2), model_batch=64, select_k=20,
        samples_per_iteration=100,
    )
    ddpm = Ddpm(
        TimeUnet(UNetConfig(
            image_size=16, base_channels=8, channel_mults=(1,),
            num_res_blocks=1, groups=4, time_dim=16, seed=0,
        )),
        linear_schedule(4),
    )
    pipeline = PatternPaint(ddpm, deck, config)
    inspect.signature(pipeline.inpaint_batch).bind([], [], object())
    inspect.signature(pipeline.run).bind(
        [], object(), iterations=1, samples_per_iteration=100
    )
    pipeline.engine.cache.clear()
    pipeline.close()
    pipeline.close()
    assert deck.engine().check_batch([], use_cache=False).size == 0
