"""Table II benchmark: per-sample runtime of the competing pipelines.

Times the three operations directly (inpainting, template denoising,
DiffPattern sampling+legalization) with pytest-benchmark, and renders
Table II from the cached experiment runs.  Reproduction target: denoise <<
inpaint << DiffPattern (paper: 0.21 s / 0.81 s / 38 s on their hardware).
"""

import numpy as np
import pytest

from repro.baselines.diffpattern import DiffPatternGenerator
from repro.baselines.solver import SolverSettings
from repro.core.pipeline import PatternPaint, PatternPaintConfig
from repro.core.template_denoise import template_denoise
from repro.diffusion.inpaint import InpaintConfig
from repro.experiments import format_table2, run_table2
from repro.zoo import (
    diffpattern_model,
    experiment_deck,
    finetuned,
    starter_patterns,
)

from .conftest import report


@pytest.fixture(scope="module")
def deck():
    return experiment_deck()


@pytest.fixture(scope="module")
def starter():
    return starter_patterns(1)[0]


class TestTable2:
    def test_table2_report(self, benchmark):
        rows = benchmark.pedantic(
            lambda: run_table2(use_cache=True), rounds=1, iterations=1
        )
        report("Table II", format_table2(rows))
        by_name = {r.method: r.avg_runtime_s for r in rows}
        denoise = by_name["PatternPaint (Denoising)"]
        inpaint = by_name["PatternPaint (Inpainting)"]
        diffpattern = by_name["DiffPattern"]
        assert denoise < inpaint < diffpattern

    def test_bench_inpaint_one_sample(self, benchmark, deck, starter):
        pipeline = PatternPaint(
            finetuned("sd1"),
            deck,
            PatternPaintConfig(inpaint=InpaintConfig(), model_batch=8),
        )
        mask = np.zeros(starter.shape, dtype=bool)
        mask[: starter.shape[0] // 2, : starter.shape[1] // 2] = True
        rng = np.random.default_rng(0)

        def one_sample():
            pipeline.inpaint_batch([starter], [mask], rng)

        benchmark.pedantic(one_sample, rounds=3, iterations=1)

    def test_bench_template_denoise_one_sample(self, benchmark, starter):
        rng = np.random.default_rng(0)
        noisy = starter.astype(np.float32) * 2 - 1
        noisy += rng.normal(0, 0.4, size=noisy.shape).astype(np.float32)

        benchmark.pedantic(
            lambda: template_denoise(noisy, starter), rounds=10, iterations=1
        )

    def test_bench_diffpattern_one_sample(self, benchmark, deck):
        generator = DiffPatternGenerator(
            diffpattern_model(), deck,
            SolverSettings(max_iter=120, discrete_restarts=3),
        )
        rng = np.random.default_rng(0)
        benchmark.pedantic(
            lambda: generator.generate(1, rng), rounds=2, iterations=1
        )
