"""Result-cache naming of the cached PatternPaint runs (no model runs)."""

import numpy as np
import pytest

from repro.core.pipeline import GenerationStats
from repro.experiments import runs
from repro.experiments.common import ModelRun, results_dir, save_model_run


def _no_model(name):
    raise AssertionError("cache miss: the run would sample a model")


class TestRunCacheName:
    def test_budget_below_one_variation_hits_the_generated_count(
        self, tmp_path, monkeypatch
    ):
        """init_budget=50 floors to one variation per mask: 20 starters
        x 10 masks = 200 samples, so the run caches as ``-i200-``."""
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        clip = np.zeros((8, 8), dtype=np.uint8)
        seeded = ModelRun(
            name="sd1-ft",
            stats=[GenerationStats(label="init", generated=200)],
            library=[clip],
        )
        save_model_run(
            seeded,
            results_dir() / f"run-{runs._CACHE_REV}-sd1-ft-i200-r6-t125-s0.npz",
        )
        monkeypatch.setattr(runs, "_load_model", _no_model)
        loaded = runs.patternpaint_run("sd1-ft", init_budget=50)
        assert loaded.init_stats.generated == 200
        assert len(loaded.library) == 1

    @pytest.mark.parametrize("budget, generated", [(200, 200), (600, 600)])
    def test_whole_variations_keep_their_budget(
        self, tmp_path, monkeypatch, budget, generated
    ):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        seeded = ModelRun(name="sd2-ft", stats=[GenerationStats(label="init")])
        save_model_run(
            seeded,
            results_dir()
            / f"run-{runs._CACHE_REV}-sd2-ft-i{generated}-r1-t10-s0.npz",
        )
        monkeypatch.setattr(runs, "_load_model", _no_model)
        loaded = runs.patternpaint_run(
            "sd2-ft", init_budget=budget, iterations=1, iter_budget=10
        )
        assert loaded.name == "sd2-ft"
