"""The paper's legality claims on real samples from the pinned model.

The committed benchmark checkpoint (``perfbench/model``, read only) lets
tier-1 inpaint with a trained ``sd1-ft`` model without training one.  Six
starters x all ten masks are inpainted once at the served default
sampler settings (``PatternPaintConfig().inpaint``), and two claims are
checked on the outputs:

* template denoising makes far more clips legal than raw binarisation
  (Table III);
* legality after template denoising clears a floor taken from the
  sampler step sweep (``docs/EXPERIMENTS.md``, "Sampler steps").
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import PatternPaint, PatternPaintConfig
from repro.diffusion import Ddpm, linear_schedule
from repro.geometry.raster import validate_clip
from repro.nn import TimeUnet
from repro.nn.serialize import load_into
from repro.zoo.artifacts import model_config
from repro.zoo.corpora import experiment_deck, starter_patterns

PINNED_WEIGHTS = (
    Path(__file__).resolve().parents[2] / "perfbench" / "model"
    / "finetuned-sd1-32.npz"
)
STARTERS = 6

#: The step sweep's lowest per-seed ``sd1-ft`` legality at 8 or more
#: steps (64 of 200, 0.32), less one binomial standard deviation of these
#: 60 samples (0.06), rounded down.
LEGALITY_FLOOR = 0.25


@pytest.fixture(scope="module")
def outcome():
    """``(generated, template-legal, raw-legal)`` of one initial round."""
    net = TimeUnet(model_config("sd1", 32))
    load_into(net, PINNED_WEIGHTS)
    deck = experiment_deck()
    pipeline = PatternPaint(
        Ddpm(net, linear_schedule(250)), deck, PatternPaintConfig(keep_raw=True)
    )
    _, stats, raw_pairs = pipeline.initial_generation(
        starter_patterns(20)[:STARTERS], np.random.default_rng(0)
    )
    raw_clips = [validate_clip(raw) for raw, _ in raw_pairs]
    raw_legal = int(deck.engine().check_batch(raw_clips, use_cache=False).sum())
    return stats.generated, stats.legal, raw_legal


class TestPinnedModelClaims:
    def test_template_denoise_beats_raw_binarisation(self, outcome):
        generated, legal, raw_legal = outcome
        assert generated == STARTERS * 10
        assert legal > 5 * max(raw_legal, 1)

    def test_legality_clears_sweep_floor(self, outcome):
        generated, legal, _ = outcome
        assert legal / generated >= LEGALITY_FLOOR
