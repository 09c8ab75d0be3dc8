"""Adapter parity: each backend produces identical clips through the
registry/executor path as through its native API, for a fixed seed.

Model-backed backends use tiny *untrained* models: parity is about wiring
and rng discipline, not sample quality.
"""

import numpy as np
import pytest

from repro.baselines.cup import CupConfig, CupGenerator, CupModel
from repro.baselines.diffpattern import (
    DiffPatternGenerator,
    DiscreteDiffusion,
    DiscreteDiffusionConfig,
    default_diffpattern_unet,
)
from repro.baselines.rule_based import generate_library
from repro.baselines.solver import SolverSettings, SquishLegalizer
from repro.baselines.topologies import random_topology
from repro.core import PatternPaint, PatternPaintConfig
from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
from repro.drc import advanced_deck, basic_deck
from repro.engine import (
    BatchExecutor,
    GenerationRequest,
    get_backend,
)
from repro.geometry import Grid
from repro.nn import TimeUnet, UNetConfig

GRID = Grid(nm_per_px=32.0, width_px=16, height_px=16)
SETTINGS = SolverSettings(max_iter=40, discrete_restarts=1)


@pytest.fixture(scope="module")
def deck():
    return basic_deck(GRID)


def _run_backend(backend, count, seed, deck):
    executor = BatchExecutor(deck.engine())
    request = GenerationRequest(backend=backend.name, count=count, seed=seed, deck=deck)
    return executor.run(request, backend=backend, rng=np.random.default_rng(seed))


def _assert_same_clips(native, engine_clips):
    assert len(native) == len(engine_clips)
    for a, b in zip(native, engine_clips):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestRuleParity:
    def test_matches_generate_library(self, deck):
        native = generate_library(deck, 6, np.random.default_rng(5))
        batch = _run_backend(get_backend("rule", deck=deck), 6, 5, deck)
        _assert_same_clips(native, batch.legal_clips)
        assert batch.attempts == 6
        assert batch.legal.all()


class TestSolverParity:
    def test_matches_manual_loop(self, deck):
        cells = 4
        rng = np.random.default_rng(3)
        legalizer = SquishLegalizer(deck, SETTINGS)
        native = []
        for _ in range(5):
            topology = random_topology(cells, rng)
            result = legalizer.legalize(
                topology,
                width_px=deck.grid.width_px,
                height_px=deck.grid.height_px,
                rng=rng,
            )
            if result.success and result.clip is not None:
                native.append(result.clip)

        backend = get_backend("solver", deck=deck, settings=SETTINGS, cells=cells)
        batch = _run_backend(backend, 5, 3, deck)
        _assert_same_clips(native, batch.legal_clips)
        assert batch.attempts == 5


class TestCupParity:
    def test_matches_native_generator(self, deck):
        model = CupModel(CupConfig(image_size=16, seed=9))
        native_legal, native_attempts, _ = CupGenerator(
            model, deck, SETTINGS
        ).generate(4, np.random.default_rng(7))

        backend = get_backend("cup", deck=deck, settings=SETTINGS, model=model)
        batch = _run_backend(backend, 4, 7, deck)
        _assert_same_clips(native_legal, batch.legal_clips)
        assert batch.attempts == native_attempts


class TestDiffPatternParity:
    def test_matches_native_generator(self, deck):
        diffusion = DiscreteDiffusion(
            default_diffpattern_unet(image_size=16, seed=5),
            DiscreteDiffusionConfig(num_steps=6),
        )
        native_legal, native_attempts, _ = DiffPatternGenerator(
            diffusion, deck, SETTINGS
        ).generate(4, np.random.default_rng(13))

        backend = get_backend(
            "diffpattern", deck=deck, settings=SETTINGS, model=diffusion
        )
        batch = _run_backend(backend, 4, 13, deck)
        _assert_same_clips(native_legal, batch.legal_clips)
        assert batch.attempts == native_attempts


class TestPatternPaintParity:
    @pytest.fixture(scope="class")
    def pipeline_parts(self, deck):
        cfg = UNetConfig(
            image_size=16, base_channels=8, channel_mults=(1,), num_res_blocks=1,
            groups=4, time_dim=8, attention=False, seed=0,
        )
        ddpm = Ddpm(TimeUnet(cfg), linear_schedule(20))
        config = PatternPaintConfig(
            inpaint=InpaintConfig(num_steps=3), variations_per_mask=1
        )
        starters = generate_library(deck, 2, np.random.default_rng(21))
        return ddpm, config, starters

    def test_matches_initial_generation(self, deck, pipeline_parts):
        ddpm, config, starters = pipeline_parts
        pipeline = PatternPaint(ddpm, deck, config)
        library, stats, _ = pipeline.initial_generation(
            starters, np.random.default_rng(4)
        )

        backend = get_backend(
            "patternpaint", deck=deck, ddpm=ddpm, config=config
        )
        request = GenerationRequest(
            backend="patternpaint",
            count=stats.generated,  # starters x 10 masks x 1 variation
            seed=4,
            deck=deck,
            templates=tuple(starters),
        )
        batch = BatchExecutor(deck.engine()).run(
            request, backend=backend, rng=np.random.default_rng(4)
        )
        assert batch.attempts == stats.generated
        assert batch.legal_count == stats.legal
        assert len(batch.library) == len(library)
        for a, b in zip(library, batch.library):
            np.testing.assert_array_equal(a, b)


class TestPipelinePoolDeterminism:
    """The full pipeline is seed-stable: a second fresh pipeline, whose
    DRC cache is already warm (``DrcCache.for_engine`` shares one store
    per deck fingerprint), matches a cold one."""

    def test_pooled_run_matches_serial_run(self, deck, ):
        cfg = UNetConfig(
            image_size=16, base_channels=8, channel_mults=(1,), num_res_blocks=1,
            groups=4, time_dim=8, attention=False, seed=2,
        )
        starters = generate_library(advanced_deck(GRID), 2, np.random.default_rng(8))

        config = PatternPaintConfig(
            inpaint=InpaintConfig(num_steps=3),
            variations_per_mask=1,
            samples_per_iteration=4,
            select_k=2,
        )

        def run():
            ddpm = Ddpm(TimeUnet(cfg), linear_schedule(20))
            pipeline = PatternPaint(ddpm, advanced_deck(GRID), config)
            return pipeline.run(starters, np.random.default_rng(6), iterations=1)

        serial = run()
        pooled = run()  # same deck fingerprint: the DRC cache is warm
        assert len(serial.library) == len(pooled.library)
        for a, b in zip(serial.library, pooled.library):
            np.testing.assert_array_equal(a, b)
        assert [s.generated for s in serial.stats] == [
            s.generated for s in pooled.stats
        ]
        assert [s.legal for s in serial.stats] == [s.legal for s in pooled.stats]
