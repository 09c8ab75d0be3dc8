"""Model-stage fan-out and the executor's persistent worker pools."""

import numpy as np
import pytest

from repro.core import PatternPaint, PatternPaintConfig
from repro.diffusion import Ddpm, InpaintConfig, inpaint, linear_schedule
from repro.drc import basic_deck
from repro.engine import BatchExecutor, ExecutorConfig
from repro.engine.modelpool import (
    InpaintModelSpec,
    publish_model,
    run_inpaint_chunk,
)
from repro.geometry import Grid
from repro.nn import TimeUnet, UNetConfig, inference_mode

GRID = Grid(nm_per_px=32.0, width_px=16, height_px=16)

TINY = UNetConfig(
    image_size=16, base_channels=8, channel_mults=(1,), num_res_blocks=1,
    groups=4, time_dim=8, attention=False, seed=5,
)


@pytest.fixture(scope="module")
def deck():
    return basic_deck(GRID)


@pytest.fixture(scope="module")
def ddpm():
    return Ddpm(TimeUnet(TINY), linear_schedule(20))


@pytest.fixture(scope="module")
def jobs16():
    rng = np.random.default_rng(2)
    templates = [
        rng.integers(0, 2, (16, 16)).astype(np.uint8) for _ in range(8)
    ]
    mask = np.zeros((16, 16), dtype=bool)
    mask[:, 8:] = True
    return templates, [mask] * 8


class TestPublishRehydrate:
    def test_publish_is_content_addressed(self, ddpm, tmp_path):
        a = publish_model(ddpm.model, tmp_path)
        b = publish_model(ddpm.model, tmp_path)
        assert a == b
        other = TimeUnet(UNetConfig(**{**TINY.__dict__, "seed": 6}))
        assert publish_model(other, tmp_path) != a

    def test_worker_chunk_matches_direct_inpaint(self, ddpm, jobs16, tmp_path):
        templates, masks = jobs16
        config = InpaintConfig(num_steps=3)
        spec = InpaintModelSpec(
            checkpoint=publish_model(ddpm.model, tmp_path),
            betas=np.ascontiguousarray(ddpm.schedule.betas).tobytes(),
            config=config,
        )
        out = run_inpaint_chunk(
            spec, templates[:4], masks[:4], np.random.default_rng(1)
        )
        known = (np.stack(templates[:4]).astype(np.float32) * 2.0 - 1.0)[:, None]
        with inference_mode(ddpm.model):
            ref = inpaint(
                ddpm.model, ddpm.schedule, known, masks[0],
                np.random.default_rng(1), config,
            )
        for got, want in zip(out, ref[:, 0]):
            np.testing.assert_array_equal(
                got.view(np.uint32), want.view(np.uint32)
            )


class TestPooledModelStage:
    def _run(self, ddpm, deck, jobs16, model_jobs):
        templates, masks = jobs16
        pipeline = PatternPaint(
            ddpm,
            deck,
            PatternPaintConfig(
                inpaint=InpaintConfig(num_steps=3),
                model_batch=2,  # 8 jobs -> 4 chunks
                model_jobs=model_jobs,
            ),
        )
        with pipeline:
            return pipeline.inpaint_batch(
                templates, masks, np.random.default_rng(9)
            )

    def test_pooled_bit_identical_to_serial(self, ddpm, deck, jobs16):
        """Satellite: pooled-vs-serial run_model_batched determinism."""
        serial, _ = self._run(ddpm, deck, jobs16, model_jobs=1)
        pooled, _ = self._run(ddpm, deck, jobs16, model_jobs=2)
        assert len(serial) == len(pooled)
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestPersistentPools:
    def test_thread_pool_reused_across_calls(self, deck):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        )
        raws = [np.zeros((16, 16), dtype=np.float32) for _ in range(4)]
        executor.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        first = executor.pools.get(("thread", 2))
        assert first is not None
        executor.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        assert executor.pools.get(("thread", 2)) is first
        executor.close()
        assert not executor.pools

    def test_stage_pools_sized_independently(self, deck):
        """The model stage must not widen the denoise/DRC worker bound."""
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread", model_jobs=6)
        )
        raws = [np.zeros((16, 16), dtype=np.float32) for _ in range(4)]
        executor.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        lease = executor.pools[("thread", 2)]
        assert lease.pool._max_workers == 2
        executor.close()

    def test_context_manager_closes(self, deck):
        with BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        ) as executor:
            executor.denoise_batch(
                [np.zeros((16, 16), dtype=np.float32)] * 4,
                [None] * 4,
                np.random.default_rng(0),
            )
            assert executor.pools
        assert not executor.pools

    def test_closed_executor_reopens_lazily(self, deck):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        )
        raws = [np.zeros((16, 16), dtype=np.float32) for _ in range(4)]
        executor.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        executor.close()
        clips, _ = executor.denoise_batch(
            raws, [None] * 4, np.random.default_rng(0)
        )
        assert len(clips) == 4
        executor.close()

    def test_model_jobs_config_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(model_jobs=0)

    def test_check_batch_uses_persistent_pool(self, deck):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread", use_cache=False)
        )
        clips = [
            np.random.default_rng(i).integers(0, 2, (16, 16)).astype(np.uint8)
            for i in range(6)
        ]
        mask, _ = executor.check_batch(clips)
        assert executor.pools.get(("thread", 2)) is not None
        serial = [deck.engine().is_clean(c) for c in clips]
        assert list(mask) == serial
        executor.close()
