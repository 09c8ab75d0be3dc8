"""BatchExecutor behavior: pooling determinism, caching, chunking,
close safety, and the staged plan/execute/finalize API."""

import threading

import numpy as np
import pytest

from repro.baselines.rule_based import TrackGeneratorConfig, TrackPatternGenerator
from repro.core.library import PatternLibrary
from repro.drc import advanced_deck
from repro.engine import (
    BatchExecutor,
    ExecutorConfig,
    GenerationRequest,
    get_backend,
    run_generation,
)
from repro.geometry import Grid

GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)


@pytest.fixture(scope="module")
def deck():
    return advanced_deck(GRID)


@pytest.fixture(scope="module")
def clips(deck):
    generator = TrackPatternGenerator(TrackGeneratorConfig(deck=deck))
    return generator.sample_many(8, np.random.default_rng(0))


@pytest.fixture(scope="module")
def noisy_raws(clips):
    """Synthetic 'model outputs': legal clips in [-1, 1] with edge jitter."""
    rng = np.random.default_rng(1)
    raws = []
    for clip in clips:
        raw = clip.astype(np.float32) * 2.0 - 1.0
        raw += rng.normal(0.0, 0.35, size=raw.shape).astype(np.float32)
        raws.append(np.clip(raw, -1.0, 1.0))
    return raws


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(model_batch=0)
        with pytest.raises(ValueError):
            ExecutorConfig(jobs=0)
        with pytest.raises(ValueError):
            ExecutorConfig(pool="fiber")


class TestPostprocess:
    def test_counts_and_legality(self, deck, clips, noisy_raws):
        executor = BatchExecutor(deck.engine())
        library = PatternLibrary()
        result = executor.postprocess(
            noisy_raws, list(clips), np.random.default_rng(2), library=library
        )
        assert len(result.clips) == len(clips)
        assert result.legal.shape == (len(clips),)
        engine = deck.engine()
        expected = [engine.is_clean(c) for c in result.clips]
        assert list(result.legal) == expected
        assert result.admitted == len(library)
        assert all(engine.is_clean(c) for c in library)

    def test_binary_candidates_skip_denoise(self, deck, clips):
        executor = BatchExecutor(deck.engine())
        result = executor.postprocess(
            list(clips), [None] * len(clips), np.random.default_rng(0)
        )
        # Rule-generated clips are DR-clean by construction and unchanged.
        assert result.legal.all()
        for before, after in zip(clips, result.clips):
            np.testing.assert_array_equal(before, after)

    def test_empty_batch(self, deck):
        executor = BatchExecutor(deck.engine())
        result = executor.postprocess([], [], np.random.default_rng(0))
        assert result.clips == []
        assert result.legal.size == 0


class TestPoolDeterminism:
    """Satellite: rng.spawn() per job => pooled == serial, bit for bit."""

    def _run(self, deck, noisy_raws, clips, jobs, pool="thread"):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=jobs, pool=pool)
        )
        library = PatternLibrary()
        result = executor.postprocess(
            noisy_raws, list(clips), np.random.default_rng(7), library=library
        )
        return result, library

    def test_thread_pool_matches_serial(self, deck, clips, noisy_raws):
        serial, lib_serial = self._run(deck, noisy_raws, clips, jobs=1)
        pooled, lib_pooled = self._run(deck, noisy_raws, clips, jobs=4)
        assert len(serial.clips) == len(pooled.clips)
        for a, b in zip(serial.clips, pooled.clips):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(serial.legal, pooled.legal)
        assert len(lib_serial) == len(lib_pooled)
        for a, b in zip(lib_serial, lib_pooled):
            np.testing.assert_array_equal(a, b)

    def test_process_pool_matches_serial(self, deck, clips, noisy_raws):
        serial, _ = self._run(deck, noisy_raws[:4], clips[:4], jobs=1)
        pooled, _ = self._run(
            deck, noisy_raws[:4], clips[:4], jobs=2, pool="process"
        )
        for a, b in zip(serial.clips, pooled.clips):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(serial.legal, pooled.legal)


class TestCaching:
    def test_repeated_clips_hit_cache(self, deck, clips):
        executor = BatchExecutor(deck.engine())
        first, _ = executor.check_batch(list(clips))
        hits_before = executor.engine.cache.hits
        second, _ = executor.check_batch(list(clips))
        np.testing.assert_array_equal(first, second)
        assert executor.engine.cache.hits >= hits_before + len(clips)

    def test_run_reports_cache_counters(self, deck):
        backend = get_backend("rule", deck=deck)
        executor = BatchExecutor(deck.engine())
        request = GenerationRequest(backend="rule", count=4, seed=11, deck=deck)
        first = executor.run(request, backend=backend)
        second = executor.run(request, backend=backend)
        assert first.attempts == second.attempts == 4
        # Same seed => same clips => the second pass is all cache hits.
        assert second.cache_hits >= len(second.clips)
        assert second.cache_misses == 0
        for a, b in zip(first.clips, second.clips):
            np.testing.assert_array_equal(a, b)


class TestModelBatching:
    def test_chunk_sizes(self, deck):
        executor = BatchExecutor(deck.engine(), ExecutorConfig(model_batch=3))
        seen: list[int] = []

        def model_fn(chunk_t, chunk_m, rng):
            seen.append(len(chunk_t))
            return [t.astype(np.float32) for t in chunk_t]

        items = [np.zeros((4, 4), dtype=np.uint8)] * 8
        outputs, seconds = executor.run_model_batched(
            model_fn, items, items, np.random.default_rng(0)
        )
        assert seen == [3, 3, 2]
        assert len(outputs) == 8
        assert seconds >= 0.0

    def test_mismatched_lengths_rejected(self, deck):
        executor = BatchExecutor(deck.engine())
        with pytest.raises(ValueError):
            executor.run_model_batched(
                lambda t, m, r: t,
                [np.zeros((4, 4))],
                [],
                np.random.default_rng(0),
            )


class TestPersistentPools:
    def test_thread_pool_reused_across_calls(self, deck, clips):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        )
        executor.denoise_batch(
            clips, [None] * len(clips), np.random.default_rng(0)
        )
        first = executor.pools.get(("thread", 2))
        assert first is not None
        executor.denoise_batch(
            clips, [None] * len(clips), np.random.default_rng(0)
        )
        assert executor.pools.get(("thread", 2)) is first
        executor.close()
        assert not executor.pools

    def test_context_manager_closes(self, deck, clips):
        with BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        ) as executor:
            executor.denoise_batch(
                clips, [None] * len(clips), np.random.default_rng(0)
            )
            assert executor.pools
        assert not executor.pools

    def test_closed_executor_reopens_lazily(self, deck, clips):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        )
        executor.denoise_batch(
            clips, [None] * len(clips), np.random.default_rng(0)
        )
        executor.close()
        out, _ = executor.denoise_batch(
            clips, [None] * len(clips), np.random.default_rng(0)
        )
        assert len(out) == len(clips)
        executor.close()

    def test_check_batch_uses_persistent_pool(self, deck):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread", use_cache=False)
        )
        clips = [
            np.random.default_rng(i).integers(0, 2, (32, 32)).astype(np.uint8)
            for i in range(6)
        ]
        mask, _ = executor.check_batch(clips)
        assert executor.pools.get(("thread", 2)) is not None
        serial = [deck.engine().is_clean(c) for c in clips]
        assert list(mask) == serial
        executor.close()


class TestCloseSafety:
    """Satellite: close() is idempotent and safe under concurrent callers."""

    def test_double_close_does_not_raise(self, deck, clips):
        executor = BatchExecutor(deck.engine(), ExecutorConfig(jobs=2))
        executor.check_batch(list(clips))  # materialise a pool
        executor.close()
        executor.close()

    def test_close_never_used_executor(self, deck):
        BatchExecutor(deck.engine()).close()

    def test_concurrent_close_callers(self, deck, clips):
        executor = BatchExecutor(deck.engine(), ExecutorConfig(jobs=2))
        executor.check_batch(list(clips))
        errors: list[BaseException] = []

        def closer():
            try:
                executor.close()
            except BaseException as error:  # noqa: BLE001 - test capture
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_close_while_running_then_reuse(self, deck, clips, noisy_raws):
        executor = BatchExecutor(deck.engine(), ExecutorConfig(jobs=2))
        stop = threading.Event()
        errors: list[BaseException] = []

        def hammer():
            try:
                while not stop.is_set():
                    executor.postprocess(
                        list(noisy_raws), list(clips), np.random.default_rng(3)
                    )
            except BaseException as error:  # noqa: BLE001 - test capture
                errors.append(error)

        worker = threading.Thread(target=hammer)
        worker.start()
        for _ in range(5):
            executor.close()  # racing live postprocess calls
        stop.set()
        worker.join()
        executor.close()
        assert errors == []
        # A closed executor lazily re-creates pools when used again.
        mask, _ = executor.check_batch(list(clips))
        assert mask.shape == (len(clips),)
        executor.close()

    def test_pipeline_close_propagates_to_owned_executor(self, deck, monkeypatch):
        from repro.core.pipeline import PatternPaint
        from repro.diffusion import Ddpm, linear_schedule
        from repro.nn import TimeUnet, UNetConfig

        ddpm = Ddpm(
            TimeUnet(UNetConfig(
                image_size=16, base_channels=8, channel_mults=(1,),
                num_res_blocks=1, groups=4, time_dim=16, seed=0,
            )),
            linear_schedule(16),
        )
        pipeline = PatternPaint(ddpm, deck)
        calls = []
        monkeypatch.setattr(
            pipeline.executor, "close", lambda: calls.append("owned")
        )
        pipeline.close()
        assert calls == ["owned"]

    def test_pipeline_leaves_shared_executor_open(self, deck, monkeypatch):
        from repro.core.pipeline import PatternPaint
        from repro.diffusion import Ddpm, linear_schedule
        from repro.nn import TimeUnet, UNetConfig

        shared = BatchExecutor(deck.engine())
        ddpm = Ddpm(
            TimeUnet(UNetConfig(
                image_size=16, base_channels=8, channel_mults=(1,),
                num_res_blocks=1, groups=4, time_dim=16, seed=0,
            )),
            linear_schedule(16),
        )
        pipeline = PatternPaint(ddpm, deck, executor=shared)
        calls = []
        monkeypatch.setattr(shared, "close", lambda: calls.append("shared"))
        pipeline.close()
        assert calls == []  # the owner closes shared executors
        assert pipeline.executor is shared

    def test_pipeline_rejects_mismatched_shared_executor(self, deck):
        from repro.core.pipeline import PatternPaint, PatternPaintConfig
        from repro.diffusion import Ddpm, linear_schedule
        from repro.nn import TimeUnet, UNetConfig

        shared = BatchExecutor(deck.engine(), ExecutorConfig(model_batch=8))
        ddpm = Ddpm(
            TimeUnet(UNetConfig(
                image_size=16, base_channels=8, channel_mults=(1,),
                num_res_blocks=1, groups=4, time_dim=16, seed=0,
            )),
            linear_schedule(16),
        )
        # model_batch changes rng chunking => seeded outputs; refuse it.
        with pytest.raises(ValueError, match="model_batch"):
            PatternPaint(
                ddpm, deck, PatternPaintConfig(model_batch=32),
                executor=shared,
            )


class TestStagedApi:
    """plan/execute/finalize compose to exactly what run() produces."""

    def test_staged_matches_run(self, deck):
        backend = get_backend("rule", deck=deck)
        request = GenerationRequest(backend="rule", count=6, seed=13, deck=deck)
        monolithic = BatchExecutor(deck.engine()).run(request, backend=backend)

        executor = BatchExecutor(deck.engine())
        plan = executor.plan(request, backend=backend)
        proposal = executor.execute(plan)
        assert plan.proposal is proposal
        staged = executor.finalize(plan)

        assert staged.attempts == monolithic.attempts
        for a, b in zip(monolithic.clips, staged.clips):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(monolithic.legal, staged.legal)
        assert staged.admitted == monolithic.admitted
        assert len(staged.library) == len(monolithic.library)

    def test_finalize_before_execute_rejected(self, deck):
        executor = BatchExecutor(deck.engine())
        plan = executor.plan(
            GenerationRequest(backend="rule", count=2, seed=0, deck=deck)
        )
        with pytest.raises(ValueError, match="not been executed"):
            executor.finalize(plan)

    def test_plan_resolves_backend_and_library(self, deck):
        executor = BatchExecutor(deck.engine())
        plan = executor.plan(
            GenerationRequest(backend="rule", count=2, seed=0, deck=deck)
        )
        assert plan.backend.name == "rule"
        assert len(plan.library) == 0
        assert plan.proposal is None


class TestRunGeneration:
    def test_one_call_entry_point(self, deck):
        batch = run_generation(
            GenerationRequest(backend="rule", count=5, seed=1, deck=deck),
            jobs=2,
        )
        assert batch.backend == "rule"
        assert batch.attempts == 5
        assert batch.legal.all()
        assert batch.legality_rate == 1.0
        assert len(batch.library) <= 5
        assert batch.timings.total_seconds > 0.0


class TestSharedPoolRegistry:
    """Tentpole: one PoolRegistry backing several executors."""

    def test_executors_share_one_pool_per_shape(self, deck):
        from repro.engine import PoolRegistry

        registry = PoolRegistry()
        first = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread"),
            pools=registry,
        )
        second = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread"),
            pools=registry,
        )
        raws = [np.zeros((32, 32), dtype=np.float32) for _ in range(4)]
        first.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        second.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        assert len(registry) == 1  # one ("thread", 2) pool between them
        lease = registry[("thread", 2)]
        assert registry.get(("thread", 2)) is lease
        registry.close()
        assert not registry

    def test_executor_close_leaves_shared_registry_alone(self, deck):
        from repro.engine import PoolRegistry

        registry = PoolRegistry()
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread"),
            pools=registry,
        )
        raws = [np.zeros((32, 32), dtype=np.float32) for _ in range(4)]
        executor.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        executor.close()  # shared registry: must NOT shut the pool down
        assert ("thread", 2) in registry
        # The pool is still usable by another lease after the close.
        clips, _ = executor.denoise_batch(
            raws, [None] * 4, np.random.default_rng(0)
        )
        assert len(clips) == 4
        registry.close()

    def test_owned_registry_still_closed_by_executor(self, deck):
        executor = BatchExecutor(
            deck.engine(), ExecutorConfig(jobs=2, pool="thread")
        )
        raws = [np.zeros((32, 32), dtype=np.float32) for _ in range(4)]
        executor.denoise_batch(raws, [None] * 4, np.random.default_rng(0))
        assert executor.pools
        executor.close()
        assert not executor.pools

    def test_concurrent_executors_on_shared_pools_match_serial(self, deck):
        """Two threads driving two executors over one registry produce
        the same clips as the serial single-executor path."""
        from repro.engine import PoolRegistry

        rng_seed = 7
        raws = [
            np.random.default_rng(rng_seed + i).uniform(
                -1, 1, (32, 32)
            ).astype(np.float32)
            for i in range(8)
        ]
        serial = BatchExecutor(deck.engine(), ExecutorConfig(jobs=2))
        want, _ = serial.denoise_batch(
            raws, [None] * 8, np.random.default_rng(0)
        )
        serial.close()

        registry = PoolRegistry()
        results: dict[int, list] = {}

        def worker(idx):
            executor = BatchExecutor(
                deck.engine(), ExecutorConfig(jobs=2), pools=registry
            )
            clips, _ = executor.denoise_batch(
                raws, [None] * 8, np.random.default_rng(0)
            )
            results[idx] = clips

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        registry.close()
        for clips in results.values():
            assert len(clips) == len(want)
            for a, b in zip(want, clips):
                np.testing.assert_array_equal(a, b)

    def test_close_racing_leased_stage_is_safe(self, deck):
        from repro.engine import PoolRegistry

        registry = PoolRegistry()
        with registry.lease("thread", 2) as pool:
            registry.close()  # retires the leased pool instead of killing it
            assert pool.submit(lambda: 41 + 1).result() == 42
        assert not registry  # the last lessee shut it down on release
