"""BatchExecutor behavior: caching, chunking, concurrent callers, close
safety, and the staged plan/execute/finalize API."""

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
    def test_validation(self, deck):
        # The chunk size travels with each model-stage call and is
        # checked there, not held by the config.
        with pytest.raises(TypeError):
            ExecutorConfig(model_batch=8)
        items = [np.zeros((4, 4))]
        with pytest.raises(ValueError):
            BatchExecutor(deck.engine()).run_model_batched(
                lambda t, m, r: t, items, items, np.random.default_rng(0), 0
            )
        # No worker-count or pool knobs: post-processing is serial.
        for knob in ({"jobs": 2}, {"pool": "thread"}, {"use_cache": False}):
            with pytest.raises(TypeError):
                ExecutorConfig(**knob)


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
        cache = executor.engine.cache
        hits_before, misses_before = cache.hits, cache.misses
        second = executor.run(request, backend=backend)
        assert first.attempts == second.attempts == 4
        # Same seed => same clips => the second pass is all cache hits.
        assert cache.hits - hits_before >= len(second.clips)
        assert cache.misses == misses_before
        for a, b in zip(first.clips, second.clips):
            np.testing.assert_array_equal(a, b)


class TestModelBatching:
    def test_chunk_sizes(self, deck):
        executor = BatchExecutor(deck.engine())
        seen: list[int] = []

        def model_fn(chunk_t, chunk_m, rng):
            seen.append(len(chunk_t))
            return [t.astype(np.float32) for t in chunk_t]

        items = [np.zeros((4, 4), dtype=np.uint8)] * 8
        outputs, seconds = executor.run_model_batched(
            model_fn, items, items, np.random.default_rng(0), 3
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
                4,
            )


class TestCloseSafety:
    """close() stays callable (a no-op) on executors and pipelines."""

    def test_double_close_does_not_raise(self, deck, clips):
        executor = BatchExecutor(deck.engine())
        executor.check_batch(list(clips))
        executor.close()
        executor.close()

    def test_close_never_used_executor(self, deck):
        BatchExecutor(deck.engine()).close()

    def test_concurrent_close_callers(self, deck, clips):
        executor = BatchExecutor(deck.engine())
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
        executor = BatchExecutor(deck.engine())
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
        mask, _ = executor.check_batch(list(clips))
        assert mask.shape == (len(clips),)

    def test_pipeline_rejects_mismatched_shared_executor(self, deck):
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
        # A pipeline owns its executor: there is no shared one to pass,
        # so no model_batch or denoise config can disagree with it.
        with pytest.raises(TypeError):
            PatternPaint(ddpm, deck, executor=BatchExecutor(deck.engine()))


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
            GenerationRequest(backend="rule", count=5, seed=1, deck=deck)
        )
        assert batch.backend == "rule"
        assert batch.attempts == 5
        assert batch.legal.all()
        assert batch.legality_rate == 1.0
        assert len(batch.library) <= 5
        assert batch.timings.total_seconds > 0.0


class TestConcurrentExecutors:
    """Executors hold no workers, so threads may drive them side by side
    (as when two services in one process serve the same deck)."""

    def test_concurrent_executors_match_serial(self, deck, clips, noisy_raws):
        """Two threads driving two executors on one deck produce the same
        clips, legality and admissions as one serial executor."""

        def run(executor):
            library = PatternLibrary()
            result = executor.postprocess(
                list(noisy_raws), list(clips), np.random.default_rng(7),
                library=library,
            )
            return result, library

        want, want_library = run(BatchExecutor(deck.engine()))
        results: dict[int, tuple] = {}
        errors: list[BaseException] = []

        def worker(idx):
            try:
                executor = BatchExecutor(deck.engine())
                for _ in range(3):
                    results[idx] = run(executor)
            except BaseException as error:  # noqa: BLE001 - test capture
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 2
        for got, library in results.values():
            assert len(got.clips) == len(want.clips)
            for a, b in zip(want.clips, got.clips):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(want.legal, got.legal)
            assert got.admitted == want.admitted
            assert len(library) == len(want_library)
            for a, b in zip(want_library, library):
                np.testing.assert_array_equal(a, b)
