"""Cross-request packed serving: scheduler plans, determinism, fallbacks."""

import threading

import numpy as np
import pytest

from repro.core import PatternPaintConfig
from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
from repro.drc import basic_deck
from repro.engine import GenerationRequest, register_backend, run_generation
from repro.engine.backends import PatternPaintBackend
from repro.geometry import Grid
from repro.nn import TimeUnet, UNetConfig
from repro.service import (
    MicroBatchScheduler,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
)

GRID = Grid(nm_per_px=32.0, width_px=16, height_px=16)

TINY = UNetConfig(
    image_size=16, base_channels=8, channel_mults=(1,), num_res_blocks=1,
    groups=4, time_dim=8, attention=False, seed=5,
)

_DDPM = Ddpm(TimeUnet(TINY), linear_schedule(20))

_STARTERS = [
    np.random.default_rng(40 + i).integers(0, 2, (16, 16)).astype(np.uint8)
    for i in range(3)
]

_PP_CONFIG = PatternPaintConfig(
    inpaint=InpaintConfig(num_steps=2), model_batch=4
)


def _pp_factory(deck=None):
    """The real pack-capable backend over an injected tiny model."""
    return PatternPaintBackend(
        deck=deck if deck is not None else basic_deck(GRID),
        ddpm=_DDPM,
        config=_PP_CONFIG,
        templates=_STARTERS,
    )


register_backend("pp-pack-test", _pp_factory, overwrite=True)


class _BrokenPackBackend(PatternPaintBackend):
    """Pack hooks present but exploding: exercises the fallback path."""

    name = "pp-broken-pack"

    def pack_model_fn(self):
        def packed_fn(seg_templates, seg_masks, seg_rngs):
            raise RuntimeError("packed sampler exploded")

        return packed_fn


register_backend(
    "pp-broken-pack",
    lambda deck=None: _BrokenPackBackend(
        deck=deck if deck is not None else basic_deck(GRID),
        ddpm=_DDPM,
        config=_PP_CONFIG,
        templates=_STARTERS,
    ),
    overwrite=True,
)


@pytest.fixture(scope="module")
def deck():
    return basic_deck(GRID)


def _requests(deck, n, *, backend="pp-pack-test", count=3, base_seed=0,
              params=None):
    return [
        GenerationRequest(
            backend=backend, count=count, seed=base_seed + i, deck=deck,
            params=params or {},
        )
        for i in range(n)
    ]


def _assert_batches_identical(a, b):
    assert a.attempts == b.attempts
    assert len(a.clips) == len(b.clips)
    for x, y in zip(a.clips, b.clips):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.legal, b.legal)
    assert a.admitted == b.admitted


class TestSchedulerPack:
    def test_micro_batch_chunks_interleave(self):
        scheduler = MicroBatchScheduler()
        plan = scheduler.pack([3, 3, 3], 8)
        assert plan.capacity == 8
        assert len(plan.batches) == 2  # 3+3 <= 8, third chunk spills
        assert plan.packed_jobs == 9

    def test_pack_is_pure_and_deterministic(self):
        scheduler = MicroBatchScheduler()
        assert scheduler.pack([5, 2], 4).batches == scheduler.pack(
            [5, 2], 4
        ).batches

    def test_differing_params_never_share_a_micro_batch(self, deck):
        """Satellite: compatibility-key collisions cannot co-pack.

        Packing plans are emitted per micro-batch, and coalesce() keys
        micro-batches on the full compatibility key — so two requests
        with different params can never reach one packing plan.
        """
        from repro.service.scheduler import PendingRequest

        scheduler = MicroBatchScheduler(SchedulerConfig())
        a = GenerationRequest(
            backend="pp-pack-test", count=2, seed=0, deck=deck,
            params={"flavour": "a"},
        )
        b = GenerationRequest(
            backend="pp-pack-test", count=2, seed=0, deck=deck,
            params={"flavour": "b"},
        )
        twin = GenerationRequest(
            backend="pp-pack-test", count=2, seed=1, deck=deck,
            params={"flavour": "a"},
        )
        pending = [
            PendingRequest(arrival=i, request=r)
            for i, r in enumerate([a, b, twin])
        ]
        batches = scheduler.coalesce(pending)
        assert len(batches) == 2
        by_key = {batch.key: batch for batch in batches}
        assert len(by_key) == 2
        # Equal params coalesce; differing params stay apart.
        sizes = sorted(len(batch) for batch in batches)
        assert sizes == [1, 2]


class TestPackedServingDeterminism:
    def test_packed_service_bit_identical_to_serial(self, deck):
        """Tentpole: packed cross-request serving == serial run_generation."""
        requests = _requests(deck, 6, base_seed=100)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            stats = client.service.stats
        assert stats.packed_jobs > 0, "packing never engaged"
        assert stats.packed_fallbacks == 0
        assert stats.peak_coalesced > 1
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)

    def test_lone_request_packs_bit_identically(self, deck):
        """A micro-batch of one request takes the packed model stage."""
        request = GenerationRequest(
            backend="pp-pack-test", count=8, seed=150, deck=deck
        )
        serial = run_generation(request)
        with ServiceClient(ServiceConfig()) as client:
            served = client.generate(request)
            stats = client.service.stats
        assert stats.peak_coalesced == 1
        assert stats.packed_jobs == 8
        assert stats.packed_fallbacks == 0
        _assert_batches_identical(serial, served)

    def test_threaded_clients_bit_identical_under_packing(self, deck):
        """Tentpole: determinism holds for concurrent TCP-like clients."""
        requests = _requests(deck, 5, count=2, base_seed=200)
        serial = [run_generation(request) for request in requests]
        results: dict[int, object] = {}
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05)
        )
        with ServiceClient(config) as client:
            barrier = threading.Barrier(len(requests))

            def worker(i):
                barrier.wait()
                results[i] = client.generate(requests[i])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(requests))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, reference in enumerate(serial):
            _assert_batches_identical(reference, results[i])

    def test_jobs_gt_one_bit_identical_under_packing(self, deck):
        requests = _requests(deck, 4, base_seed=300)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            jobs=2,
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            assert client.service.stats.packed_jobs > 0
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)

    def test_pack_disabled_still_bit_identical(self, deck):
        requests = _requests(deck, 4, base_seed=400)
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            pack_models=False,
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            assert client.service.stats.packed_jobs == 0
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)

    def test_collision_groups_pack_separately_but_serve_correctly(self, deck):
        """Satellite: differing params split micro-batches end to end."""
        group_a = _requests(deck, 2, base_seed=500, params={"flavour": "a"})
        group_b = _requests(deck, 2, base_seed=500, params={"flavour": "b"})
        requests = [group_a[0], group_b[0], group_a[1], group_b[1]]
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05)
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            stats = client.service.stats
        # Two micro-batches (one per param group), never one packed four:
        # a micro-batch can hold at most one param group's requests.
        assert stats.micro_batches >= 2
        assert stats.peak_coalesced <= 2
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)


class TestPackedFallback:
    def test_broken_packed_stage_falls_back_bit_identically(self, deck):
        requests = _requests(
            deck, 4, backend="pp-broken-pack", base_seed=600
        )
        serial = [run_generation(request) for request in requests]
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            served = client.generate_many(requests)
            stats = client.service.stats
        assert stats.packed_fallbacks > 0
        assert stats.packed_jobs == 0
        assert stats.failed == 0
        for a, b in zip(serial, served):
            _assert_batches_identical(a, b)


class TestPackingStats:
    def test_fill_gauge_and_counters(self, deck):
        requests = _requests(deck, 4, base_seed=700)
        config = ServiceConfig(
            scheduler=SchedulerConfig(gather_window_s=0.05),
        )
        with ServiceClient(config) as client:
            client.generate_many(requests)
            stats = client.service.stats
        assert stats.packed_jobs > 0
        assert stats.packed_batches >= 1
        assert 0.0 < stats.last_pack_fill <= 1.0
        assert stats.queue_depth == 0
        if stats.peak_coalesced == 4:
            # All four coalesced: 3-job chunks at capacity 4 -> one
            # packed batch per chunk, each 3/4 full.
            assert stats.packed_jobs == 12
            assert stats.packed_batches == 4
            assert stats.last_pack_fill == pytest.approx(0.75)
