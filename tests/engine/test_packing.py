"""Cross-request model-batch packing: the pure plan, the executor stage and
the one chunk-and-spawn rule both model stages share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import Ddpm, InpaintConfig, linear_schedule
from repro.drc import basic_deck
from repro.engine import BatchExecutor, pack_chunks
from repro.engine.modelpool import inpaint_jobs, inpaint_jobs_packed
from repro.engine.packing import chunk_sizes
from repro.geometry import Grid
from repro.nn import TimeUnet, UNetConfig

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


def _jobs(n, seed):
    rng = np.random.default_rng(seed)
    templates = [rng.integers(0, 2, (16, 16)).astype(np.uint8) for _ in range(n)]
    mask = np.zeros((16, 16), dtype=bool)
    mask[:, 8:] = True
    return templates, [mask] * n


class TestChunkSizes:
    def test_mirrors_serial_chunk_boundaries(self):
        assert chunk_sizes(0, 4) == []
        assert chunk_sizes(3, 4) == [3]
        assert chunk_sizes(4, 4) == [4]
        assert chunk_sizes(9, 4) == [4, 4, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(-1, 4)
        with pytest.raises(ValueError):
            chunk_sizes(3, 0)


class TestPackChunks:
    def test_small_requests_share_one_batch(self):
        plan = pack_chunks([3] * 8, 32)
        assert len(plan.batches) == 1
        assert plan.packed_jobs == 24
        assert plan.fill_ratio == 24 / 32
        assert [ref.entry for ref in plan.batches[0].chunks] == list(range(8))
        assert all(ref.chunk == 0 for ref in plan.batches[0].chunks)

    def test_first_fit_opens_new_batches(self):
        plan = pack_chunks([3, 5, 2], 4)
        # chunks: (0,0,3), (1,0,4), (1,1,1), (2,0,2)
        bins = [
            [(ref.entry, ref.chunk, ref.jobs) for ref in batch.chunks]
            for batch in plan.batches
        ]
        assert bins == [[(0, 0, 3), (1, 1, 1)], [(1, 0, 4)], [(2, 0, 2)]]
        assert all(batch.jobs <= plan.capacity for batch in plan.batches)

    def test_deterministic(self):
        counts = [7, 1, 12, 3, 3, 9]
        a, b = pack_chunks(counts, 5), pack_chunks(counts, 5)
        assert a.batches == b.batches
        assert a.num_chunks == sum(len(chunk_sizes(c, 5)) for c in counts)

    def test_every_job_packed_exactly_once(self):
        counts = [5, 9, 1, 4, 16]
        plan = pack_chunks(counts, 6)
        seen = {}
        for batch in plan.batches:
            for ref in batch.chunks:
                assert (ref.entry, ref.chunk) not in seen
                seen[(ref.entry, ref.chunk)] = ref.jobs
        for entry, count in enumerate(counts):
            sizes = chunk_sizes(count, 6)
            assert [seen[(entry, c)] for c in range(len(sizes))] == sizes

    def test_empty_and_zero_requests(self):
        assert pack_chunks([], 8).batches == []
        plan = pack_chunks([0, 3], 8)
        assert plan.packed_jobs == 3
        assert all(ref.entry == 1 for b in plan.batches for ref in b.chunks)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            pack_chunks([3], 0)


class TestRunModelPacked:
    def _fns(self, ddpm):
        config = InpaintConfig(num_steps=3)

        def model_fn(templates, masks, rng):
            return inpaint_jobs(
                ddpm.model, ddpm.schedule, templates, masks, rng, config
            )

        def packed_fn(seg_t, seg_m, seg_rngs):
            return inpaint_jobs_packed(
                ddpm.model, ddpm.schedule, seg_t, seg_m, seg_rngs, config
            )

        return model_fn, packed_fn, config

    def test_packed_bit_identical_to_serial_per_request(self, ddpm, deck):
        """Tentpole: packing changes batch composition, never outputs."""
        model_fn, packed_fn, _ = self._fns(ddpm)
        job_lists = [_jobs(3, 10), _jobs(5, 11), _jobs(2, 12)]
        executor = BatchExecutor(deck.engine())
        serial = [
            executor.run_model_batched(
                model_fn, t, m, np.random.default_rng(100 + i), 4
            )[0]
            for i, (t, m) in enumerate(job_lists)
        ]
        result = executor.run_model_packed(
            packed_fn,
            job_lists,
            [np.random.default_rng(100 + i) for i in range(3)],
            4,
        )
        assert len(result.plan.batches) < result.plan.num_chunks  # packed
        for want, got in zip(serial, result.outputs):
            assert len(want) == len(got)
            for a, b in zip(want, got):
                np.testing.assert_array_equal(
                    a.view(np.uint32), b.view(np.uint32)
                )

    def test_seconds_attributed_per_request(self, ddpm, deck):
        _, packed_fn, _ = self._fns(ddpm)
        job_lists = [_jobs(3, 30), _jobs(1, 31)]
        executor = BatchExecutor(deck.engine())
        result = executor.run_model_packed(
            packed_fn, job_lists,
            [np.random.default_rng(i) for i in range(2)],
            8,
        )
        assert all(s > 0 for s in result.seconds)
        # 3-job request carries three times the 1-job request's share.
        assert result.seconds[0] == pytest.approx(3 * result.seconds[1])


class TestChunkAndSpawnRule:
    """Packed and serial model stages chunk and spawn by one rule."""

    @given(
        st.lists(st.integers(0, 9), max_size=6),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_matches_serial_and_leaves_rngs_alike(
        self, deck, counts, model_batch, seed
    ):
        executor = BatchExecutor(deck.engine())
        job_lists = [([None] * n, [None] * n) for n in counts]

        def model_fn(templates, masks, rng):
            return rng.standard_normal(len(templates))

        def packed_fn(seg_t, seg_m, seg_rngs):
            return [rng.standard_normal(len(t)) for t, rng in zip(seg_t, seg_rngs)]

        serial_rngs = [np.random.default_rng([seed, i]) for i in range(len(counts))]
        packed_rngs = [np.random.default_rng([seed, i]) for i in range(len(counts))]
        serial = [
            executor.run_model_batched(model_fn, t, m, rng, model_batch)[0]
            for (t, m), rng in zip(job_lists, serial_rngs)
        ]
        result = executor.run_model_packed(
            packed_fn, job_lists, packed_rngs, model_batch
        )
        assert [len(out) for out in result.outputs] == counts
        assert [list(out) for out in result.outputs] == serial
        for a, b in zip(serial_rngs, packed_rngs):
            assert a.spawn(1)[0].random() == b.spawn(1)[0].random()
