"""Row-sharded inference forwards: bit identity, forked children, BLAS
pinning and per-thread workspaces."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.nn import Conv2d, TimeUnet, UNetConfig
from repro.nn import shards
from repro.nn.layers import _MAX_WORKSPACES

#: The architecture of the pinned ``sd1-ft`` benchmark checkpoint.
PINNED_CONFIG = UNetConfig(
    image_size=32,
    in_channels=1,
    base_channels=16,
    channel_mults=(1, 2),
    num_res_blocks=1,
    groups=8,
    time_dim=32,
    attention=True,
    seed=11,
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint32)


@pytest.fixture(scope="module")
def model():
    """The pinned architecture with every parameter randomised, so no
    zero-initialised layer hides a shard's contribution."""
    net = TimeUnet(PINNED_CONFIG)
    rng = np.random.default_rng(5)
    for p in net.parameters():
        p.data[...] = rng.normal(0.0, 0.2, size=p.data.shape)
    return net.eval()


def _inputs(n: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 1, 32, 32)).astype(np.float32)
    t = rng.integers(0, 1000, size=n)
    return x, t


def _needs_blas_setter():
    if shards._openblas_symbol(shards._SETTERS) is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")


class TestShardedForward:
    @pytest.mark.parametrize("n", [2, 3, 17, 36, 64])
    def test_bitwise_equal_to_one_shard(self, model, monkeypatch, n):
        _needs_blas_setter()
        x, t = _inputs(n)
        # Three shards on any host: uneven splits, pool threads included.
        monkeypatch.setattr(shards, "_cores", lambda: 3)
        assert shards.shard_count(n) == min(n, 3)
        sharded = model(x, t)
        monkeypatch.setattr(shards, "_cores", lambda: 1)
        assert shards.shard_count(n) == 1
        single = model(x, t)
        assert np.array_equal(_bits(sharded), _bits(single))

    def test_blas_pinned_to_one_thread(self, model, monkeypatch):
        _needs_blas_setter()
        if shards.blas_threads() is None:
            pytest.skip("numpy's OpenBLAS exports no thread-count getter")
        monkeypatch.setattr(shards, "_cores", lambda: 2)
        model(*_inputs(4))
        assert shards.blas_threads() == 1

    def test_forked_child_runs_one_shard_with_equal_output(
        self, model, monkeypatch
    ):
        _needs_blas_setter()
        monkeypatch.setattr(shards, "_cores", lambda: 2)
        x, t = _inputs(17)
        parent = model(x, t)  # the shard pool is live from here on
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            send.send((shards.shard_count(17), model(x, t)))

        process = ctx.Process(target=child)
        process.start()
        try:
            assert recv.poll(60), "forked child forward hung"
            count, out = recv.recv()
        finally:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0
        assert count == 1
        assert np.array_equal(_bits(out), _bits(parent))

    def test_shard_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(shards, "_cores", lambda: 2)
        monkeypatch.setattr(shards, "_pin_blas", lambda: True)
        seen = []

        def fn(lo, hi):
            seen.append((lo, hi))
            if lo:
                raise ValueError("shard failed")

        with pytest.raises(ValueError, match="shard failed"):
            shards.run_shards(fn, 5)
        assert sorted(seen) == [(0, 2), (2, 5)]


class TestPerThreadWorkspaces:
    def test_conv_workspace_bound_holds_per_thread(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(4, 4, 3, rng)
        x = rng.normal(size=(7, 4, 8, 8)).astype(np.float32)
        expected = [conv.forward(x[:n]).copy() for n in range(1, 8)]
        conv.eval()
        workers = shards._cores() + 2  # more threads than cores
        barrier = threading.Barrier(workers)
        idents, mismatches = [], []

        def worker():
            idents.append(threading.get_ident())
            for _ in range(10):
                barrier.wait(timeout=30)
                for n in range(1, 8):  # 7 distinct input shapes
                    if not np.array_equal(conv.forward(x[:n]), expected[n - 1]):
                        mismatches.append(n)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
        assert set(conv._workspaces) == set(idents)
        for outs in conv._workspaces.values():
            assert len(outs) <= _MAX_WORKSPACES
