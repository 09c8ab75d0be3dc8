"""Serving throughput: packed vs coalesced vs one-request-at-a-time.

Simulates N concurrent clients, each submitting one seeded inpainting
request.  A burst of one-job requests against a small 16-px model, where
per-request overhead dominates, is served three ways:

* **sequential** — the one-shot path: a fresh backend per request via
  :func:`repro.engine.run_generation`, requests served one after another.
  Like a CLI invocation (or a naive fork-per-request server), every
  request **rehydrates the model from its checkpoint** and builds its own
  executor;
* **service-serial** — the async :class:`~repro.service.GenerationService`
  with micro-batching disabled (``max_batch_requests=1``) on the
  pack-less backend: long-lived backend (model loaded once) and
  executor, but every request is its own scheduling cycle;
* **coalesced** — the same service with the gather window open, on the
  pack-less backend: compatible requests coalesce into micro-batches
  sharing the warm backend and executor, but the model stage still
  samples one request at a time (and each request runs its own cached
  DRC check).

A burst of 1-4-job requests against the committed pinned ``sd1-ft``
checkpoint (``perfbench/model/finetuned-sd1-32.npz``, read only), where
the model dominates, is served two ways:

* **coalesced-pinned** — coalescing on a pack-less twin of the backend
  (same jobs, same model, no pack hooks);
* **packed-pinned** — coalescing plus cross-request model-batch packing:
  the micro-batch's sampling chunks interleave into shared full-width
  model batches, so the burst walks **one** denoising loop instead of N.
  Small forwards shard poorly on their own, so packing them pays on the
  real model.

Every mode produces **bit-identical per-request outputs** (asserted:
each against serial generation, and packed against coalesced): the
model/denoise stages consume each request's own seeded rng stream
(per-chunk spawn under packing), and the model conditions on time once
per distinct timestep, so rows sharing a sampler step get the same bits
at any batch size.  Serving mode changes wall-clock, never results.
The shared DRC stores are cleared before each mode so none inherits
another's warm cache.

A **payload delivery** arm (ISSUE 10) serves one request burst over a
real TCP connection three times — clip payloads off, base64, npz — via
:class:`~repro.service.RemoteClient`, recording wall seconds, requests/s
and wire bytes per mode, and asserting the decoded clips are
bit-identical to serial generation.  There is no perf gate: the section
documents what delivery costs, it does not race the encodings.

A **mixed-workload** burst — four incompatible request groups
(distinct ``params`` variants, so four compatibility keys) against a
heavier 32x32 model — is served through the **multi-process fleet**
(ISSUE 9): one worker process (the single-process service baseline) vs
one worker per compatibility key, fronted by the shard-aware
:class:`~repro.service.fleet.FleetService`.  Sticky key routing pins
each tenant to its own process, so the arms differ only in process
count; outputs are asserted bit-identical to serial generation *and* to
the single-worker arm.

Acceptance targets: coalesced micro-batching beats sequential per-request
serving (ISSUE 4), packed serving reaches >= 1.3x coalesced
throughput on the pinned-model burst, and the
multi-process fleet reaches >= 1.3x the single-worker service on the
mixed burst.
Single-core hosts skip whichever gate falls short,
like ``bench_sampler``.  A ``BENCH_service.json`` artifact at the repo
root records throughput, p50/p95 latency, packing counters per mode, the
fleet comparison and the full run trajectory.  Runs standalone
(``python benchmarks/bench_service.py``) or under pytest.
"""

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

try:  # pytest package-relative vs standalone-script import
    from .conftest import host_fingerprint, report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import host_fingerprint

    def report(title: str, text: str) -> None:
        print(f"\n=== {title} ===\n{text}")

from repro.diffusion import InpaintConfig, linear_schedule
from repro.diffusion.schedule import NoiseSchedule
from repro.drc import basic_deck
from repro.drc.cache import clear_shared_caches
from repro.engine import (
    CandidateBatch,
    GenerationRequest,
    register_backend,
    run_generation,
)
from repro.engine.modelpool import inpaint_jobs, inpaint_jobs_packed
from repro.engine.packing import chunk_sizes
from repro.experiments.common import format_table
from repro.geometry import Grid
from repro.nn import TimeUnet, UNetConfig
from repro.nn.serialize import load_into, load_module_state, save_module
from repro.service import SchedulerConfig, ServiceClient, ServiceConfig
from repro.zoo.artifacts import model_config

NUM_CLIENTS = 12
COUNT = 1  # inpainting attempts per request: the many-small-requests regime
NUM_STEPS = 8  # DDIM steps per attempt
RUNS = 2

#: The packing burst: client *i* asks for ``PINNED_COUNTS[i % 4]`` jobs of
#: the committed benchmark checkpoint, sampled on its training schedule.
PINNED_COUNTS = (1, 2, 3, 4)
PINNED_WEIGHTS = (
    Path(__file__).resolve().parents[1] / "perfbench" / "model"
    / "finetuned-sd1-32.npz"
)
PINNED_UNET = model_config("sd1", 32)
PINNED_SCHEDULE_STEPS = 250
PINNED_GRID = Grid(nm_per_px=16.0, width_px=32, height_px=32)

GRID = Grid(nm_per_px=32.0, width_px=16, height_px=16)
UNET = UNetConfig(
    image_size=16, base_channels=8, channel_mults=(1, 2), num_res_blocks=1,
    groups=4, time_dim=16, seed=0,
)
TRAIN_STEPS = 32

# The mixed-workload burst: four incompatible request groups (four
# compatibility keys) against a heavier model, so each key's model stage
# is heavy enough for one worker process per key to pay on multi-core
# hosts.
MIXED_KEYS = 4
MIXED_CLIENTS_PER_KEY = 2
MIXED_COUNT = 2  # inpainting attempts per request
MIXED_STEPS = 6
MIXED_GRID = Grid(nm_per_px=32.0, width_px=32, height_px=32)
MIXED_UNET = UNetConfig(
    image_size=32, base_channels=16, channel_mults=(1, 2), num_res_blocks=1,
    groups=8, time_dim=32, seed=1,
)

# The bench's checkpoints live here and are removed at interpreter exit.
_CHECKPOINT_DIR = tempfile.TemporaryDirectory(prefix="bench-service-")
_CHECKPOINTS: dict[str, str] = {}


def _save_checkpoint(config: UNetConfig, name: str) -> str:
    """Write ``name``'s model once; constructions rehydrate from disk."""
    path = _CHECKPOINTS.get(name)
    if path is None:
        path = os.path.join(_CHECKPOINT_DIR.name, f"{name}.npz")
        save_module(TimeUnet(config), path, meta={"unet": asdict(config)})
        _CHECKPOINTS[name] = path
    return path


def _checkpoint() -> str:
    """The bench model's checkpoint."""
    return _save_checkpoint(UNET, "unet")


def _mixed_checkpoint() -> str:
    """The heavier mixed-burst model's checkpoint."""
    return _save_checkpoint(MIXED_UNET, "mixed-unet")


class BenchSerialInpaintBackend:
    """Inpainting backend with one-shot construction semantics, no packing.

    Construction rehydrates the model from its checkpoint — the cost a
    per-request server pays every time, and the cost the service's
    long-lived backend registry pays exactly once.  Without pack hooks
    the service samples it one request at a time through ``propose``,
    which consumes its rng through the per-chunk spawn discipline (one
    child per ``MODEL_BATCH``-job chunk).
    """

    name = "bench-inpaint-serial"
    MODEL_BATCH = 32
    GRID = GRID

    def __init__(self, deck=None):
        self._deck = deck if deck is not None else basic_deck(self.GRID)
        self._model, self._schedule = self._load_model()
        self._config = InpaintConfig(num_steps=NUM_STEPS)
        size = self.GRID.width_px
        scale = size // 16
        template = np.zeros((size, size), dtype=np.uint8)
        template[:, 2 * scale:5 * scale] = 1
        template[:, 9 * scale:12 * scale] = 1
        self._template = template
        mask = np.zeros((size, size), dtype=bool)
        mask[:, size // 2:] = True
        self._mask = mask

    def _load_model(self) -> tuple[TimeUnet, NoiseSchedule]:
        state, meta = load_module_state(_checkpoint())
        cfg = dict(meta["unet"])
        cfg["channel_mults"] = tuple(cfg["channel_mults"])
        model = TimeUnet(UNetConfig(**cfg))
        model.load_state_dict(state)
        return model, linear_schedule(TRAIN_STEPS)

    @property
    def deck(self):
        return self._deck

    def _jobs(self, request):
        templates = [self._template] * request.count
        masks = [self._mask] * request.count
        return templates, masks

    def propose(self, request, rng):
        templates, masks = self._jobs(request)
        t0 = time.perf_counter()
        sizes = chunk_sizes(len(templates), self.MODEL_BATCH)
        raws, offset = [], 0
        for size, child in zip(sizes, rng.spawn(len(sizes))):
            raws.extend(
                inpaint_jobs(
                    self._model, self._schedule,
                    templates[offset:offset + size],
                    masks[offset:offset + size], child, self._config,
                )
            )
            offset += size
        return CandidateBatch(
            raws=raws,
            templates=templates,
            attempts=request.count,
            generate_seconds=time.perf_counter() - t0,
        )


class BenchPinnedSerialBackend(BenchSerialInpaintBackend):
    """The pack-less backend on the committed pinned checkpoint."""

    name = "bench-pinned-serial"
    GRID = PINNED_GRID

    def _load_model(self) -> tuple[TimeUnet, NoiseSchedule]:
        model = TimeUnet(PINNED_UNET)
        load_into(model, PINNED_WEIGHTS)
        return model, linear_schedule(PINNED_SCHEDULE_STEPS)


class BenchPinnedBackend(BenchPinnedSerialBackend):
    """The same backend with the three pack hooks: the service samples
    every micro-batch of it as shared packed model batches,
    bit-identically to ``propose``."""

    name = "bench-pinned"

    def pack_jobs(self, request):
        return self._jobs(request)

    def pack_model_batch(self):
        return self.MODEL_BATCH

    def pack_model_fn(self):
        def packed_fn(seg_templates, seg_masks, seg_rngs):
            return inpaint_jobs_packed(
                self._model, self._schedule, seg_templates, seg_masks,
                seg_rngs, self._config,
            )

        return packed_fn


register_backend(
    "bench-inpaint-serial", BenchSerialInpaintBackend, overwrite=True
)
register_backend(
    "bench-pinned-serial", BenchPinnedSerialBackend, overwrite=True
)
register_backend("bench-pinned", BenchPinnedBackend, overwrite=True)


class BenchMixedBackend:
    """The mixed-burst backend: heavier model, variant-keyed workloads.

    ``params["variant"]`` selects the template geometry, and because
    ``params`` feeds ``compatibility_key``, each variant's requests form
    their own micro-batches — the incompatible-workload mix the fleet's
    sticky key routing spreads across processes.  Deliberately not
    pack-capable: the mixed burst measures cross-key concurrency, not
    within-key packing.
    """

    name = "bench-mixed"
    MODEL_BATCH = 32

    def __init__(self, deck=None):
        self._deck = deck if deck is not None else basic_deck(MIXED_GRID)
        state, meta = load_module_state(_mixed_checkpoint())
        cfg = dict(meta["unet"])
        cfg["channel_mults"] = tuple(cfg["channel_mults"])
        self._model = TimeUnet(UNetConfig(**cfg))
        self._model.load_state_dict(state)
        self._schedule: NoiseSchedule = linear_schedule(TRAIN_STEPS)
        self._config = InpaintConfig(num_steps=MIXED_STEPS)

    @property
    def deck(self):
        return self._deck

    def _jobs(self, request):
        size = MIXED_UNET.image_size
        variant = int(request.params.get("variant", 0))
        template = np.zeros((size, size), dtype=np.uint8)
        template[:, 4 + variant:8 + variant] = 1
        template[:, 18 + variant:22 + variant] = 1
        mask = np.zeros((size, size), dtype=bool)
        mask[:, size // 2:] = True
        return [template] * request.count, [mask] * request.count

    def propose(self, request, rng):
        templates, masks = self._jobs(request)
        t0 = time.perf_counter()
        sizes = chunk_sizes(len(templates), self.MODEL_BATCH)
        raws, offset = [], 0
        for size, child in zip(sizes, rng.spawn(len(sizes))):
            raws.extend(
                inpaint_jobs(
                    self._model, self._schedule,
                    templates[offset:offset + size],
                    masks[offset:offset + size], child, self._config,
                )
            )
            offset += size
        return CandidateBatch(
            raws=raws,
            templates=templates,
            attempts=request.count,
            generate_seconds=time.perf_counter() - t0,
        )


register_backend("bench-mixed", BenchMixedBackend, overwrite=True)


def _requests(backend):
    deck = basic_deck(GRID)
    return [
        GenerationRequest(
            backend=backend, count=COUNT, seed=100 + i, deck=deck
        )
        for i in range(NUM_CLIENTS)
    ]


def _pinned_requests(backend):
    """The packing burst: 1-4 jobs per request on the pinned checkpoint."""
    deck = basic_deck(PINNED_GRID)
    return [
        GenerationRequest(
            backend=backend, count=PINNED_COUNTS[i % len(PINNED_COUNTS)],
            seed=100 + i, deck=deck,
        )
        for i in range(NUM_CLIENTS)
    ]


def _sequential(requests):
    """One-shot serving: fresh backend + executor per request, in turn."""
    latencies, results = [], []
    t0 = time.perf_counter()
    for request in requests:
        t_req = time.perf_counter()
        results.append(run_generation(request))
        latencies.append(time.perf_counter() - t_req)
    return time.perf_counter() - t0, latencies, results, None


def _service(requests, *, coalesce: bool):
    """N client threads against one service; per-client latencies."""
    scheduler = (
        SchedulerConfig(
            max_batch_requests=NUM_CLIENTS, gather_window_s=0.01
        )
        if coalesce
        else SchedulerConfig(max_batch_requests=1, gather_window_s=0.0)
    )
    config = ServiceConfig(
        queue_size=NUM_CLIENTS * 2, scheduler=scheduler,
    )
    with ServiceClient(config) as client:
        wall, latencies, results = _threaded_burst(client, requests)
        stats = client.service.stats
    return wall, latencies, results, stats


def _threaded_burst(client, requests):
    """One thread per request, released together; per-client latencies."""
    latencies = [0.0] * len(requests)
    results = [None] * len(requests)
    barrier = threading.Barrier(len(requests) + 1)

    def worker(i):
        barrier.wait()
        t_req = time.perf_counter()
        results[i] = client.generate(requests[i])
        latencies[i] = time.perf_counter() - t_req

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(len(requests))
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, latencies, list(results)


def _mixed_requests():
    """The mixed burst: ``MIXED_KEYS`` incompatible groups of requests."""
    deck = basic_deck(MIXED_GRID)
    return [
        GenerationRequest(
            backend="bench-mixed", count=MIXED_COUNT,
            seed=200 + 10 * variant + j, deck=deck,
            params={"variant": variant},
        )
        for variant in range(MIXED_KEYS)
        for j in range(MIXED_CLIENTS_PER_KEY)
    ]


def _fleet_mode(requests, workers):
    """Serve the mixed burst through ``workers`` worker *processes*.

    ``workers=1`` is the single-process baseline arm (a plain
    :class:`~repro.service.GenerationService` behind the same client);
    ``workers>=2`` fronts a :class:`~repro.service.fleet.FleetService`,
    whose sticky key routing sends each compatibility key's requests to
    its own process — full interpreter isolation, so even GIL-holding
    stages overlap.  The checkpoint is written *before* the fork so
    every worker rehydrates the same weights, and the warmup pass pays
    per-worker model construction outside the measured burst.
    """
    _mixed_checkpoint()  # write pre-fork: workers inherit the path
    config = ServiceConfig(
        queue_size=len(requests) * 2,
        scheduler=SchedulerConfig(
            max_batch_requests=len(requests), gather_window_s=0.05
        ),
    )
    with ServiceClient(config, workers=workers) as client:
        client.generate_many(requests)  # warmup (see docstring)
        wall, latencies, results = _threaded_burst(client, requests)
        payload = client.service.stats_payload()
    return wall, latencies, results, payload


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


# Payload delivery arms: the same request burst served over real TCP
# with clip payloads off / base64 / npz, measuring what delivery itself
# costs (encode + page + wire + reassemble + decode) on top of
# accounting-only serving.  The rule backend keeps generation cheap so
# the arms are delivery-dominated, and deterministic so the decoded
# clips can be asserted bit-identical to serial generation.
PAYLOAD_CLIENTS = 8
PAYLOAD_COUNT = 16
PAYLOAD_SEEDS = list(range(300, 300 + PAYLOAD_CLIENTS))


def run_payload_bench():
    """Wall/bytes per payload mode over a live TCP server; asserts identity."""
    import asyncio

    from repro.drc.decks import deck_by_name
    from repro.service import GenerationService, RemoteClient, serve
    from repro.zoo.corpora import EXPERIMENT_GRID

    deck = deck_by_name("basic", EXPERIMENT_GRID)
    serial = [
        run_generation(GenerationRequest(
            backend="rule", count=PAYLOAD_COUNT, seed=seed, deck=deck
        ))
        for seed in PAYLOAD_SEEDS
    ]

    async def run_all():
        service = GenerationService(ServiceConfig(
            queue_size=PAYLOAD_CLIENTS * 2,
            scheduler=SchedulerConfig(
                max_batch_requests=PAYLOAD_CLIENTS, gather_window_s=0.01
            ),
        ))
        await service.start()
        server = await serve(service, "127.0.0.1", 0, default_deck="basic")
        port = server.sockets[0].getsockname()[1]
        arms = {}
        try:
            for mode in ("none", "b64", "npz"):
                def burst():
                    with RemoteClient(port=port) as client:
                        t0 = time.perf_counter()
                        results = client.generate_many([
                            {"backend": "rule", "count": PAYLOAD_COUNT,
                             "seed": seed, "payload": mode}
                            for seed in PAYLOAD_SEEDS
                        ])
                        wall = time.perf_counter() - t0
                        return wall, client.bytes_read, results
                arms[mode] = await asyncio.to_thread(burst)
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()
        return arms

    arms = asyncio.run(run_all())
    for mode in ("b64", "npz"):
        _, _, results = arms[mode]
        for result, want in zip(results, serial):
            assert result["legal_mask"] == [int(v) for v in want.legal]
            assert len(result["clips"]) == len(want.clips)
            for a, b in zip(want.clips, result["clips"]):
                np.testing.assert_array_equal(
                    a, b,
                    err_msg=f"{mode} payload delivery diverged from serial",
                )
    return {
        mode: {
            "wall_seconds": round(wall, 4),
            "requests_per_s": round(PAYLOAD_CLIENTS / wall, 2),
            "wire_bytes": bytes_read,
        }
        for mode, (wall, bytes_read, _) in arms.items()
    }


#: Each mode's baseline: the ``speedup`` it reports is against this mode,
#: which serves the same burst.
BASELINES = {
    "sequential": "sequential",
    "service-serial": "sequential",
    "coalesced": "sequential",
    "coalesced-pinned": "coalesced-pinned",
    "packed-pinned": "coalesced-pinned",
}


def run_bench():
    """Times and outputs per mode; asserts bitwise-equal results."""
    unpacked = _requests("bench-inpaint-serial")
    pinned = _pinned_requests("bench-pinned")
    pinned_unpacked = _pinned_requests("bench-pinned-serial")
    modes = {
        "sequential": lambda: _sequential(unpacked),
        "service-serial": lambda: _service(unpacked, coalesce=False),
        "coalesced": lambda: _service(unpacked, coalesce=True),
        "coalesced-pinned": lambda: _service(pinned_unpacked, coalesce=True),
        "packed-pinned": lambda: _service(pinned, coalesce=True),
    }
    walls: dict[str, float] = {}
    latencies: dict[str, list[float]] = {}
    outputs: dict[str, list] = {}
    stats: dict[str, object] = {}
    trajectory: list[dict] = []
    for name, fn in modes.items():
        best = None
        for _ in range(RUNS):
            clear_shared_caches()  # no mode inherits another's warm DRC memo
            run = fn()
            trajectory.append(
                {"mode": name, "wall_seconds": round(run[0], 4)}
            )
            if best is None or run[0] < best[0]:
                best = run
        walls[name], latencies[name], outputs[name], stats[name] = best

    clear_shared_caches()
    outputs["serial-pinned"] = [run_generation(r) for r in pinned_unpacked]
    for name, ref_name in (
        ("service-serial", "sequential"),
        ("coalesced", "sequential"),
        ("coalesced-pinned", "serial-pinned"),
        ("packed-pinned", "serial-pinned"),
        ("packed-pinned", "coalesced-pinned"),
    ):
        for got, want in zip(outputs[name], outputs[ref_name]):
            assert got.attempts == want.attempts
            for a, b in zip(want.clips, got.clips):
                np.testing.assert_array_equal(
                    a, b, err_msg=f"{name} output diverged from {ref_name}"
                )
            np.testing.assert_array_equal(want.legal, got.legal)
            assert got.admitted == want.admitted
    for name in ("coalesced", "coalesced-pinned"):
        assert stats[name].peak_coalesced > 1, (
            "gather window never coalesced anything; the benchmark is not "
            "measuring micro-batching"
        )
        assert stats[name].packed_jobs == 0
    assert stats["packed-pinned"].packed_jobs > 0, (
        "packed mode never packed a model batch; the benchmark is not "
        "measuring cross-request packing"
    )
    return walls, latencies, stats, trajectory


def run_fleet_bench():
    """The multi-process comparison: 1 worker vs one worker per key.

    Serves the mixed 4-tenant burst through the shard-aware fleet
    front.  Asserts the fleet outputs are
    bit-identical both to serial one-shot generation and to the
    single-worker service (sticky routing keeps each session's order), and
    that the multi-worker run actually routed requests to >= 2 worker
    processes.
    """
    requests = _mixed_requests()
    serial = None
    walls: dict[int, float] = {}
    outputs: dict[int, list] = {}
    payloads: dict[int, dict] = {}
    trajectory: list[dict] = []
    for workers in (1, MIXED_KEYS):
        best = None
        for _ in range(RUNS):
            clear_shared_caches()
            run = _fleet_mode(requests, workers)
            trajectory.append(
                {"mode": f"fleet-{workers}", "wall_seconds": round(run[0], 4)}
            )
            if best is None or run[0] < best[0]:
                best = run
        walls[workers], _, outputs[workers], payloads[workers] = best

    clear_shared_caches()
    serial = [run_generation(request) for request in requests]
    for arm, reference in ((1, serial), (MIXED_KEYS, serial),
                           (MIXED_KEYS, outputs[1])):
        for got, want in zip(outputs[arm], reference):
            assert got.attempts == want.attempts
            for a, b in zip(want.clips, got.clips):
                np.testing.assert_array_equal(
                    a, b,
                    err_msg=f"fleet-{arm} output diverged from reference",
                )
            np.testing.assert_array_equal(want.legal, got.legal)
            assert got.admitted == want.admitted
    fleet = payloads[MIXED_KEYS]["fleet"]
    routed = sum(1 for w in fleet["workers"] if w["routed"])
    assert routed > 1, (
        "the mixed burst never spread across worker processes; the "
        "benchmark is not measuring multi-process serving"
    )
    assert fleet["crashed_requests"] == 0
    assert payloads[MIXED_KEYS]["failed"] == 0
    return walls, payloads, trajectory


def render(walls, latencies) -> str:
    rows = [
        [
            mode,
            round(wall, 3),
            round(NUM_CLIENTS / wall, 1),
            round(_percentile(latencies[mode], 50) * 1e3, 1),
            round(_percentile(latencies[mode], 95) * 1e3, 1),
            BASELINES[mode],
            round(walls[BASELINES[mode]] / wall, 2),
        ]
        for mode, wall in walls.items()
    ]
    return format_table(
        ["mode", "wall s", "req/s", "p50 ms", "p95 ms", "vs", "speedup"],
        rows,
        title=(
            f"Serving throughput ({NUM_CLIENTS} clients, {NUM_STEPS} steps: "
            f"{COUNT} attempt each on a {GRID.width_px}-px model; "
            f"{min(PINNED_COUNTS)}-{max(PINNED_COUNTS)} on the pinned sd1-ft)"
        ),
    )


def write_artifact(walls, latencies, stats, trajectory, fleet_walls=None,
                   fleet_payloads=None, payload_arms=None) -> str:
    from repro.experiments.common import bench_dir

    coalesced = stats["coalesced"]
    packed = stats["packed-pinned"]
    payload = {
        "host": host_fingerprint(),
        "workload": {
            "clients": NUM_CLIENTS,
            "count_per_request": COUNT,
            "num_steps": NUM_STEPS,
            "backend": "bench-inpaint-serial",
            "deck": "basic",
            "image_size": UNET.image_size,
        },
        "pinned_workload": {
            "clients": NUM_CLIENTS,
            "count_per_request": [
                PINNED_COUNTS[i % len(PINNED_COUNTS)]
                for i in range(NUM_CLIENTS)
            ],
            "num_steps": NUM_STEPS,
            "backend": "bench-pinned",
            "checkpoint": "perfbench/model/finetuned-sd1-32.npz",
            "deck": "basic",
            "image_size": PINNED_UNET.image_size,
        },
        "coalescing": {
            "micro_batches": coalesced.micro_batches,
            "cycles": coalesced.cycles,
            "peak_coalesced": coalesced.peak_coalesced,
        },
        "packing": {
            "packed_batches": packed.packed_batches,
            "packed_jobs": packed.packed_jobs,
            "last_pack_fill": round(packed.last_pack_fill, 4),
            "model_batch": BenchPinnedBackend.MODEL_BATCH,
            "speedup_vs_coalesced": round(
                walls["coalesced-pinned"] / walls["packed-pinned"], 3
            ),
        },
        "summary": {
            mode: {
                "wall_seconds": round(wall, 4),
                "requests_per_s": round(NUM_CLIENTS / wall, 2),
                "p50_ms": round(_percentile(latencies[mode], 50) * 1e3, 2),
                "p95_ms": round(_percentile(latencies[mode], 95) * 1e3, 2),
                "baseline": BASELINES[mode],
                "speedup_vs_baseline": round(
                    walls[BASELINES[mode]] / wall, 3
                ),
            }
            for mode, wall in walls.items()
        },
        "trajectory": trajectory,
    }
    if fleet_walls is not None:
        multi = fleet_payloads[MIXED_KEYS]
        payload["fleet"] = {
            "keys": MIXED_KEYS,
            "clients": MIXED_KEYS * MIXED_CLIENTS_PER_KEY,
            "worker_count": multi["fleet"]["worker_count"],
            # Host-shape provenance: a fleet speedup only means
            # something alongside the BLAS/OMP pinning it was measured
            # under (unset vars reported as None); cpus are in "host".
            "thread_env": {
                name: os.environ.get(name)
                for name in (
                    "OPENBLAS_NUM_THREADS",
                    "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS",
                )
            },
            "single_worker_wall_seconds": round(fleet_walls[1], 4),
            "multi_worker_wall_seconds": round(fleet_walls[MIXED_KEYS], 4),
            "speedup_vs_single_worker": round(
                fleet_walls[1] / fleet_walls[MIXED_KEYS], 3
            ),
            "respawns": multi["fleet"]["respawns"],
            "crashed_requests": multi["fleet"]["crashed_requests"],
            "per_worker": [
                {
                    "worker": w["worker"],
                    "routed": w["routed"],
                    "completed": w["stats"].get("completed")
                    if isinstance(w.get("stats"), dict) else None,
                }
                for w in multi["fleet"]["workers"]
            ],
        }
    if payload_arms is not None:
        payload["payload_delivery"] = {
            "clients": PAYLOAD_CLIENTS,
            "count_per_request": PAYLOAD_COUNT,
            "backend": "rule",
            "deck": "basic",
            "modes": payload_arms,
            # What the clip bytes cost relative to accounting-only
            # serving, per encoding (npz compresses binary clips well
            # below the b64 expansion of the raw bytes).
            "wire_bytes_vs_none": {
                mode: round(
                    payload_arms[mode]["wire_bytes"]
                    / max(1, payload_arms["none"]["wire_bytes"]), 2
                )
                for mode in ("b64", "npz")
            },
        }
    out = bench_dir() / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2))
    return str(out)


@pytest.fixture(scope="module")
def bench_results():
    walls, latencies, stats, trajectory = run_bench()
    fleet_walls, fleet_payloads, fleet_trajectory = run_fleet_bench()
    payload_arms = run_payload_bench()
    path = write_artifact(
        walls, latencies, stats, trajectory + fleet_trajectory,
        fleet_walls, fleet_payloads, payload_arms,
    )
    payload_line = "payload: " + "  ".join(
        f"{mode} {arm['wall_seconds']:.3f}s/"
        f"{arm['wire_bytes'] / 1024:.0f}KiB"
        for mode, arm in payload_arms.items()
    )
    fleet_line = (
        f"fleet: 1 worker {fleet_walls[1]:.3f}s vs {MIXED_KEYS} workers "
        f"{fleet_walls[MIXED_KEYS]:.3f}s "
        f"({fleet_walls[1] / fleet_walls[MIXED_KEYS]:.2f}x)"
    )
    report(
        "bench_service: serving modes",
        render(walls, latencies)
        + f"\n{fleet_line}\n{payload_line}"
        + f"\n[artifact: {path}]",
    )
    return walls, latencies, stats, fleet_walls, payload_arms


class TestServingThroughput:
    def test_coalesced_micro_batching_beats_sequential(self, bench_results):
        walls, _, _, _, _ = bench_results
        if (os.cpu_count() or 1) < 2 and walls["coalesced"] > walls["sequential"]:
            # One core leaves no parallel slack between the service's
            # loop/worker threads and the executor pools; the acceptance
            # gate is enforced where the CI benchmark job runs.
            pytest.skip(
                f"single-core host: coalesced "
                f"{walls['sequential'] / walls['coalesced']:.2f}x sequential "
                "(micro-batching needs >= 2 cores to win)"
            )
        assert walls["coalesced"] <= walls["sequential"], (
            f"coalesced={walls['coalesced']:.3f}s "
            f"sequential={walls['sequential']:.3f}s: micro-batched serving "
            "must beat one-request-at-a-time serving"
        )

    def test_packed_serving_beats_coalesced(self, bench_results):
        """Gate: cross-request packing >= 1.3x coalescing, on the pinned
        checkpoint.

        Bit-identity of the packed outputs is asserted unconditionally
        inside ``run_bench``; the throughput ratio is gated on
        multi-core hosts (the CI benchmark job) with the same
        single-core escape hatch as the other gates.
        """
        walls, _, stats, _, _ = bench_results
        ratio = walls["coalesced-pinned"] / walls["packed-pinned"]
        if (os.cpu_count() or 1) < 2 and ratio < 1.3:
            pytest.skip(
                f"single-core host: packed {ratio:.2f}x coalesced "
                "(>= 1.3x gate enforced on the multi-core CI job)"
            )
        assert ratio >= 1.3, (
            f"packed={walls['packed-pinned']:.3f}s coalesced="
            f"{walls['coalesced-pinned']:.3f}s ({ratio:.2f}x): cross-request "
            "model-batch packing must reach 1.3x coalesced throughput on "
            f"{NUM_CLIENTS} small concurrent requests"
        )

    def test_fleet_beats_single_worker(self, bench_results):
        """ISSUE 9 gate: worker processes >= 1.3x one process on mixed keys.

        Bit-identity — fleet vs serial one-shot generation *and* vs the
        single-worker service — is asserted unconditionally inside
        ``run_fleet_bench``; the throughput ratio is gated on multi-core
        hosts (the CI benchmark job).  On one core the extra processes
        only add fork/IPC overhead, so single-core hosts skip rather
        than measure noise.
        """
        _, _, _, fleet_walls, _ = bench_results
        ratio = fleet_walls[1] / fleet_walls[MIXED_KEYS]
        if (os.cpu_count() or 1) < 2 and ratio < 1.3:
            pytest.skip(
                f"single-core host: {MIXED_KEYS} workers {ratio:.2f}x single "
                "worker (>= 1.3x gate enforced on the multi-core CI job)"
            )
        assert ratio >= 1.3, (
            f"fleet-1={fleet_walls[1]:.3f}s fleet-{MIXED_KEYS}="
            f"{fleet_walls[MIXED_KEYS]:.3f}s ({ratio:.2f}x): the multi-"
            "process fleet must reach 1.3x single-process throughput on "
            f"the {MIXED_KEYS}-key mixed burst"
        )


if __name__ == "__main__":  # pragma: no cover
    walls, latencies, stats, trajectory = run_bench()
    fleet_walls, fleet_payloads, fleet_trajectory = run_fleet_bench()
    payload_arms = run_payload_bench()
    print(render(walls, latencies))
    print(
        f"fleet: 1 worker {fleet_walls[1]:.3f}s vs {MIXED_KEYS} workers "
        f"{fleet_walls[MIXED_KEYS]:.3f}s "
        f"({fleet_walls[1] / fleet_walls[MIXED_KEYS]:.2f}x)"
    )
    print("payload: " + "  ".join(
        f"{mode} {arm['wall_seconds']:.3f}s/"
        f"{arm['wire_bytes'] / 1024:.0f}KiB"
        for mode, arm in payload_arms.items()
    ))
    path = write_artifact(
        walls, latencies, stats, trajectory + fleet_trajectory,
        fleet_walls, fleet_payloads, payload_arms,
    )
    print(f"[artifact: {path}]")
