"""Served workloads: a ``repro serve`` subprocess driven over TCP.

``serve-pp-2tenant``
    Two closed-loop connections, one per tenant session (``advanced`` and
    ``basic`` decks, so two compatibility keys), each keeping 4
    ``patternpaint`` requests (``count=4``, ``payload="npz"``)
    outstanding.  A connection sends its 4 requests in one write and the
    next 4 once all have completed.  Sent one per completion instead,
    the requests drift apart and micro-batches of 1 to 4 requests form
    at random; the model's per-batch-size workspaces then made the
    server's peak RSS range from 600 to 900 MiB across runs.  The request
    seeds are a fixed stream that ``--seed`` does not change: a run
    delivers only ~150 clips, and over ten seeds their legality ranged
    from 0.49 to 0.66 (quartile spread 22% of the median), too close to
    the largest bound allowed.
``serve-rule-tiny``
    Two closed-loop connections into one shared session, each keeping 16
    ``rule`` requests (``count=2``, ``payload="npz"``) outstanding.  About
    half the requests repeat the seed of an earlier request on the same
    connection, so duplicate rejections run beside fresh inserts.  The
    rule generator verifies every clip it proposes and primes the DRC
    cache with it, so the service's own sweep is all cache hits.  With 8
    outstanding per connection (16 in flight, twice the service's
    largest micro-batch) the queue ran dry between batches and runs
    settled at random into a fast or a slow batching pattern: over six
    interleaved runs throughput ranged from 289 to 388 clips/s (quartile
    spread 24% of the median).  With 32 in flight a full batch is always
    waiting, and the spread fell to about 10%.

The server runs on its default flags (``--port 0`` aside).  Set-up is
spawn -> listening -> one warm-up request answered, repeated
``SETUPS`` times (the last server stays up and is measured).  The
measured phase sends for ``--seconds``; every request sent is then
drained, decoded and checked.  A request's latency runs from its send to
the decode of its last result payload frame.
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import BENCH_DIR, BenchError, median, peak_rss_mb, windowed_tail

SETUPS = 3
LINE_LIMIT = 8 << 20
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Tenant:
    session: str
    deck: str


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    count: int
    outstanding: int
    tenants: tuple  # one connection per entry
    repeat_share: float
    checked_requests: int | None  # None: check every request
    # Send the outstanding requests together and the next ones once all
    # have completed, instead of one new request per completion.
    burst: bool
    # When set, request seeds come from this seed instead of --seed.
    fixed_seed: int | None


WORKLOADS = {
    "serve-pp-2tenant": Workload(
        name="serve-pp-2tenant",
        backend="patternpaint",
        count=4,
        outstanding=4,
        tenants=(Tenant("tenant-a", "advanced"), Tenant("tenant-b", "basic")),
        repeat_share=0.0,
        checked_requests=2,
        burst=True,
        fixed_seed=0,
    ),
    "serve-rule-tiny": Workload(
        name="serve-rule-tiny",
        backend="rule",
        count=2,
        outstanding=16,
        tenants=(Tenant("shared", "advanced"), Tenant("shared", "advanced")),
        repeat_share=0.5,
        checked_requests=None,
        burst=False,
        fixed_seed=None,
    ),
}


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process (traced through the launcher when
    ``spans_path`` is given)."""

    def __init__(self, workdir, spans_path=None) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, "-u", str(BENCH_DIR / "serve_traced.py"),
                   str(spans_path), "serve"]
        cmd += ["--port", "0"]
        self.log_path = workdir.path / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, cwd=workdir.path, env=workdir.env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port = self._wait_listening()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(remaining, 0.01))
            except queue.Empty:
                line = None
                remaining = 0
            if line is None:
                self.stop()
                raise BenchError(
                    "server did not start listening: "
                    + self.log_path.read_text()[-2000:]
                )
            if "listening on" in line:
                return int(line.split("listening on ", 1)[1].split()[0]
                           .rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
                    raise BenchError("server did not stop on SIGTERM") from None
        finally:
            self._reader.join(timeout=10)
            self.proc.stdout.close()
            self._log.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class Req:
    request_id: str
    seed: int
    tenant: Tenant
    repeat_of: str | None = None
    sent_at: float = 0.0
    done_at: float = 0.0
    bytes: int = 0
    frames: int = 0
    pages: int = 0
    result: dict | None = None
    clips: list = field(default_factory=list)
    error: str | None = None


class Connection:
    """One TCP connection; requests pipeline and demultiplex on id."""

    def __init__(self, reader, writer) -> None:
        from repro.service.payload import PayloadAssembler

        self.reader = reader
        self.writer = writer
        self.assembler = PayloadAssembler()
        self.pending: dict[str, tuple[Req, asyncio.Future]] = {}
        self.control: asyncio.Queue = asyncio.Queue()
        self.decode_s = 0.0
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=LINE_LIMIT
        )
        return cls(reader, writer)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            event = json.loads(line)
            entry = self.pending.get(event.get("request_id"))
            if entry is None:
                self.control.put_nowait(event)
                continue
            req, future = entry
            req.bytes += len(line)
            req.frames += 1
            name = event.get("event")
            if name == "payload_page":
                req.pages += 1
            elif name == "result":
                req.result = event
            elif name == "error":
                req.error = event.get("message", "error")
            t0 = time.monotonic()
            assembled = self.assembler.feed(event)
            if assembled is not None:
                self.decode_s += time.monotonic() - t0
            if assembled is not None and assembled.kind == "result":
                req.clips = assembled.arrays
            if req.error is not None or req.clips:
                req.done_at = time.monotonic()
                del self.pending[req.request_id]
                future.set_result(req)
        for req, future in self.pending.values():
            req.error = "connection closed"
            future.set_result(req)
        self.pending.clear()

    async def send(self, reqs: list[Req], workload: Workload) -> None:
        """Send requests in one write and wait until all have finished."""
        loop = asyncio.get_running_loop()
        futures = []
        lines = []
        for req in reqs:
            futures.append(loop.create_future())
            self.pending[req.request_id] = (req, futures[-1])
            lines.append(json.dumps({
                "backend": workload.backend,
                "count": workload.count,
                "seed": req.seed,
                "deck": req.tenant.deck,
                "session": req.tenant.session,
                "payload": "npz",
                "request_id": req.request_id,
            }).encode() + b"\n")
        sent_at = time.monotonic()
        for req in reqs:
            req.sent_at = sent_at
        self.writer.write(b"".join(lines))
        await self.writer.drain()
        await asyncio.gather(*futures)

    async def op(self, name: str) -> dict:
        self.writer.write(json.dumps({"op": name}).encode() + b"\n")
        await self.writer.drain()
        return await asyncio.wait_for(self.control.get(), 30)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await asyncio.wait_for(self.task, 30)


class RequestSource:
    """Deterministic request stream of one connection.

    Fresh seeds come from ``default_rng([bench seed, phase, connection])``;
    with probability ``repeat_share`` a request instead repeats the seed
    of a uniformly chosen earlier request of the same connection.
    """

    def __init__(self, workload, tenant, seed: int, phase: int, conn: int):
        import numpy as np

        self.workload = workload
        self.tenant = tenant
        if workload.fixed_seed is not None:
            seed = workload.fixed_seed
        self.rng = np.random.default_rng([seed, phase, conn])
        self.tag = f"p{phase}c{conn}"
        self.sent: list[Req] = []

    def next(self) -> Req:
        k = len(self.sent)
        original = None
        if k and self.rng.random() < self.workload.repeat_share:
            original = self.sent[int(self.rng.integers(0, k))]
            seed = original.seed
        else:
            seed = int(self.rng.integers(0, 2**31 - 1))
        req = Req(
            request_id=f"{self.tag}-{k}",
            seed=seed,
            tenant=self.tenant,
            repeat_of=original.request_id if original is not None else None,
        )
        self.sent.append(req)
        return req


async def _drive(port: int, workload: Workload, seed: int, phase: int,
                 seconds: float | None) -> dict:
    """Run one phase.  ``seconds=None`` sends exactly one request per
    connection (warm-up); otherwise each connection keeps
    ``workload.outstanding`` requests in flight until the deadline."""
    conns = [await Connection.open(port) for _ in workload.tenants]
    sources = [
        RequestSource(workload, tenant, seed, phase, index)
        for index, tenant in enumerate(workload.tenants)
    ]
    stats_before = await conns[0].op("stats") if seconds is not None else None

    async def closed_loop(conn, source, deadline, burst):
        while True:
            await conn.send([source.next() for _ in range(burst)], workload)
            if deadline is None or time.monotonic() >= deadline:
                return

    t0 = time.monotonic()
    deadline = None if seconds is None else t0 + seconds
    if seconds is None:
        burst, loops = 1, 1
    elif workload.burst:
        burst, loops = workload.outstanding, 1
    else:
        burst, loops = 1, workload.outstanding
    workers = [
        closed_loop(conn, source, deadline, burst)
        for conn, source in zip(conns, sources)
        for _ in range(loops)
    ]
    try:
        await asyncio.wait_for(
            asyncio.gather(*workers),
            DRAIN_TIMEOUT_S + (seconds or 0),
        )
    except asyncio.TimeoutError:
        raise BenchError(f"{workload.name}: requests did not drain") from None
    requests = [req for source in sources for req in source.sent]
    t_end = max(req.done_at for req in requests)
    stats_after = await conns[0].op("stats") if seconds is not None else None
    decode_s = sum(conn.decode_s for conn in conns)
    for conn in conns:
        await conn.close()
    return {
        "requests": requests,
        "window": (t0, t_end),
        "decode_s": decode_s,
        "stats": (stats_before, stats_after),
    }


def _start(workdir, workload: Workload, seed: int, spans_path=None):
    """Spawn a server and answer one warm-up request.

    Returns ``(seconds, server, warm-up phase)``.
    """
    t0 = time.monotonic()
    server = Server(workdir, spans_path)
    try:
        warm = asyncio.run(_drive(server.port, _warmup(workload), seed, 0, None))
    except BaseException:
        server.stop()
        raise
    return time.monotonic() - t0, server, warm


def _warmup(workload: Workload) -> Workload:
    """The warm-up variant: one request, on the first tenant's deck, into
    a session of its own so that the measured sessions start empty."""
    from dataclasses import replace

    first = workload.tenants[0]
    return replace(
        workload, tenants=(Tenant("warmup", first.deck),), repeat_share=0.0
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check(workload: Workload, phase: dict, seed: int) -> int:
    """Served clips equal serial ``run_generation``; returns how many
    requests were checked against a serial run."""
    import numpy as np

    from repro.drc.decks import deck_by_name
    from repro.engine import GenerationRequest, get_backend, run_generation
    from repro.engine.executor import BatchExecutor, ExecutorConfig
    from repro.zoo.corpora import EXPERIMENT_GRID

    requests = [r for r in phase["requests"] if r.error is None]
    by_id = {r.request_id: r for r in requests}
    for req in requests:
        if len(req.clips) != workload.count:
            raise BenchError(f"{req.request_id}: {len(req.clips)} clips")
        if req.repeat_of is not None:
            if req.result["admitted"] != 0:
                raise BenchError(
                    f"{req.request_id} repeats a seed but admitted "
                    f"{req.result['admitted']} clips"
                )
    if workload.checked_requests is None:
        chosen = requests
    else:
        rng = np.random.default_rng([seed, 7])
        picks = rng.choice(
            len(requests), size=min(workload.checked_requests, len(requests)),
            replace=False,
        )
        chosen = [requests[int(i)] for i in sorted(picks)]

    # One serial backend and executor per deck, as a long-lived caller
    # of run_generation would hold them.
    serial_stack: dict[str, tuple] = {}
    serial: dict[tuple, tuple] = {}
    for req in chosen:
        key = (req.tenant.deck, req.seed)
        if key not in serial:
            deck = deck_by_name(req.tenant.deck, EXPERIMENT_GRID)
            if req.tenant.deck not in serial_stack:
                serial_stack[req.tenant.deck] = (
                    get_backend(workload.backend, deck=deck),
                    BatchExecutor(deck.engine(), ExecutorConfig()),
                )
            backend, executor = serial_stack[req.tenant.deck]
            batch = run_generation(
                GenerationRequest(
                    backend=workload.backend, count=workload.count,
                    seed=req.seed, deck=deck,
                ),
                backend=backend,
                executor=executor,
            )
            serial[key] = (batch.clips, [int(v) for v in batch.legal])
        clips, legal = serial[key]
        same = len(clips) == len(req.clips) and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(clips, req.clips)
        )
        if not same or legal != req.result.get("legal_mask"):
            raise BenchError(
                f"{req.request_id} (seed {req.seed}) differs from serial "
                "run_generation"
            )
        if req.repeat_of is not None:
            original = by_id.get(req.repeat_of)
            if original is not None and not all(
                np.array_equal(a, b) for a, b in zip(original.clips, req.clips)
            ):
                raise BenchError(f"{req.request_id} differs from its original")
    for backend, executor in serial_stack.values():
        executor.close()
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    return len(chosen)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _hist_delta(after: dict, before: dict) -> dict:
    counts: dict = {}
    for le, n in after.get("buckets", []):
        counts[le] = counts.get(le, 0) + n
    for le, n in before.get("buckets", []):
        counts[le] = counts.get(le, 0) - n
    return {
        "count": after["count"] - before["count"],
        "total_s": (after["total_ms"] - before["total_ms"]) / 1e3,
        "max_s": after["max_ms"] / 1e3,
        "buckets": counts,
    }


def _hist_p50(delta: dict) -> float:
    """Upper bound of the bucket holding the median (the service's own
    percentile rule, applied to the window's observations only); the
    running maximum when the median is in the overflow bucket."""
    n = delta["count"]
    if n <= 0:
        return 0.0
    finite = sorted((le, c) for le, c in delta["buckets"].items() if le is not None)
    cumulative = 0
    for le, c in finite:
        cumulative += c
        if c and cumulative >= n / 2:
            return le / 1e3
    return delta["max_s"]


def _service_metrics(stats: tuple, latencies: list[float]) -> dict:
    before, after = stats
    stages = {
        name: _hist_delta(after["stages"][name], before["stages"][name])
        for name in ("queue", "gather", "model", "drc", "admit")
    }
    completed = after["completed"] - before["completed"]
    micro = after["micro_batches"] - before["micro_batches"]
    stage_mean = sum(
        s["total_s"] / s["count"] for s in stages.values() if s["count"]
    )
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return {
        "service.queue_wait_p50_s": _hist_p50(stages["queue"]),
        "service.gather_p50_s": _hist_p50(stages["gather"]),
        "service.model_p50_s": _hist_p50(stages["model"]),
        "service.drc_p50_s": _hist_p50(stages["drc"]),
        "service.admit_p50_s": _hist_p50(stages["admit"]),
        "service.micro_batches": float(micro),
        "service.requests_per_micro_batch": completed / micro if micro else 0.0,
        "service.retries": float(after["retries"] - before["retries"]),
        "service.failed": float(after["failed"] - before["failed"]),
        "service.overhead_s": mean_latency - stage_mean,
    }


def _diversity_h2(requests) -> float:
    """H2 of the tenants' libraries, rebuilt from the delivered clips."""
    from repro.geometry.hashing import pattern_hash
    from repro.metrics.entropy import h2_entropy

    seen: set[tuple] = set()
    library = []
    for req in sorted(requests, key=lambda r: r.sent_at):
        for clip, ok in zip(req.clips, req.result["legal_mask"]):
            key = (req.tenant.session, pattern_hash(clip))
            if ok and key not in seen:
                seen.add(key)
                library.append(clip)
    return h2_entropy(library)


def _end_to_end(phase: dict, setups: list[float], rss: float) -> tuple[dict, dict]:
    ok = [r for r in phase["requests"] if r.error is None]
    lo, hi = phase["window"]
    window = hi - lo
    clips = sum(len(r.clips) for r in ok)
    latencies = [r.done_at - r.sent_at for r in ok]
    tail_pct, tail, tail_slices = windowed_tail(
        (r.sent_at, r.done_at - r.sent_at) for r in ok
    )
    return {
        "setup_s": median(setups),
        "clips_per_s": clips / window,
        "legal_unique_per_s": sum(r.result["admitted"] for r in ok) / window,
        "legality_rate": sum(r.result["legal"] for r in ok) / clips,
        "diversity_h2": _diversity_h2(ok),
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail,
        "wire_bytes_per_clip": sum(r.bytes for r in ok) / clips,
        "peak_rss_mb": rss,
    }, {"latency_tail_percentile": tail_pct, "latency_tail_slices": tail_slices}


def _accounting(phase: dict) -> dict:
    requests = phase["requests"]
    failed = sum(r.error is not None for r in requests)
    repeats = [r for r in requests if r.repeat_of is not None]
    return {
        "sent": len(requests),
        "succeeded": len(requests) - failed,
        "failed": failed,
        "repeat_requests": len(repeats),
        "served_by_duplicate_rejection": sum(
            r.error is None and r.result["admitted"] == 0 for r in repeats
        ),
    }


def _check_stats(phase: dict) -> None:
    """The service's own counters agree with what the client saw."""
    before, after = phase["stats"]
    acc = _accounting(phase)
    completed = after["completed"] - before["completed"]
    failed = after["failed"] - before["failed"]
    if completed != acc["succeeded"] or failed != acc["failed"]:
        raise BenchError(
            f"stats verb counted {completed} completed / {failed} failed, "
            f"client saw {acc['succeeded']} / {acc['failed']}"
        )


def _measure(workdir, workload: Workload, seed: int, seconds: float,
             setups: int, spans_path=None) -> dict:
    """Start (``setups`` times), measure one phase, stop, check."""
    setup_times = []
    warm = None
    server = None
    for _ in range(setups):
        if server is not None:
            server.stop()
        took, server, warm = _start(workdir, workload, seed, spans_path)
        setup_times.append(took)
    try:
        phase = asyncio.run(_drive(server.port, workload, seed, 1, seconds))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    phase["setups"] = setup_times
    phase["rss"] = rss
    phase["warmup"] = _accounting(warm)
    _check_stats(phase)
    phase["checked_requests"] = _check(workload, phase, seed)
    return phase


def run(args, workdir) -> dict:
    workload = WORKLOADS[args.workload]
    # A traced run measures an untraced and a traced phase of half the
    # run length each, and sets up once per phase.
    seconds = args.seconds / 2 if args.trace else args.seconds
    measured = _measure(workdir, workload, args.seed, seconds,
                        1 if args.trace else SETUPS)
    metrics, tail = _end_to_end(measured, measured["setups"], measured["rss"])
    acc = _accounting(measured)
    accounting = {"warmup": measured["warmup"], "measured": acc}
    detail = {
        "requests": acc["sent"],
        "clips": sum(len(r.clips) for r in measured["requests"]),
        "window_s": measured["window"][1] - measured["window"][0],
        **tail,
        "checked_against_serial": measured["checked_requests"],
        "setups_s": measured["setups"],
        "service": _service_metrics(
            measured["stats"],
            [r.done_at - r.sent_at for r in measured["requests"] if r.error is None],
        ),
    }
    result = {"metrics": metrics, "attempted": acc["sent"],
              "failed": acc["failed"], "accounting": accounting,
              "detail": detail}
    if args.trace:
        import tracing

        spans_path = workdir.path / "spans.json"
        traced = _measure(workdir, workload, args.seed, seconds, 1, spans_path)
        tacc = _accounting(traced)
        accounting["traced"] = tacc
        ok = [r for r in traced["requests"] if r.error is None]
        clips = sum(len(r.clips) for r in ok)
        window = traced["window"][1] - traced["window"][0]
        latencies = [r.done_at - r.sent_at for r in ok]
        result["traced"] = {
            "spans": tracing.load_spans(spans_path),
            "window": traced["window"],
            "attempted": tacc["sent"],
            "failed": tacc["failed"],
            "wall_s": window,
            "overhead_ratio": metrics["clips_per_s"] / (clips / window),
            "client": {
                "client.decode.busy_s": traced["decode_s"],
                "payload.pages": float(sum(r.pages for r in ok)),
                "wire.frames_per_request": sum(r.frames for r in ok) / len(ok),
                **_service_metrics(traced["stats"], latencies),
            },
        }
    return result
