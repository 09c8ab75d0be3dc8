"""Shared pieces of the benchmark: paths, the pinned model, statistics
and the host fingerprint.

Everything the benchmark writes goes under ``<checkout>/.perfbench/``
(``WORK_ROOT``): one scratch directory per invocation, removed when the
invocation ends, plus ``state.json``, which keeps the library digest of
every loop seed seen so that a repeated seed must reproduce it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: The finetuned ``sd1-ft`` zoo checkpoint, committed so that no run
#: trains a model and every checkout measures the same weights.
MODEL_FILE = BENCH_DIR / "model" / "finetuned-sd1-32.npz"
MODEL_SHA256 = "59887948b81b445ea333143129b6a7d4fdae12cd2404250ae914ce37c628eb26"

#: Environment variables that change how numpy's BLAS threads behave.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """A failed set-up step or output check; fails the benchmark run."""


def require_sources() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Workdir:
    """A scratch directory holding a verified copy of the pinned model.

    ``artifacts`` is what ``REPRO_ARTIFACTS`` points at, for this process
    and for every server it starts, so that the zoo loads the pinned
    checkpoint instead of training one.
    """

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.artifacts = self.path / "artifacts"
        self.artifacts.mkdir()
        found = sha256_file(MODEL_FILE)
        if found != MODEL_SHA256:
            raise BenchError(
                f"pinned model {MODEL_FILE.name} has sha256 {found}, "
                f"expected {MODEL_SHA256}"
            )
        shutil.copyfile(MODEL_FILE, self.artifacts / MODEL_FILE.name)
        os.environ["REPRO_ARTIFACTS"] = str(self.artifacts)

    def env(self) -> dict:
        """Environment for a child process: sources on the path, pinned
        model, unbuffered output."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_ARTIFACTS"] = str(self.artifacts)
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def check_untrained(self) -> None:
        """The run loaded the pinned model and trained nothing new."""
        extra = sorted(
            p.name for p in self.artifacts.glob("*.npz")
            if p.name != MODEL_FILE.name
        )
        if extra:
            raise BenchError(f"a model was trained during the run: {extra}")
        if sha256_file(self.artifacts / MODEL_FILE.name) != MODEL_SHA256:
            raise BenchError("the pinned model copy changed during the run")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def source_digest() -> str:
    """Content hash of the program sources (keys remembered digests)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def remembered(key: str, value: str) -> str | None:
    """Store ``value`` under ``key``; return what was stored before."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = WORK_ROOT / "state.json"
    try:
        state = json.loads(path.read_text())
    except (OSError, ValueError):
        state = {}
    previous = state.get(key)
    state[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(path)
    return previous


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``.  Percentile ``p`` leaves
    ``n * (1 - p/100)`` samples above it, so the highest one that leaves
    ten is ``100 * (1 - 10/n)``, rounded down to a whole percent.  Below
    20 samples that percentile would fall under the median, so the
    maximum (reported as percentile 100) stands in.  Values are read
    with the nearest-rank rule.
    """
    values = sorted(values)
    n = len(values)
    if not n:
        return 0.0, 0.0
    if n < 20:
        return 100.0, float(values[-1])
    pct = int(100 * (1 - 10 / n))
    return float(pct), _nearest_rank(values, pct)


def _nearest_rank(ordered, pct: int) -> float:
    rank = max(1, -(-pct * len(ordered) // 100))
    return float(ordered[rank - 1])


#: Slicing of ``windowed_tail``: send-time slice width, the samples a
#: slice needs to count, and the counted slices needed to use slicing.
TAIL_SLICE_S = 1.0
TAIL_SLICE_MIN = 100
TAIL_MIN_SLICES = 5


def windowed_tail(samples) -> tuple[float, float, int]:
    """p99 latency as a steady figure: the median of per-slice p99s.

    ``samples`` are ``(send time, latency)`` pairs.  They are cut into
    ``TAIL_SLICE_S`` slices by send time; each slice holding at least
    ``TAIL_SLICE_MIN`` samples gives its nearest-rank p99, and the result
    is the median of those.  A host stall lifts the p99 of the slices it
    falls in, not of the whole run, so the median shrugs it off where
    one p99 over the run (its ~25 slowest requests) would not.  With
    fewer than ``TAIL_MIN_SLICES`` such slices, ``tail_percentile`` over
    all samples stands in.

    Returns ``(percentile, value, slices used)``; 0 slices means the
    fallback.
    """
    samples = list(samples)
    if not samples:
        return 0.0, 0.0, 0
    t0 = min(t for t, _ in samples)
    slices: dict[int, list[float]] = {}
    for t, latency in samples:
        slices.setdefault(int((t - t0) // TAIL_SLICE_S), []).append(latency)
    full = [sorted(v) for v in slices.values() if len(v) >= TAIL_SLICE_MIN]
    if len(full) < TAIL_MIN_SLICES:
        pct, value = tail_percentile(latency for _, latency in samples)
        return pct, value, 0
    return 99.0, median(_nearest_rank(v, 99) for v in full), len(full)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def cpu_times() -> list[int]:
    """The host's aggregate CPU counters (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def cpu_shares(before: list[int], after: list[int]) -> dict:
    """Busy and stolen shares of all CPU time between two readings.

    Steal is time a virtual CPU was ready but the hypervisor ran someone
    else; a run with high steal measured a contended host.
    """
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    idle = delta[3] + delta[4]
    steal = delta[7] if len(delta) > 7 else 0
    return {
        "busy": (total - idle - steal) / total,
        "steal": steal / total,
    }



def _blas_threads() -> int | None:
    """Live OpenBLAS thread count, read through numpy's bundled library."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_fingerprint() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception as error:  # noqa: BLE001 - recorded, not fatal
        blas_name = f"unknown ({error})"
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "machine": platform.machine(),
    }
