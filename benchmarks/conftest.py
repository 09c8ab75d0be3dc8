"""Benchmark-suite plumbing.

Every bench registers its rendered paper-style table via :func:`report`;
the terminal-summary hook prints them after the pytest-benchmark timing
tables, and a copy is written to ``.artifacts/results/benchmark-report.txt``
so the output survives the run.

The heavyweight experiment data (model runs, baseline campaigns, solver
sweeps) is computed once and cached under ``.artifacts/results`` by the
:mod:`repro.experiments` layer — the first full benchmark invocation trains
nothing (models come from the zoo) but does generate samples; subsequent
invocations re-render from cache in seconds.

Benches that write a ``BENCH_*.json`` artifact record
:func:`host_fingerprint` in it, so every row carries the host it was
measured on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

_REPORTS: list[tuple[str, str]] = []


def report(title: str, text: str) -> None:
    """Register a rendered table for the end-of-run summary."""
    _REPORTS.append((title, text))


def host_fingerprint() -> dict:
    """What a row's numbers depend on besides the code.

    Read it after the runs: the first row-sharded forward pins OpenBLAS
    to one thread for the process, which ``blas_threads`` reports.
    """
    from repro.nn.shards import blas_threads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception as error:  # noqa: BLE001 - recorded, not fatal
        vendor = f"unknown ({error})"
    return {
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
    }


@pytest.fixture(scope="session")
def reporter():
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction tables")
    lines = []
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {title} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)
        lines.append(f"=== {title} ===\n{text}\n")
    try:
        from repro.experiments.common import results_dir

        out = results_dir() / "benchmark-report.txt"
        out.write_text("\n".join(lines))
        terminalreporter.write_line(f"\n[report copy: {out}]")
    except Exception:  # pragma: no cover - cache dir unavailable
        pass
