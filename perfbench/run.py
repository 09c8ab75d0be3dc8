"""The repository benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A single run prints the human-readable metrics, one ``# detail`` line
(host fingerprint, per-phase request accounting, workload detail) and,
as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A failed set-up step or output check exits non-zero
without a result.

``--all`` runs every workload untraced and traced, one child process
each, and prints every metric of every workload by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import traceback

import common


def _spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise common.BenchError(f"cannot read {path}: {error}") from None


def _per_layer(result: dict) -> dict:
    """Per-layer metrics of a traced run (0 where a layer did not run)."""
    import tracing

    traced = result["traced"]
    metrics = tracing.layer_metrics(
        tracing.summarize(traced["spans"], traced["window"])
    )
    client = {
        "client.decode.busy_s": 0.0,
        "payload.pages": 0.0,
        "wire.frames_per_request": 0.0,
        "service.queue_wait_p50_s": 0.0,
        "service.gather_p50_s": 0.0,
        "service.model_p50_s": 0.0,
        "service.drc_p50_s": 0.0,
        "service.admit_p50_s": 0.0,
        "service.micro_batches": 0.0,
        "service.requests_per_micro_batch": 0.0,
        "service.retries": 0.0,
        "service.failed": 0.0,
        "service.overhead_s": 0.0,
    }
    client.update(traced.get("client", {}))
    metrics.update(client)
    metrics["trace.wall_s"] = float(traced["wall_s"])
    metrics["trace.overhead_ratio"] = float(traced["overhead_ratio"])
    return metrics


def run_one(args) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise common.BenchError(f"unknown workload {args.workload!r}; {names}")
    common.require_sources()
    if args.workload == "loop-sd1ft":
        import loop as workload
    else:
        import served as workload

    started = time.monotonic()
    cpu_before = common.cpu_times()
    workdir = common.Workdir()
    try:
        result = workload.run(args, workdir)
        workdir.check_untrained()
    finally:
        workdir.close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = _per_layer(result) if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise common.BenchError(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    attempted = result["traced"]["attempted"] if args.trace else result["attempted"]
    failed = result["traced"].get("failed", 0) if args.trace else result["failed"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {int(args.trace)}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'error_rate':36s} {failed / max(attempted, 1):14.6g} ratio"
          f"  ({failed} failed of {attempted} sent)")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "host": common.host_fingerprint(),
        "host_cpu_shares": common.cpu_shares(cpu_before, common.cpu_times()),
        "accounting": result["accounting"],
        "detail": result["detail"],
        "run_wall_s": time.monotonic() - started,
    }
    if args.trace and "table2" in result["traced"]:
        detail["traced_table2"] = result["traced"]["table2"]
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows: dict[str, dict[str, float]] = {}
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=common.ROOT, stdout=subprocess.PIPE,
                                  text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            column = rows.setdefault(workload["name"], {})
            for name, entry in result["metrics"].items():
                column[name] = entry["value"]
    workloads = list(rows)
    print()
    print(f"{'metric':36s} {'unit':8s} " + " ".join(f"{w:>18s}" for w in workloads))
    for name, unit in units.items():
        cells = " ".join(
            f"{rows[w].get(name, float('nan')):18.6g}" for w in workloads
        )
        print(f"{name:36s} {unit:8s} {cells}")
    common.WORK_ROOT.mkdir(exist_ok=True)
    (common.WORK_ROOT / "last-all.json").write_text(json.dumps(rows, indent=1))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(_spec()["run_seconds"])
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("--workload or --all is required")
        return run_one(args)
    except Exception:  # noqa: BLE001 - the run fails with its reason
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
