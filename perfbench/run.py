"""Repository benchmark: one workload, closed loop, fresh processes.

    python3 perfbench/run.py --workload dense-qls --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workloads, metrics and units are listed
in perfbench/README.md and BENCHMARK.json.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics.

Every process the benchmark starts is a fresh interpreter running
perfbench/worker.py, so each run's lru_caches and resident memory start
cold.  This file imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3  # set-up is measured this many times per run; the median is reported
DEADLINE_S = 170.0  # a run must exit within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Pin BLAS to one thread before numpy loads.

    One thread is at most nproc on any machine.  On a shared 2-CPU machine,
    runs with two BLAS threads varied more from run to run.  The thread count
    also changes the last bits of results, and with them the report hashes
    the reproducibility record compares.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    # a relative path that is the same for every process of this seed: the
    # harness digests the input paths into each report
    workdir = os.path.join(os.path.basename(OUT), "work",
                           f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    if mode == "trace":
        cmd += ["--spans-out", os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker ({mode}) exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker ({mode}) printed no result")
    return json.loads(lines[-1])


def check_reproducible(args, ops: list[dict]) -> list[str]:
    """Compare per-operation ledgers and report hashes with earlier runs of this seed."""
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-n{len(ops)}{'-smoke' if args.smoke else ''}.json"
    path = os.path.join(OUT, "records", name)
    record = [{k: op[k] for k in ("status", "queries", "gates", "sha256")} for op in ops]
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        return []
    with open(path) as fh:
        earlier = json.load(fh)
    return [f"operation {i}: {old} != {new}"
            for i, (old, new) in enumerate(zip(earlier, record)) if old != new]


def summarize(args, measured: dict) -> list[str]:
    """Misses, failed side tasks and reproducibility differences of the measuring run."""
    ops = measured["ops"]
    problems = [f"operation {i} missed its tolerance: {op['detail']}"
                for i, op in enumerate(ops) if op["status"] == "miss"]
    problems += [f"side task {t['task']} {t['status']}: {t['detail']}"
                 for t in measured.get("side_tasks", []) if t["status"] != "ok"]
    problems += [f"reproducibility: {m}" for m in check_reproducible(args, ops)]
    return problems


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    measured = spawn(args, "measure", deadline)
    setups.append(measured["setup_s"])
    ops = measured["ops"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / measured["loop_s"],
        "op_p50_s": measured["op_p50_s"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    return metrics, measured, []


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    measured = spawn(args, "measure", deadline)
    traced = spawn(args, "trace", deadline)
    memory = spawn(args, "memory", deadline)
    metrics = dict(traced["layers"])
    metrics["vtime.ae_retained_mb"] = memory["layers"]["vtime.ae_retained_mb"]
    for key in ("queries", "gates"):
        metrics[f"ledger.{key}"] = sum(op[key] for op in measured["ops"]) / len(measured["ops"])
    metrics["trace.overhead_frac"] = (
        (traced["op_p50_s"] - measured["op_p50_s"]) / measured["op_p50_s"])
    # the traced runs must reproduce the untraced run's reports exactly
    problems = [f"traced run: {m}" for run in (traced, memory)
                for m in check_reproducible(args, run["ops"])]
    return metrics, measured, problems


def main() -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "blockenc", "harness.py")):
            raise BenchError(f"no blockenc sources under {os.path.join(ROOT, 'src')}")
        catalogue = bench["per_layer" if args.trace else "end_to_end"]
        metrics, measured, problems = (per_layer if args.trace else end_to_end)(args, deadline)
        problems += summarize(args, measured)
        ops = measured["ops"]
        attempted, failed = len(ops), sum(op["status"] != "ok" for op in ops)
        correct = not problems
        names = [m["name"] for m in catalogue]
        if sorted(names) != sorted(metrics):
            raise BenchError(f"metrics {sorted(metrics)} do not match "
                             f"BENCHMARK.json {sorted(names)}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(measured['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed (failed_frac {failed / attempted:.4f}), correct={correct}")
    for op in ops:
        if op["status"] != "ok":
            print(f"  {op['status']}: {op['detail']}")
    for m in catalogue:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
