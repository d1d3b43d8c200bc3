"""One fresh benchmark process: set up a workload, then time its closed loop.

Started by run.py with the BLAS thread count and PYTHONPATH already set.
Set-up is everything from process start through the imports, writing the
input files and one untimed warm-up operation.  The timed loop then sends
each operation only after the previous one returned (one caller, no
concurrency).  The last line of standard output is a JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np
import scipy

from blockenc import harness
from blockenc.errors import BlockEncError

import workloads

# failures the program reports for an input, as the CLI maps them to exit codes
PROGRAM_FAILURES = (BlockEncError, ValueError, ArithmeticError, np.linalg.LinAlgError)


def run_op(spec: dict, gate) -> dict:
    """One `run_experiment` call, timed, checked by `gate(report, spec)`."""
    start = time.perf_counter()
    try:
        config = harness.ExperimentConfig(spec["task"], spec["params"], spec["seed"])
        report = harness.run_experiment(config)
        payload = report.to_json()
    except PROGRAM_FAILURES as exc:
        seconds = time.perf_counter() - start
        text = f"{type(exc).__name__}: {exc}"
        return {"seconds": seconds, "status": "error", "detail": text, "queries": 0.0,
                "gates": 0.0, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "status": "ok" if gate(report, spec) else "miss",
        "detail": f"estimate={report.estimate!r} reference={report.reference!r} "
                  f"fidelity={report.fidelity!r} relative_error={report.relative_error!r}",
        "queries": float(sum(report.ledger["queries"].values())),
        "gates": float(report.ledger["gates"]),
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "memory"), required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    ops = 3 if args.smoke else workloads.op_count(args.workload, args.seconds)
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    try:
        specs = [workloads.write_instance(args.workload, args.seed, i, args.workdir, args.smoke)
                 for i in range(ops + 1)]
        run_op(specs[0], workloads.gate)  # warm-up, untimed
        out = {"setup_s": time.monotonic() - args.t0}
        if args.mode != "setup":
            out.update(measure(args, specs[1:]))
        print(json.dumps(out))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def measure(args, specs: list[dict]) -> dict:
    tracer = None
    if args.mode in ("trace", "memory"):
        from spans import Tracer

        tracer = Tracer(ae_memory=args.mode == "memory")
        tracer.install()
        gpe_before = tracer.gpe_cache()
    results = []
    loop_start = time.perf_counter()
    for i, spec in enumerate(specs):
        if tracer:
            tracer.begin_op(i)
        results.append(run_op(spec, workloads.gate))
    loop_s = time.perf_counter() - loop_start
    out = {
        "ops": results,
        "loop_s": loop_s,
        "op_p50_s": statistics.median(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        out["layers"] = tracer.metrics(len(specs), gpe_before)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.span_records(), fh)
    else:
        side = []
        for spec in workloads.write_side_tasks(args.seed, args.workdir):
            r = run_op(spec, workloads.side_gate)
            side.append({"task": spec["task"], "status": r["status"], "detail": r["detail"]})
        out["side_tasks"] = side
    return out


if __name__ == "__main__":
    main()
