"""Run the benchmark over several seeds and write a summary JSON.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload: one --trace 0 run per seed (median, quartiles and
quartile spread of every end-to-end metric, plus failed/attempted per seed),
then one --trace 1 run on the first seed for the per-layer metrics.  Each
run is a separate `perfbench/run.py` process, exactly as a harness would
start it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return dict(json.loads(lines[-1]), environment=lines[0].split(": ", 1)[1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    seconds = bench["run_seconds"]
    result = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, s, seconds, 0) for s in seeds]
        entry = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in bench["end_to_end"]},
        }
        traced = run(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        result["environment"] = runs[0]["environment"]
        result["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:17s} {name:15s} median={s['median']:.6g} spread={s['spread']:.4f}")
        print(f"{workload:17s} failed={entry['failed']} correct={all(entry['correct'])}",
              flush=True)
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
