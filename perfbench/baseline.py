"""Run every workload over several seeds and summarise the spread of each metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --write

For each workload it makes ten untraced runs, seeds 1 to 10, then one
traced run, all through ``run.py`` with ``run_seconds`` from
``BENCHMARK.json``.  It prints each end-to-end metric's median, quartiles
and spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) next to its bound, and the traced
run's per-layer metrics.  ``--write`` stores the summary in
``perfbench/BASELINE.json``.  It exits 1 if any run was incorrect or failed
an operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the summary in perfbench/BASELINE.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "runs": RUNS, "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            environment, result = run_once(workload, seed, seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        _, traced = run_once(workload, 1, seconds, 1)
        ok &= traced["correct"] and traced["failed"] == 0
        summary["environment"] = environment
        summary["workloads"][workload] = {
            "end_to_end": {name: summarise(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, s in summary["workloads"][workload]["end_to_end"].items():
            print(f"{workload:16s} {name:16s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:.3f}  bound {bounds[name]}", flush=True)
        for name, value in summary["workloads"][workload]["per_layer"].items():
            print(f"{workload:16s} {name:36s} {value:.6g}", flush=True)
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
