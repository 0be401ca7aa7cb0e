"""Skirmish benchmark: one workload, one run, one JSON line of results.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload rollout_25m --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` next to this directory, never an
installed copy, and exits 2 without a result when that is missing.  BLAS
is pinned to one thread before numpy is imported, and the process to one
CPU, the highest-numbered it may use (device interrupts tend to land on
CPU 0).  No workload runs two threads at once: serve's server and client
take turns over the socket and the GIL.  On a shared 2-vCPU host, waking
the other thread on the other vCPU made serve 15-20% slower and its tail
half again as long, and how much so changed from run to run.

Standard output holds the run environment, every metric by name, unit and
sample count, the output checks and ``error_rate``; its last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones (see ``workloads.py``).  A traced run also writes its spans
to ``perfbench/results/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path(__file__).resolve().parent / "results"


def git_revision(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def import_seconds(src: Path, repeats: int) -> float:
    """Median time a fresh interpreter takes to import numpy and the package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import numpy, skirmish; print(time.perf_counter() - t0)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_environment(np, nproc: int, cpu: int) -> dict:
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: found.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_revision": git_revision(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="rollout_25m, train_qmix_MMM2 or serve_25m")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "skirmish" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    import skirmish
    import workloads

    if Path(skirmish.__file__).resolve().parent != (src / "skirmish").resolve():
        print(f"perfbench: imported skirmish from {skirmish.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.RUNNERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.RUNNERS)}")

    print(json.dumps({"environment": run_environment(np, len(allowed), cpu), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}), flush=True)
    import_s = 0.0 if args.trace else import_seconds(src, workloads.SETUP_REPEATS)
    out = workloads.RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), import_s)

    for name, (value, unit) in out.metrics.items():
        n = out.samples.get(name)
        print(f"metric {name} = {value:.6g} {unit}" + (f" (n={n})" if n is not None else ""))
    for name, value in out.notes.items():
        print(f"note {name} = {value}")
    for name, ok, detail in out.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    print(f"error_rate = {out.failed / max(out.attempted, 1):.6g} ({out.failed} of {out.attempted})")
    if out.tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        out.tracer.write_jsonl(RESULTS / f"spans-{args.workload}.jsonl")
    print(json.dumps({
        "correct": out.correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
