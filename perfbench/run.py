"""Benchmark of the pnpfem Picard march.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload smooth-a1-n64 --seed 0 --seconds 30
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload wave-a2-c025 --trace 1

One single-threaded process measures one workload: BLAS and OpenMP are
pinned to one thread before numpy loads, and ``all`` starts one process per
workload, one after the other.  ``--trace 0`` reports the end-to-end
metrics of untraced marches; ``--trace 1`` adds traced marches and reports
the per-layer metrics.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` (steps) and ``metrics``; the
line before it holds the details: sample counts, the environment, the
failed-step fraction and the reason the workload was chosen.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("smooth-a1-n64", "wave-a2-c025", "selective-a1-c025")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap():
    """Pin native threads to one and import pnpfem from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "pnpfem", "__init__.py")):
        _fail(f"no pnpfem sources under {SRC}")
    sys.path.insert(0, SRC)
    import pnpfem
    if os.path.dirname(os.path.dirname(os.path.abspath(pnpfem.__file__))) \
            != SRC:
        _fail(f"pnpfem imported from {pnpfem.__file__}, not from {SRC}")


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_one(args):
    bootstrap()
    from measure import END_TO_END, LAYERS, measure
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    res = measure(wl, args.seed, args.seconds, bool(args.trace))
    print(f"{wl.name} seed={args.seed}: {wl.why}")
    units = dict(END_TO_END)
    rows = [(k, v, units[k], n) for k, (v, n) in res["e2e"].items()]
    frac, attempted = res["failed_step_frac"]
    rows.append(("failed_step_frac", frac, "1", attempted))
    for name, value, unit, n in rows:
        print(f"  {name:24s} {value:14.6g} {unit:6s} n={n}")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    if args.trace:
        layer_units = {name: unit for name, unit, _, _ in LAYERS}
        metrics = {k: {"value": v, "unit": layer_units[k]}
                   for k, v in res["layers"].items()}
        for k, m in metrics.items():
            print(f"  {k:32s} {m['value']:14.6g} {m['unit']}")
        if res["absent"]:
            print(f"  absent (boundary missing): {res['absent']}")
    else:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, (v, _) in res["e2e"].items()}
    detail = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "horizon_T": wl.horizon,
        "samples": {k: n for k, (_, n) in res["e2e"].items()},
        "e2e": {k: v for k, (v, _) in res["e2e"].items()},
        "failed_step_frac": res["failed_step_frac"][0],
        "absent": res.get("absent", []),
        "traced_marches": res.get("traced_marches", 0),
        "environment": environment(),
    }
    if args.trace:
        detail["layers"] = res["layers"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


def run_all(args):
    """One process per workload; prints their tables and a merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark of the pnpfem Picard march.")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement time of one workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
