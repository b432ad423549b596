"""gstft benchmark: time one workload end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload cli-roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics traced. The full record of a run
(environment, sample counts, the workload's own metric names, spans) is
written to ``perfbench/out/``. ``--workload all`` runs every workload
untraced and traced, one process at a time, and prints every metric with the
tracing overhead. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread on every commit: the output bits of LAPACK/BLAS calls
# depend on the thread count, and this keeps the benchmark to one thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*workload_names, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    config = numpy.show_config(mode="dicts")
    return {
        "git_commit": git_commit(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_one(args) -> int:
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["environment"] = environment(args.seed)
    workloads.record_path(args.workload, args.seed, args.trace).write_text(json.dumps(result), encoding="utf-8")

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["end_to_end"].items()}
    for name, m in result["named_metrics"].items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']} (samples: {json.dumps(m['samples'])})")
    for failure in result["failures"]:
        print(f"{args.workload} FAILED: {failure}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, one child process at a time."""
    import workloads

    records = {}
    # A run measures for about --seconds after a set-up of a few times that.
    child_timeout_s = 4 * args.seconds + 60
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=child_timeout_s, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            records[workload, trace] = json.loads(workloads.record_path(workload, args.seed, trace).read_text())

    print(f"seed {args.seed}, {args.seconds:g} s per run; end-to-end metrics from untraced runs")
    for workload in workloads.WORKLOADS:
        plain, traced = records[workload, 0], records[workload, 1]
        print(f"\n[{workload}] attempted {plain['attempted']}, failed {plain['failed']}")
        traced_values = {**traced["end_to_end"], **traced["named_metrics"]}
        for name, m in {**plain["end_to_end"], **plain["named_metrics"]}.items():
            t = traced_values.get(name, {"value": None})["value"]
            overhead = "n/a" if None in (t, m["value"]) else f"{t - m['value']:+.4g}"
            print(f"  {name:<18} {m['value']!s:>22} {m['unit']:<9}"
                  f" tracing overhead {overhead} {m['unit']:<9}"
                  f" samples {json.dumps(m['samples'])}")
        for name, m in traced["layers"].items():
            if m["value"]:
                print(f"  {name:<34} {m['value']:>12.6g} {m['unit']}/op")
    summary = {f"{w}/{t}": records[w, t]["named_metrics"] for w, t in records}
    (workloads.OUT / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


def main(argv=None) -> int:
    if not (SRC / "gstft" / "__init__.py").is_file():
        print(f"error: no gstft sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads
    sys.path.insert(0, str(SRC))
    import gstft

    if Path(gstft.__file__).resolve().parent != SRC / "gstft":
        print(f"error: imported gstft from {gstft.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
