"""oscbath benchmark launcher.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs the workload in a child process with BLAS pinned to one thread, plus
a few set-up-only children so that set-up time is a median. Prints the
metrics by name and unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. ``--workload all`` runs the four workloads one after another
and prints every end-to-end metric of each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("grids", "models", "small_baths", "large_baths")

SETUP_ONLY_RUNS = 14  # plus the measured run itself: set-up is a median of fifteen
TIME_LIMIT_S = 170.0  # a run, set-up children included, must end within this

EXCLUDED = (
    "report --tol 1e-15: an unbounded run of more than 120 s (known defect 4)",
    "discrete baths with N >= 1024: minutes per item with today's bisection",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, name: str, deadline: float, setup_only: bool) -> dict:
    """Start one worker, wait for it and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("time limit reached before the run could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(args, name: str, spec: dict, deadline: float) -> dict:
    children = [spawn(args, name, deadline, True) for _ in range(SETUP_ONLY_RUNS)]
    result = spawn(args, name, deadline, False)
    children.append(result)
    setup_s = statistics.median(child["setup_s"] * child["setup_speed"]
                                for child in children)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = dict(result["metrics"], setup_s=setup_s)
    metrics = {}
    for m in wanted:
        if m["name"] not in got:
            raise BenchError(f"worker did not report {m['name']}")
        metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}
    result["metrics"] = metrics
    result["setup_raw_s"] = statistics.median(child["setup_s"] for child in children)
    return result


def describe(name: str, result: dict) -> None:
    print(f"# workload {name}: {result['attempted']} items attempted, "
          f"{result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g}), "
          f"{result['cycles']} cycles of {result['cycle_len']}")
    print(f"#   item_tail_ms is p{result['tail_percentile']:.4g} of "
          f"{result['samples']} samples, {result['beyond_tail']} beyond it")
    print(f"#   machine speed {result['speed']:.4g} of the reference; unscaled "
          f"{result['raw_items_per_s']:.6g} items/s and set-up "
          f"{result['setup_raw_s']:.4g} s")
    nonzero = {k: v for k, v in result["outcomes"].items() if v}
    if nonzero:
        print(f"#   outcomes: {nonzero}")
    for check, (worst, bound) in result["margins"].items():
        print(f"#   worst {check}: {worst:.3g} against the bound {bound:.3g}")
    if result.get("trace_file"):
        print(f"#   spans written to {result['trace_file']}")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        for needed in ("src/oscbath/__init__.py", "tests/goldens.py", "BENCHMARK.json"):
            if not os.path.isfile(os.path.join(ROOT, needed)):
                raise BenchError(f"{needed} not found: run from a checkout of oscbath")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        os.makedirs(OUT_DIR, exist_ok=True)

        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(args, name, spec, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    first = next(iter(results.values()))
    print(f"# machine: {json.dumps(first['machine'])}")
    for item in EXCLUDED:
        print(f"# not measured: {item}")
    for name, result in results.items():
        describe(name, result)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload == "all":
        summary["workloads"] = {name: r["metrics"] for name, r in results.items()}
    else:
        summary["metrics"] = first["metrics"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
