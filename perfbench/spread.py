"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on one workload and prints, for each metric,
the values, their median and the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
next to a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload models --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        limit = metric["bound"] / 3.0
        flag = "ok" if spread < limit else "WIDE"
        steady &= flag == "ok"
        print(f"{metric['name']:14s} median {med:.6g} {metric['unit']:5s} "
              f"spread {spread:.4f} (a third of the bound: {limit:.4f}) {flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
