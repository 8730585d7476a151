"""One workload run in its own process: set up, loop, check, report.

Started by ``run.py``, which pins the BLAS threads and passes the monotonic
time at which it started this process, so that set-up time counts from
process start. Prints one JSON object on its last line of output.

A run goes through whole cycles of fresh items in a closed loop with one
caller until ``--seconds`` have passed. Each output is checked right after
its item, outside the item's timing. With ``--trace 1`` the first quarter of
the time runs untraced and the rest traced, from the first cycle again;
per-layer figures are per cycle of the traced part.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

# the benchmark's own modules import oscbath, so they come after the path
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from oscbath.discrete import DegenerateBath  # noqa: E402
from oscbath.quadrature import Inconclusive, NonConvergence  # noqa: E402

OUTCOMES = ("NonConvergence", "Inconclusive", "DegenerateBath", "ValueError",
            "InvalidModel_expected", "other_error", "check_failed")


class Tally:
    """Checked outcomes of every item run, and the worst margin of each check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.margins: dict = {}
        self.warnings = 0  # numpy RuntimeWarnings raised inside items
        self.counting = False  # true while an item runs

    def record(self, work: workloads.Workload, inp, out, exc) -> None:
        self.attempted += 1
        if exc is not None:
            kind = outcome_of(work, inp, exc)
            self.outcomes[kind] += 1
            self.failed += kind != "InvalidModel_expected"
            return
        try:
            ok = work.check(inp, out, self.margins)
        except Exception:  # the reference route failed: count the item
            ok = False
        if not ok:
            self.outcomes["check_failed"] += 1
            self.failed += 1


def outcome_of(work, inp, exc) -> str:
    if isinstance(exc, NonConvergence):
        return "NonConvergence"
    if isinstance(exc, Inconclusive):
        return "Inconclusive"
    if isinstance(exc, DegenerateBath):
        return "DegenerateBath"
    if work.expected_error(inp, exc):
        return "InvalidModel_expected"
    if isinstance(exc, ValueError):
        return "ValueError"
    return "other_error"


# The machine's speed drifts: identical work runs up to 1.8 times slower in
# spells from a fraction of a second to minutes, in CPU time as much as in
# wall time. A timer signal runs a fixed probe that does not call the program
# every PROBE_EVERY_S, inside items as well as between them. Each item's
# latency, less the probes inside it, is scaled by the probe's time around
# it, so that times read as on a machine where the probe takes PROBE_REF_S.
PROBE_REF_S = 2.0e-3
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.2  # an item is scaled by the median probe within this distance
SETUP_PROBES = 15  # probes right after set-up, to scale set-up time
_PROBE_ARRAY = np.arange(1.0, 40.0)


def probe() -> float:
    """Time a fixed mix of interpreted float arithmetic and small numpy calls."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 3500):
        s += math.sqrt(i) * math.exp(-i * 1e-4)
    a = _PROBE_ARRAY
    for _ in range(120):
        s += float(np.sum(a / (a * a + 1.0)))
    return time.perf_counter() - t0


class Run:
    """Items and probes of one measured phase, in time order."""

    def __init__(self):
        self.items: list[tuple[float, float, float]] = []  # (start, end, latency)
        self.probes: list[tuple[float, float]] = []  # (start, probe time)
        self.cycles = 0


def measure(work: workloads.Workload, seconds: float, tally: Tally,
            tracer: tracing.Tracer | None = None) -> Run:
    """Whole cycles of fresh items, one after another, until ``seconds`` pass."""
    run = Run()
    clock = time.perf_counter

    def on_alarm(_signum, _frame):
        start = clock()
        took = probe()
        run.probes.append((start, took))
        if tracer is not None:
            tracer.exclude(took)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        on_alarm(None, None)
        start = clock()
        inputs = work.first
        while True:
            for inp in inputs:
                if tracer is not None:
                    tracer.item, tracer.tag = len(run.items), work.tag(inp)
                out = exc = None
                tally.counting = True
                seen = len(run.probes)
                t0 = clock()
                try:
                    out = work.call(inp)
                except Exception as err:  # a failing item never stops the run
                    exc = err
                t1 = clock()
                inside = sum(took for t, took in run.probes[seen:] if t >= t0)
                run.items.append((t0, t1, t1 - t0 - inside))
                tally.counting = False
                if tracer is not None:
                    tracer.active = False
                tally.record(work, inp, out, exc)
                if tracer is not None:
                    tracer.active = True
            run.cycles += 1
            if tracer is not None and run.cycles == 1:
                tracer.snapshot_counts()
            if clock() - start >= seconds:
                break
            inputs = work.next_cycle()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    on_alarm(None, None)
    return run


def scaled_latencies(run: Run) -> list[float]:
    """Each item's latency scaled by the median probe time around it."""
    starts = [t for t, _ in run.probes]
    times = [d for _, d in run.probes]
    out = []
    for t0, t1, latency in run.items:
        # probes within the window, and at least the nearest on each side
        lo = min(bisect.bisect_left(starts, t0 - PROBE_WINDOW_S),
                 bisect.bisect_left(starts, t0) - 1)
        hi = max(bisect.bisect_right(starts, t1 + PROBE_WINDOW_S),
                 bisect.bisect_right(starts, t1) + 1)
        local = statistics.median(times[max(lo, 0):hi])
        out.append(latency * PROBE_REF_S / local)
    return out


def speed(run: Run) -> float:
    """The machine's speed over the run, relative to the reference."""
    return PROBE_REF_S / statistics.median(d for _, d in run.probes)


def latency_stats(run: Run) -> dict:
    """Throughput and latency percentiles over every item of the run."""
    ordered = sorted(scaled_latencies(run))
    n = len(ordered)
    # nearest rank of the highest percentile with ten samples beyond it;
    # p90 when there are too few samples for that, which keeps the tail on
    # one bath size on large_baths
    rank = max(n - 10, math.ceil(0.9 * n))
    return {
        "items_per_s": n / sum(ordered),
        "item_p50_ms": 1e3 * statistics.median(ordered),
        "item_tail_ms": 1e3 * ordered[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "samples": n,
        "beyond_tail": n - rank,
        "raw_items_per_s": n / sum(latency for _, _, latency in run.items),
        "speed": speed(run),
    }


def per_layer(tracer: tracing.Tracer, traced: Run, untraced: Run, tally: Tally) -> dict:
    """Per-cycle figures of the traced phase, plus the run's checks.

    Counts are those of the first traced cycle, whose inputs are the same in
    every run with the same seed. Self times are averaged over the traced
    cycles and scaled by the phase's speed.
    """
    metrics = {}
    scale = speed(traced) / traced.cycles
    for name, _, evals_from, _ in tracing.TRACED:
        calls, evals = tracer.first_counts.get(name, (0, 0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = tracer.agg.get(name, (0, 0.0, 0))[1] * scale
        if evals_from is not None:
            metrics[f"{name}.evals"] = evals
    for name in tracing.TAGGED:
        for n in workloads.LARGE_N:
            _, self_s, _ = tracer.agg.get(f"{name}@n{n}", (0, 0.0, 0))
            metrics[f"{name}.self_s.n{n}"] = self_s * scale
    for name in workloads.BOUNDS:
        metrics[name] = tally.margins.get(name, 0.0)
    cycles = untraced.cycles + traced.cycles
    for kind in OUTCOMES:
        metrics[f"outcome.{kind}"] = tally.outcomes[kind] / cycles
    metrics["discrete.runtime_warnings"] = tally.warnings / cycles
    metrics["bench.fail_frac"] = tally.failed / tally.attempted
    metrics["bench.speed"] = speed(traced)
    traced_rate = latency_stats(traced)["items_per_s"]
    untraced_rate = latency_stats(untraced)["items_per_s"]
    metrics["trace.items_per_s_untraced"] = untraced_rate
    metrics["trace.items_per_s_traced"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    metrics["trace.span_coverage"] = tracer.root_s / sum(lat for _, _, lat in traced.items)
    return metrics


def machine() -> dict:
    """Facts about the machine and libraries, recorded with every result."""
    import platform

    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out_dir = os.path.join(args.out_dir, f"{args.workload}-{os.getpid()}")
    work = workloads.make(args.workload, args.seed, out_dir)
    setup_s = time.monotonic() - args.t0
    setup_speed = PROBE_REF_S / statistics.median(probe() for _ in range(SETUP_PROBES))
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
            return 0

        tally = Tally()
        if args.trace:
            # count every warning; end-to-end runs keep the default filters,
            # under which a repeated warning costs little
            def count_warning(*_args, **_kwargs):
                tally.warnings += tally.counting

            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = count_warning

            untraced = measure(work, args.seconds / 4.0, tally)
            # the traced phase starts the seeded stream again, so that its
            # first cycle is the same in every run with this seed
            work.close()
            work = workloads.make(args.workload, args.seed, out_dir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(work, args.seconds * 3.0 / 4.0, tally, tracer)
            finally:
                tracer.uninstall()
            work.first_cycle_margins(tally.margins)
            metrics = per_layer(tracer, traced, untraced, tally)
            metrics.update(workloads.known_defects())
            stats = latency_stats(traced)
            cycles = untraced.cycles + traced.cycles
            path = os.path.join(args.out_dir,
                                f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                "cycles": traced.cycles, "machine": machine(),
                                "metrics": metrics})
        else:
            run = measure(work, args.seconds, tally)
            stats = latency_stats(run)
            metrics = {
                "items_per_s": stats["items_per_s"],
                "item_p50_ms": stats["item_p50_ms"],
                "item_tail_ms": stats["item_tail_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            cycles = run.cycles
            path = None
        print(json.dumps({
            "setup_s": setup_s, "setup_speed": setup_speed,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
            **stats,
            "cycles": cycles, "cycle_len": len(work.first), "outcomes": tally.outcomes,
            "margins": {k: [v, workloads.BOUNDS[k]] for k, v in tally.margins.items()},
            "machine": machine(),
            "trace_file": path and os.path.relpath(path, ROOT),
        }))
        return 0
    finally:
        work.close()


if __name__ == "__main__":
    sys.exit(main())
