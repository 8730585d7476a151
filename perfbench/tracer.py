"""Span tracer for the traced benchmark run.

Wraps each public function of the program under every name its callers
look it up by (module globals, or names imported into another module), so
the calls are timed from outside without editing the program. Each wrapped
call records its duration, its self time (duration minus the wrapped calls
it made) and, for quadrature, its integrand-evaluation count. Spans of
the outer functions are kept in memory and written out after the run; the
functions called at every integrand point are only aggregated, so the span
list stays small.
"""

from __future__ import annotations

import functools
import json
import time

from oscbath import cli, discrete, quadrature, specfun, spectral, thermo

# (metric name, hot, evaluation source, modules whose global is patched)
# hot functions run at every integrand point or bisection step: they are
# aggregated but keep no spans.
# evaluation source: "result" reads IntegralResult.evaluations, "children"
# sums the evaluations of the wrapped calls made inside the span.
TRACED = (
    ("specfun.exp_e1", True, None, (specfun,)),
    ("specfun.exp_neg_ei", True, None, (specfun,)),
    ("quadrature.integrate_interval", False, "result", (quadrature,)),
    ("quadrature.integrate_semi_infinite", False, "result", (quadrature, thermo)),
    ("quadrature.classify_tail", False, "children", (quadrature, thermo)),
    ("spectral.g_plus", True, None, (spectral, thermo)),
    ("spectral.gamma_plus", True, None, (spectral,)),
    ("spectral.gamma_plus_derivative", True, None, (spectral, thermo)),
    ("spectral.classify_model", True, None, (spectral, thermo)),
    ("thermo.thermo_report", False, None, (thermo,)),
    ("thermo.k_exponential", False, "children", (thermo,)),
    ("thermo.k_extended_drude1", False, "children", (thermo,)),
    ("thermo.system_energy_0_cont", False, "children", (thermo,)),
    ("thermo.free_energy_0_cont", False, "children", (thermo,)),
    ("thermo.k_cont", False, "children", (thermo,)),
    ("discrete.invariant_violations", False, None, (discrete,)),
    ("discrete.normal_modes", False, None, (discrete,)),
    ("discrete.d_chi", True, None, (discrete,)),
    ("discrete.k_second_law", False, None, (discrete,)),
    ("discrete.exact_ground_state_oracle", False, None, (discrete,)),
    ("cli.main", False, None, (cli,)),
)

# functions whose totals are also kept per item tag (the bath size N)
TAGGED = ("discrete.normal_modes", "discrete.k_second_law",
          "discrete.exact_ground_state_oracle")


class Tracer:
    """Installs timing wrappers, aggregates per function, keeps spans."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, item, name, start, end)
        self.agg: dict[str, list] = {}  # name -> [calls, self_s, evals]
        self.first_counts: dict[str, tuple] = {}  # name -> (calls, evals), first cycle
        self.active = True  # false while the benchmark checks an output
        self.item = -1
        self.tag: str | None = None
        self.root_s = 0.0  # summed duration of spans with no traced parent
        self._stack: list[list] = []  # frames: [child_s, child_evals, span id]
        self._next_id = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        for name, hot, evals, modules in TRACED:
            attr = name.split(".", 1)[1]
            original = getattr(modules[0], attr)
            wrapper = self._wrap(name, original, hot, evals)
            for mod in modules:
                self._patched.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _entry(self, key: str) -> list:
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0]
        return entry

    def _wrap(self, name, fn, hot, evals_from):
        stack = self._stack
        entry = self._entry(name)
        tagged = name in TAGGED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, 0, None]
            if not hot:
                frame[2] = self._next_id
                self._next_id += 1
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except quadrature.NonConvergence as exc:
                result = exc.partial
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if evals_from == "result":
                    evals = getattr(result, "evaluations", 0)
                else:
                    evals = frame[1]
                entry[0] += 1
                entry[1] += own
                entry[2] += evals
                if tagged and self.tag is not None:
                    t_entry = self._entry(f"{name}@{self.tag}")
                    t_entry[0] += 1
                    t_entry[1] += own
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += evals
                    parent_id = parent[2]
                else:
                    parent_id = None
                    self.root_s += dur
                if not hot:
                    self.spans.append((frame[2], parent_id, self.item, name, t0, t1))

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent outside the program out of the open span."""
        if self._stack:
            self._stack[-1][0] += seconds
            self.root_s -= seconds

    def snapshot_counts(self) -> None:
        """Keep the calls and evaluations counted so far."""
        self.first_counts = {name: (e[0], e[2]) for name, e in self.agg.items()}

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON object per kept span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, item, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "item": item, "name": name,
                    "start": t0, "end": t1,
                }) + "\n")
