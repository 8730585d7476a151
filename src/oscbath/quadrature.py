"""Adaptive quadrature on the half line, and tail-divergence classification.

Every integrand maps a 1-D ndarray of nodes to shape ``(n,)``, one value
per node, or ``(n, m)``, one row of ``m`` entries per node that share one
set of panels; results are then floats or ndarrays of shape ``(m,)``, and
``evaluations`` counts nodes.

Finite intervals are integrated with an adaptive Gauss(7)-Kronrod(15) rule;
callers may declare interior split points (resonances, cutoffs) to seed
the initial subdivision, and the half line is mapped onto [0, 1) by
x = t/(1-t). All starting panels go through one call. Each refinement
round bisects the worst panels together (as many as it takes for the rest
to be within ``tol/2`` for every entry) and evaluates the new panels in one
call. Once the first call has shown the number of entries, a call takes at
most ``MAX_BATCH`` node-entries. Each entry's summed error estimate ends at
most ``tol``, and a panel narrower than ``PANEL_ULPS`` ulps of its
endpoints that still misses it raises ``NonConvergence`` instead of being
refined further.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "IntegralResult",
    "DivergenceClass",
    "DivergenceTag",
    "NonConvergence",
    "Inconclusive",
    "integrate_interval",
    "integrate_semi_infinite",
    "classify_tail",
]

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss weights on the shared nodes.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# a result: one float, or a 1-D ndarray of entries on shared panels
Entries = Union[float, np.ndarray]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_EVALS = 2_000_000
# a panel this many ulps of its endpoints wide is not refined: its 15 nodes
# collapse onto a few floats and K15 - G7 no longer measures its error
PANEL_ULPS = 64
# most nodes x entries one call of f takes
MAX_BATCH = 8192
# classify_tail's geometric panels over its window, and the tolerance of each
TAIL_PANELS = 12
TAIL_TOL = 1e-6


class NonConvergence(RuntimeError):
    """Raised when the evaluation budget is exhausted before the tolerance."""

    def __init__(self, message: str, partial: "IntegralResult"):
        super().__init__(message)
        self.partial = partial


class Inconclusive(RuntimeError):
    """Raised when tail classification cannot distinguish the candidate laws."""


@dataclass(frozen=True)
class IntegralResult:
    value: Entries
    abs_error_estimate: Entries
    evaluations: int
    converged: bool


class DivergenceTag(enum.Enum):
    CONVERGENT = "Convergent"
    LOG_DIVERGENT = "LogDivergent"
    POWER_DIVERGENT = "PowerDivergent"


@dataclass(frozen=True)
class DivergenceClass:
    tag: DivergenceTag
    sign_of_tail: str  # "+", "-", or "mixed"

    def __str__(self) -> str:
        return f"{self.tag.value}({self.sign_of_tail})"


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Adaptive GK15 integral of f over the finite interval [a, b], a < b.

    Every entry's summed error estimate ends at most ``tol``. Raises
    NonConvergence, carrying the partial result, when the budget runs out
    or a panel at machine width misses the tolerance.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("interval must satisfy a < b, both finite")
    edges = np.array(sorted({a, b, *(p for p in split_points if a < p < b)}))
    value, err, evals, ndim = _refine_batched(
        f, edges, np.zeros(len(edges) - 1, dtype=np.intp), tol, max_evals)
    return _result(value[0], err[0], evals, True, ndim)


# the 15 Kronrod nodes on [-1, 1] in ascending order; the rows of _RULES,
# shaped to broadcast over (panels, nodes, entries), weight them into K15
# and K15 - G7
_NODES = np.array([-x for x in _XK[:-1]] + [0.0] + list(reversed(_XK[:-1])))
_RULES = np.array([
    list(_WK[:-1]) + [_WK[-1]] + list(reversed(_WK[:-1])),
    [_WG[(i - 1) // 2] if i % 2 else 0.0 for i in range(7)] + [_WG[3]]
    + [_WG[(i - 1) // 2] if i % 2 else 0.0 for i in reversed(range(7))],
])
_RULES[1] = _RULES[0] - _RULES[1]
_RULES = _RULES[:, :, None]


def _gk15(f: Callable, lo: np.ndarray, hi: np.ndarray, m: int):
    """K15 values and |K15 - G7| errors, shape (panels, entries), of the
    panels [lo, hi], with at most MAX_BATCH node-entries per call of f.

    ``m`` is the number of entries (1 until a call of f shows it); the
    dimension of f's output is returned third.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    parts = []
    i = 0
    while i < len(lo):
        step = max(1, MAX_BATCH // (15 * m))
        nodes = c[i:i + step, None] + h[i:i + step, None] * _NODES
        y = np.asarray(f(nodes.ravel()), dtype=float)
        rows = y.reshape(len(nodes), 15, -1)
        # weighted sums, not matmul: the BLAS path costs resident memory
        parts.append([(rows * w).sum(axis=1) for w in _RULES])
        m = rows.shape[2]
        i += step
    value, diff = (np.concatenate(p) for p in zip(*parts))
    return h[:, None] * value, np.abs(h[:, None] * diff), y.ndim


def _refine_batched(f: Callable, edges: np.ndarray, seg: np.ndarray, tol: float,
                    max_evals: int):
    """Refine the panels between consecutive ``edges`` in rounds until the
    summed error of every segment and entry is at most ``tol``; panel i
    belongs to segment ``seg[i]`` (nondecreasing from 0).

    Returns the values and errors summed per segment, of shape (segments,
    entries), the number of nodes evaluated, and the dimension of f's output.
    """
    lo, hi = edges[:-1], edges[1:]
    n_seg = int(seg[-1]) + 1
    val, err, ndim = _gk15(f, lo, hi, 1)
    evals = 15 * len(lo)
    while True:
        seg_err = _segment_sums(seg, err, n_seg)
        failing = ~(seg_err <= tol).all(axis=1)  # a NaN error fails
        if not failing.any():
            break
        worst = err.max(axis=1)
        if n_seg == 1:
            pick = _to_bisect(err, worst, seg_err[0], tol)
        else:
            pick = _to_bisect_segments(err, worst, seg, seg_err, failing, tol)
        room = max(0, (max_evals - evals) // 30)
        if len(pick) > room:
            pick = pick[np.argsort(-worst[pick], kind="stable")[:room]]
        p_lo, p_hi = lo[pick], hi[pick]
        narrow = p_hi - p_lo < PANEL_ULPS * np.spacing(np.maximum(np.abs(p_lo), np.abs(p_hi)))
        if room < 1 or narrow.any():
            if room < 1:
                message = (f"quadrature budget exhausted: error {np.nanmax(seg_err):.3e} "
                           f"> tol {tol:.3e}")
            else:
                i = pick[np.argmax(narrow)]
                message = (f"panel [{float(lo[i])!r}, {float(hi[i])!r}] at machine width "
                           f"still has error {worst[i]:.3e} (tol {tol:.3e})")
            partial = _result(val.sum(axis=0), err.sum(axis=0), evals, False, ndim)
            raise NonConvergence(message, partial)
        mid = 0.5 * (p_lo + p_hi)
        new_lo = np.concatenate((p_lo, mid))
        new_hi = np.concatenate((mid, p_hi))
        new_val, new_err, _ = _gk15(f, new_lo, new_hi, val.shape[1])
        evals += 15 * len(new_lo)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        seg = np.concatenate((seg[keep], seg[pick], seg[pick]))
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))
    return _segment_sums(seg, val, n_seg), seg_err, evals, ndim


def _segment_sums(seg: np.ndarray, x: np.ndarray, n_seg: int) -> np.ndarray:
    if n_seg == 1:
        return x.sum(axis=0, keepdims=True)
    sums = np.zeros((n_seg, x.shape[1]))
    np.add.at(sums, seg, x)
    return sums


def _to_bisect(err: np.ndarray, worst: np.ndarray, total: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the worst panels, as many as it takes for the summed error
    of the rest to be within tol/2 for every entry."""
    order = np.argsort(-worst, kind="stable")
    ranked = err[order]
    left = total - np.cumsum(ranked, axis=0) + ranked  # error left before each
    return order[:np.count_nonzero(~(left <= 0.5 * tol).all(axis=1))]


def _to_bisect_segments(err: np.ndarray, worst: np.ndarray, seg: np.ndarray,
                        seg_err: np.ndarray, failing: np.ndarray, tol: float) -> np.ndarray:
    """:func:`_to_bisect` of every ``failing`` segment in one pass: the
    panels it picks from each, the segments in ascending order.

    The panels of the failing segments are sorted by segment, then worst
    first, and laid out one segment per row, padded with zeros, so one
    cumsum along the rows adds each segment's errors in the order, and with
    the roundings, of its own.
    """
    idx = np.flatnonzero(failing[seg])
    order = idx[np.lexsort((-worst[idx], seg[idx]))]
    s = seg[order]
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    sizes = np.diff(np.append(first, len(s)))
    row = np.repeat(np.arange(len(first)), sizes)
    col = np.arange(len(s)) - first[row]
    ranked = np.zeros((len(first), sizes.max(), err.shape[1]))
    ranked[row, col] = err[order]
    left = seg_err[s[first], None, :] - np.cumsum(ranked, axis=1) + ranked
    missing = ~(left[row, col] <= 0.5 * tol).all(axis=1)
    return order[col < np.bincount(row, weights=missing, minlength=len(first))[row]]


def _result(value, err, evals, converged, ndim) -> IntegralResult:
    # a (n,) integrand gives floats, a (n, m) one ndarrays of shape (m,)
    if ndim == 1:
        return IntegralResult(float(value[0]), float(err[0]), evals, converged)
    return IntegralResult(value, err, evals, converged)


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Adaptive integral of f over (0, inf) via the map x = t/(1-t), each
    entry to absolute error ``tol`` as in :func:`integrate_interval`."""
    mapped = [p / (1.0 + p) for p in split_points if p > 0.0]

    def g(t: np.ndarray) -> np.ndarray:
        u = 1.0 - t
        if u.min() > 0.0:
            return _over_u2(f(t / u), u)
        inside = u > 0.0
        # t = 1 (a node of a panel at machine width next to 1) adds 0
        y = _over_u2(f(t[inside] / u[inside]), u[inside])
        out = np.zeros((len(t),) + y.shape[1:])
        out[inside] = y
        return out

    return integrate_interval(g, 0.0, 1.0, tol=tol, split_points=mapped, max_evals=max_evals)


def _over_u2(y, u: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    u2 = u * u
    return y / (u2[:, None] if y.ndim == 2 else u2)


def classify_tail(
    f: Callable, window: tuple[float, float] = (10.0, 1e6)
) -> DivergenceClass | tuple[DivergenceClass, ...]:
    """Classify the large-x behaviour of int f by geometric panel ratios.

    Panel integrals over a geometric progression of subintervals decay
    geometrically for convergent tails, stay constant for a 1/x tail, and
    grow geometrically for slower-than-1/x decay. The ``TAIL_PANELS``
    window panels go through one call and are refined together, each to
    ``TAIL_TOL``. An ``(n, m)`` integrand gets a tuple of ``m`` classes, one
    per entry.
    """
    lo, hi = window
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("window must satisfy 0 < lo < hi, hi finite")
    edges = [lo * (hi / lo) ** (i / TAIL_PANELS) for i in range(TAIL_PANELS + 1)]
    panels, _, _, ndim = _refine_batched(
        f, np.array(edges), np.arange(TAIL_PANELS), TAIL_TOL, 200_000 * TAIL_PANELS)
    classes = tuple(_classify(column.tolist()) for column in panels.T)
    return classes[0] if ndim == 1 else classes


def _classify(panels: list[float]) -> DivergenceClass:
    tail = panels[-4:]
    scale = max(abs(p) for p in panels) or 1.0
    if all(abs(p) < 1e-12 * scale for p in tail):
        return DivergenceClass(DivergenceTag.CONVERGENT, _tail_sign(panels))
    ratios = []
    for p, q in zip(tail[:-1], tail[1:]):
        if abs(p) < 1e-300:
            return DivergenceClass(DivergenceTag.CONVERGENT, _tail_sign(panels))
        ratios.append(q / p)
    if any(r <= 0.0 for r in ratios):
        raise Inconclusive(f"oscillatory or sign-changing tail panels: {panels[-5:]}")
    spread = max(ratios) - min(ratios)
    if spread > 0.5:
        raise Inconclusive(f"unstable panel ratios: {ratios}")
    rho = ratios[-1]
    if rho < 0.8:
        return DivergenceClass(DivergenceTag.CONVERGENT, _tail_sign(panels))
    if rho > 1.25:
        return DivergenceClass(DivergenceTag.POWER_DIVERGENT, _tail_sign(panels))
    return DivergenceClass(DivergenceTag.LOG_DIVERGENT, _tail_sign(panels))


def _tail_sign(panels: Sequence[float]) -> str:
    tail = panels[-4:]
    if all(p > 0.0 for p in tail):
        return "+"
    if all(p < 0.0 for p in tail):
        return "-"
    return "mixed"
