"""Adaptive quadrature on the half line, principal-value integrals, and
tail-divergence classification.

The semi-infinite domain is mapped onto [0, 1) by x = t/(1-t) and integrated
with an adaptive Gauss(7)-Kronrod(15) rule; callers may declare interior
split points (resonances, cutoffs) to seed the initial subdivision. An
integrand may return a 1-D ndarray of entries that share one set of panels.
Principal-value integrals fold the two sides of the pole together, so the
odd singular part cancels pointwise and no excision parameter survives.

Two calling conventions share the error control. By default ``f`` takes one
float and returns a float or a 1-D ndarray of entries; panels are refined
one at a time, worst first, from a heap. With ``vectorized=True`` ``f``
takes a 1-D ndarray of nodes and returns shape ``(n,)`` or ``(n, m)``, one
row per node. All starting panels go through one call. Each refinement
round bisects the worst panels together (as many as it takes for the rest
to be within ``tol/2`` for every entry) and evaluates the new panels in one
call. Once the first call has shown the number of entries, a call takes at
most ``MAX_BATCH`` node-entries. Either way each entry's summed error
estimate ends at most ``tol``, and a panel narrower than ``PANEL_ULPS``
ulps of its endpoints that still misses it raises ``NonConvergence``
instead of being refined further.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "IntegralResult",
    "DivergenceClass",
    "DivergenceTag",
    "NonConvergence",
    "SingularityMisdeclared",
    "Inconclusive",
    "integrate_interval",
    "integrate_semi_infinite",
    "principal_value_integral",
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

# an integrand value: one float, or a 1-D ndarray of entries on shared panels
Entries = Union[float, np.ndarray]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_EVALS = 2_000_000
# a panel this many ulps of its endpoints wide is not refined: its 15 nodes
# collapse onto a few floats and K15 - G7 no longer measures its error
PANEL_ULPS = 64
# most nodes x entries one vectorized call takes
MAX_BATCH = 8192


class NonConvergence(RuntimeError):
    """Raised when the evaluation budget is exhausted before the tolerance."""

    def __init__(self, message: str, partial: "IntegralResult"):
        super().__init__(message)
        self.partial = partial


class SingularityMisdeclared(ValueError):
    """Raised when a declared pole location does not regularize the integrand."""


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


def _gk15(f: Callable[[float], Entries], a: float, b: float) -> tuple[Entries, Entries]:
    """Kronrod-15 estimate and |K15 - G7| error on [a, b], entry by entry."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        xh = h * _XK[i]
        s = f(c - xh) + f(c + xh)
        resk += _WK[i] * s
        if i % 2 == 1:
            resg += _WG[(i - 1) // 2] * s
    resk *= h
    resg *= h
    err = abs(resk - resg)
    return resk, err


def integrate_interval(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
    *,
    vectorized: bool = False,
) -> IntegralResult:
    """Adaptive GK15 integral of f over the finite interval [a, b].

    ``f`` returns a float, or a 1-D ndarray of entries that share one set of
    panels. Each panel keeps its error per entry; the panel with the largest
    entry error is bisected next, until every entry's summed error is at
    most ``tol``. The value and error estimate of the result are then
    ndarrays, and ``evaluations`` counts calls of ``f``.

    With ``vectorized=True`` ``f`` maps a 1-D ndarray of nodes to shape
    ``(n,)`` (a float result) or ``(n, m)`` (ndarray results of shape
    ``(m,)``), panels are refined in rounds, and ``evaluations`` counts
    nodes. Raises NonConvergence, carrying the partial result, when the
    budget runs out or a panel at machine width misses the tolerance.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    edges = sorted({a, b, *(p for p in split_points if a < p < b)})
    if vectorized:
        value, err, evals, ndim = _refine_batched(
            f, np.array(edges), np.zeros(len(edges) - 1, dtype=np.intp), tol, max_evals)
        return _batched_result(value[0], err[0], evals, True, ndim)
    # (-largest entry error, lo, hi, value, error); lo is unique, so the
    # heap never compares the entries themselves
    panels: list[tuple[float, float, float, Entries, Entries]] = []
    evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        evals += 15
        heapq.heappush(panels, (-_largest(err), lo, hi, val, err))
    vector = isinstance(panels[0][3], np.ndarray)
    while True:
        total_err = sum(p[4] for p in panels)
        if (total_err <= tol).all() if vector else total_err <= tol:
            break
        if evals + 30 > max_evals:
            raise NonConvergence(
                f"quadrature budget exhausted: error {_largest(total_err):.3e} > tol {tol:.3e}",
                _partial(panels, total_err, evals),
            )
        _, lo, hi, val, err = heapq.heappop(panels)
        if hi - lo < PANEL_ULPS * math.ulp(max(abs(lo), abs(hi))):
            heapq.heappush(panels, (-_largest(err), lo, hi, val, err))
            raise NonConvergence(
                _unresolvable(lo, hi, _largest(err), tol), _partial(panels, total_err, evals))
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        heapq.heappush(panels, (-_largest(e1), lo, mid, v1, e1))
        heapq.heappush(panels, (-_largest(e2), mid, hi, v2, e2))
    # deterministic summation order: by panel position
    ordered = sorted(panels, key=lambda p: p[1])
    value = _fsum([p[3] for p in ordered])
    total_err = _fsum([p[4] for p in ordered])
    return IntegralResult(value, total_err, evals, True)


def _largest(err: Entries) -> float:
    return float(err.max()) if isinstance(err, np.ndarray) else err


def _fsum(terms: list[Entries]) -> Entries:
    # correctly rounded sum, entry by entry for ndarray terms
    if isinstance(terms[0], np.ndarray):
        return np.array([math.fsum(column) for column in zip(*terms)])
    return math.fsum(terms)


def _partial(panels: list, total_err: Entries, evals: int) -> IntegralResult:
    value = _fsum([p[3] for p in sorted(panels, key=lambda p: p[1])])
    return IntegralResult(value, total_err, evals, False)


def _unresolvable(lo: float, hi: float, err: float, tol: float) -> str:
    return (f"panel [{float(lo)!r}, {float(hi)!r}] at machine width still has error {err:.3e} "
            f"(tol {tol:.3e})")


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


def _gk15_batched(f: Callable, lo: np.ndarray, hi: np.ndarray, m: int):
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
    val, err, ndim = _gk15_batched(f, lo, hi, 1)
    evals = 15 * len(lo)
    while True:
        seg_err = _segment_sums(seg, err, n_seg)
        failing = np.flatnonzero(~(seg_err <= tol).all(axis=1))  # a NaN error fails
        if not len(failing):
            break
        worst = err.max(axis=1)
        if n_seg == 1:
            pick = _to_bisect(err, worst, seg_err[0], tol)
        else:
            pick = np.concatenate([
                i[_to_bisect(err[i], worst[i], seg_err[s], tol)]
                for s in failing for i in (np.flatnonzero(seg == s),)])
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
                message = _unresolvable(lo[i], hi[i], worst[i], tol)
            partial = _batched_result(val.sum(axis=0), err.sum(axis=0), evals, False, ndim)
            raise NonConvergence(message, partial)
        mid = 0.5 * (p_lo + p_hi)
        new_lo = np.concatenate((p_lo, mid))
        new_hi = np.concatenate((mid, p_hi))
        new_val, new_err, _ = _gk15_batched(f, new_lo, new_hi, val.shape[1])
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


def _batched_result(value, err, evals, converged, ndim) -> IntegralResult:
    # a (n,) integrand gives floats, a (n, m) one ndarrays of shape (m,)
    if ndim == 1:
        return IntegralResult(float(value[0]), float(err[0]), evals, converged)
    return IntegralResult(value, err, evals, converged)


def integrate_semi_infinite(
    f: Callable,
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
    *,
    vectorized: bool = False,
) -> IntegralResult:
    """Adaptive integral of f over (0, inf) via the map x = t/(1-t).

    As in :func:`integrate_interval`, ``f`` may return a 1-D ndarray of
    entries integrated on shared panels, each to absolute error ``tol``, and
    ``vectorized=True`` declares that ``f`` takes a 1-D ndarray of nodes.
    """
    mapped = [p / (1.0 + p) for p in split_points if p > 0.0]
    if vectorized:

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

        return integrate_interval(g, 0.0, 1.0, tol=tol, split_points=mapped,
                                  max_evals=max_evals, vectorized=True)

    def g(t: float) -> Entries:
        u = 1.0 - t
        if u > 0.0:
            return f(t / u) / (u * u)
        # t = 1 (a node of a panel at machine width next to 1) adds a zero
        # shaped like the entries, which the node below 1 shows
        y = g(_BELOW_ONE)
        return np.zeros_like(y) if isinstance(y, np.ndarray) else 0.0

    return integrate_interval(g, 0.0, 1.0, tol=tol, split_points=mapped, max_evals=max_evals)


_BELOW_ONE = math.nextafter(1.0, 0.0)


def _over_u2(y, u: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    u2 = u * u
    return y / (u2[:, None] if y.ndim == 2 else u2)


def principal_value_integral(
    f: Callable[[float], float],
    singularity: float,
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Cauchy principal value of int_0^inf f(x) dx with one simple pole.

    The window symmetric about the pole is folded, u -> f(s+u) + f(s-u),
    which cancels the odd pole part exactly; the remainder of the half line
    is integrated as usual.
    """
    s = singularity
    if not s > 0.0:
        raise ValueError("singularity must lie on the positive half line")
    h = 0.5 * s

    def folded(u: float) -> float:
        return f(s + u) + f(s - u)

    # residual blow-up check: the folded integrand must be bounded near 0
    probe = [abs(folded(h * 10.0 ** (-k))) for k in (4, 6, 8)]
    if probe[2] > 1e4 * (1.0 + probe[0]) and probe[2] > 1e4 * (1.0 + probe[1]):
        raise SingularityMisdeclared(
            f"integrand not regularized by folding about x={s}: {probe}"
        )

    budget = max_evals // 3
    inner = integrate_interval(folded, 0.0, h, tol=tol / 3.0, max_evals=budget)
    left = integrate_interval(
        f, 0.0, s - h, tol=tol / 3.0,
        split_points=[p for p in split_points if 0.0 < p < s - h],
        max_evals=budget,
    )

    def right_tail(u: float) -> float:
        return f(s + h + u)

    right = integrate_semi_infinite(
        right_tail, tol=tol / 3.0,
        split_points=[p - s - h for p in split_points if p > s + h],
        max_evals=budget,
    )
    value = left.value + inner.value + right.value
    err = left.abs_error_estimate + inner.abs_error_estimate + right.abs_error_estimate
    evals = left.evaluations + inner.evaluations + right.evaluations + 45
    return IntegralResult(value, err, evals, True)


def classify_tail(
    f: Callable,
    window: tuple[float, float] = (10.0, 1e6),
    n_panels: int = 12,
    tol: float = 1e-6,
    *,
    vectorized: bool = False,
) -> DivergenceClass | tuple[DivergenceClass, ...]:
    """Classify the large-x behaviour of int f by geometric panel ratios.

    Panel integrals over a geometric progression of subintervals decay
    geometrically for convergent tails, stay constant for a 1/x tail, and
    grow geometrically for slower-than-1/x decay.

    With ``vectorized=True`` ``f`` takes a 1-D ndarray of nodes: the window
    panels go through one call and are refined together, each to ``tol``.
    An ``(n, m)`` integrand gets a tuple of ``m`` classes, one per entry.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("window must satisfy 0 < lo < hi")
    edges = [lo * (hi / lo) ** (i / n_panels) for i in range(n_panels + 1)]
    if vectorized:
        panels, _, _, ndim = _refine_batched(
            f, np.array(edges), np.arange(n_panels), tol, 200_000 * n_panels)
        classes = tuple(_classify(column.tolist()) for column in panels.T)
        return classes[0] if ndim == 1 else classes
    return _classify([
        integrate_interval(f, a, b, tol=tol, max_evals=200_000).value
        for a, b in zip(edges[:-1], edges[1:])
    ])


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
