"""Adaptive quadrature on the half line, principal-value integrals, and
tail-divergence classification.

The semi-infinite domain is mapped onto [0, 1) by x = t/(1-t) and integrated
with an adaptive Gauss(7)-Kronrod(15) rule; callers may declare interior
split points (resonances, cutoffs) to seed the initial subdivision. An
integrand may return a 1-D ndarray of entries that share one set of panels.
Principal-value integrals fold the two sides of the pole together, so the
odd singular part cancels pointwise and no excision parameter survives.
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
    f: Callable[[float], Entries],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Adaptive GK15 integral of f over the finite interval [a, b].

    ``f`` returns a float, or a 1-D ndarray of entries that share one set of
    panels. Each panel keeps its error per entry; the panel with the largest
    entry error is bisected next, until every entry's summed error is at
    most ``tol``. The value and error estimate of the result are then
    ndarrays, and ``evaluations`` counts calls of ``f``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    edges = sorted({a, b, *(p for p in split_points if a < p < b)})
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
            value = _fsum([p[3] for p in sorted(panels, key=lambda p: p[1])])
            raise NonConvergence(
                f"quadrature budget exhausted: error {_largest(total_err):.3e} > tol {tol:.3e}",
                IntegralResult(value, total_err, evals, False),
            )
        _, lo, hi, val, err = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # panel at machine width: freeze it and stop refining there
            heapq.heappush(panels, (0.0, lo, hi, val, np.zeros_like(err) if vector else 0.0))
            continue
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


def integrate_semi_infinite(
    f: Callable[[float], Entries],
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Adaptive integral of f over (0, inf) via the map x = t/(1-t).

    As in :func:`integrate_interval`, ``f`` may return a 1-D ndarray of
    entries integrated on shared panels, each to absolute error ``tol``.
    """

    def g(t: float) -> Entries:
        u = 1.0 - t
        if u <= 5e-324:
            return 0.0
        x = t / u
        return f(x) / (u * u)

    mapped = [p / (1.0 + p) for p in split_points if p > 0.0]
    return integrate_interval(g, 0.0, 1.0, tol=tol, split_points=mapped, max_evals=max_evals)


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
    f: Callable[[float], float],
    window: tuple[float, float] = (10.0, 1e6),
    n_panels: int = 12,
    tol: float = 1e-6,
) -> DivergenceClass:
    """Classify the large-x behaviour of int f by geometric panel ratios.

    Panel integrals over a geometric progression of subintervals decay
    geometrically for convergent tails, stay constant for a 1/x tail, and
    grow geometrically for slower-than-1/x decay.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("window must satisfy 0 < lo < hi")
    edges = [lo * (hi / lo) ** (i / n_panels) for i in range(n_panels + 1)]
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        panels.append(integrate_interval(f, a, b, tol=tol, max_evals=200_000).value)
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
