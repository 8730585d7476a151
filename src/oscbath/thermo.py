"""Zero-temperature thermodynamics for continuous baths.

The generic route gives the excess energy E_s(0), the coupling free
energy F(0), and the second-law deficit K for any valid damping family.
Its four entry points (:func:`system_energy_0_cont`,
:func:`free_energy_0_cont`, :func:`k_cont` and :func:`thermo_report`) take
their values from one E_s/F/K triple per model. Each column's tail class
follows from the member's large-omega law, and each damping kernel comes
from ``spectral``: a divergent column keeps its class, and the rest are
integrated as one shared-panel integral. :func:`thermo_report` takes the
Drude model from its closed form instead, and its K from the trapezoid rule
on the imaginary axis where that form cancels; the rule also computes the
tables (:func:`k_exponential`, :func:`k_extended_drude1`).

Closed Drude-family forms are written in regime-free real arithmetic
(through :func:`specfun.arctan_ratio`), so a single expression serves both
the underdamped (w0 > gamma/2) and overdamped regimes and is continuous
across the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from . import specfun
from .quadrature import (
    DEFAULT_MAX_EVALS,
    DEFAULT_TOL,
    PANEL_ULPS,
    DivergenceClass,
    DivergenceTag,
    IntegralResult,
    NonConvergence,
    integrate_semi_infinite,
)
from .spectral import (
    Exponential,
    ExtendedDrude,
    ModelStatus,
    SpectralModel,
    _law,
    _require_positive,
    _tail_signs,
    boundary_kernel,
    classify_model,
    imaginary_axis_kernel,
)
# unused here, kept as module attributes: perfbench/tracer.py patches them
from .quadrature import classify_tail  # noqa: F401
from .spectral import g_plus, gamma_plus_derivative  # noqa: F401

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "ThermoReport",
    "DrudeParams",
    "EnergyOrDivergent",
    "drude_params_from_physical",
    "drude_params_to_physical",
    "system_energy_0_cont",
    "free_energy_0_cont",
    "k_cont",
    "k_drude_closed",
    "k_drude_lambda",
    "k_exponential",
    "k_extended_drude1",
    "k_extended_drude2_closed",
    "limit_checks",
    "thermo_report",
]

EnergyOrDivergent = Union[float, DivergenceClass]


@dataclass(frozen=True)
class ThermoReport:
    E_s0: EnergyOrDivergent
    F0: EnergyOrDivergent
    K: EnergyOrDivergent
    method: str
    error_estimate: float
    model_status: ModelStatus
    K_normalized: float | None = None  # K / (hbar omega_0 / 2)


@dataclass(frozen=True)
class DrudeParams:
    """The (w0, Omega, gamma) parametrization of a Drude-family cubic.

    ``w1`` is sqrt(|w0^2 - (gamma/2)^2|): the resonance frequency when
    underdamped, the real splitting when overdamped.
    """

    w0: float
    Omega: float
    gamma: float
    regime: str  # "underdamped" | "overdamped"
    w1: float


def drude_params_from_physical(
    omega_0: float, omega_d: float, gamma_o: float, variant: str = "drude"
) -> DrudeParams:
    """Invert the (omega_0, omega_d, gamma_o) -> (w0, Omega, gamma) map.

    The three parameters are the negated imaginary parts of the
    susceptibility poles, i.e. the roots of a real cubic; Omega is the root
    that continues from omega_d at vanishing coupling.

    For the Drude model that is the largest real root (:func:`_drude_omega`).
    The ``xdrude2`` variant takes the real root from ``np.roots`` or, with
    three real roots, the one nearest omega_d, which need not be the
    largest. Vieta's formulas and p(Omega) = 0 then give the other two for
    any root Omega, in forms that do not cancel: w0^2 = omega_0^2 omega_d / Omega
    for both, and gamma = gamma_o omega_d^2 / (Omega omega_d + w0^2) (Drude)
    or gamma_o omega_0^2 / (Omega^2 + omega_0^2) (xdrude2). All three keep
    full relative accuracy at weak coupling.
    """
    if omega_0 <= 0 or omega_d <= 0 or gamma_o <= 0:
        raise ValueError("omega_0, omega_d, gamma_o must be positive")
    for name, value in (("omega_0", omega_0), ("omega_d", omega_d)):
        if not math.isfinite(value * value):
            raise ValueError(f"{name} = {value:g} is out of range: its square overflows")
    if variant == "drude":
        Omega = _drude_omega(omega_0, omega_d, gamma_o)
    elif variant == "xdrude2":
        roots = np.roots([1.0, -(omega_d + gamma_o), omega_0 ** 2, -omega_0 ** 2 * omega_d])
        real = roots[np.abs(roots.imag) < 1e-9 * np.abs(roots.real)].real
        Omega = float(real[np.argmin(np.abs(real - omega_d))])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    w0sq = omega_0 ** 2 * omega_d / Omega
    if not 0.0 < w0sq < math.inf:
        raise ValueError("w0^2 of the Drude pole cubic is out of range")
    if variant == "drude":
        gamma = gamma_o * omega_d ** 2 / (Omega * omega_d + w0sq)
    else:
        gamma = gamma_o * omega_0 ** 2 / (Omega * Omega + omega_0 ** 2)
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma of the Drude pole cubic is out of range")
    w0 = math.sqrt(w0sq)
    disc = w0sq - 0.25 * gamma * gamma
    regime = "underdamped" if disc > 0.0 else "overdamped"
    return DrudeParams(w0, Omega, gamma, regime, math.sqrt(abs(disc)))


def _drude_omega(omega_0: float, omega_d: float, gamma_o: float) -> float:
    """The largest real root of the Drude pole cubic
    p(x) = gamma_o omega_d x - (omega_d - x)(x^2 + omega_0^2).

    p(0) < 0 < p(omega_d) and all roots are positive with sum omega_d, so
    the root lies in (0, omega_d). Newton's iteration runs from the upper
    end of a bracket on which it is the only root: above the local minimum
    of p when that is negative (three real roots), else (0, omega_d). The
    small-root estimate x_e = omega_d omega_0^2 / (omega_0^2 + gamma_o omega_d)
    has p(x_e) = -(omega_d - x_e) x_e^2 < 0, so it raises the lower end;
    where p is positive at twice the lower end (for x_e, whenever
    x_e < omega_0/2: strong coupling, where the root can lie 1000 halvings
    below omega_d) that is the upper end. A step that leaves the bracket
    is replaced by bisection. Raises ValueError when x_e, a lower bound of
    the root, underflows.
    """
    w0sq = omega_0 * omega_0
    slope0 = w0sq + gamma_o * omega_d  # p'(0)

    def p(x: float) -> float:
        return gamma_o * omega_d * x - (omega_d - x) * (x * x + w0sq)

    lo, hi = omega_d * (w0sq / slope0), omega_d
    if not lo > 0.0:
        raise ValueError("Omega of the Drude pole cubic is out of range: it underflows")
    disc = omega_d * omega_d - 3.0 * slope0
    if disc > 0.0:
        x_min = (omega_d + math.sqrt(disc)) / 3.0
        if p(x_min) < 0.0:
            lo = max(lo, x_min)
    if p(2.0 * lo) > 0.0:
        hi = min(hi, 2.0 * lo)
    x = hi
    for _ in range(200):
        px = p(x)
        if px == 0.0:
            return x
        if px > 0.0:
            hi = x
        else:
            lo = x
        new = x - px / (slope0 + x * (3.0 * x - 2.0 * omega_d))
        if lo < new < hi:
            if abs(new - x) <= 1e-15 * new:
                return new
        else:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:
                return new
        x = new
    raise ArithmeticError("no convergence on the Drude pole cubic")


def drude_params_to_physical(
    params: DrudeParams, variant: str = "drude"
) -> tuple[float, float, float]:
    """Forward map (w0, Omega, gamma) -> (omega_0, omega_d, gamma_o)."""
    w0, Om, g = params.w0, params.Omega, params.gamma
    if variant == "drude":
        omega_d = Om + g
        omega_0 = w0 * math.sqrt(Om / (Om + g))
        gamma_o = g * (Om * (Om + g) + w0 * w0) / (Om + g) ** 2
        return omega_0, omega_d, gamma_o
    if variant == "xdrude2":
        omega_0 = math.sqrt(Om * g + w0 * w0)
        omega_d = Om * w0 * w0 / (Om * g + w0 * w0)
        gamma_o = Om + g - omega_d
        return omega_0, omega_d, gamma_o
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Drude closed forms, written to be regime-free


def _drude_es_f(
    omega_0: float, omega_d: float, gamma_o: float, hbar: float
) -> tuple[float, float]:
    """E_s(0) and F(0) of the Drude model from one pole cubic.

    E_s(0) is hbar/2pi (omega_0^2 I0 + I2) with I0 and I2 the integrals of
    M Im chi and M w^2 Im chi over w > 0. The cubic's (w0, Omega, gamma)
    enter in units of s, the power of 2 at or above the largest of them,
    which is exact: I0 = i0/s, I2 = s i2 and F = s f in those units, and no
    intermediate such as w0^4 overflows where E_s(0) and F(0) are finite.
    The logarithms and arctan_ratio take their arguments unscaled, where a
    tiny Omega/s or w0/s would underflow to 0.
    Raises ValueError naming E_s(0) or F(0) when it overflows itself.
    """
    params = drude_params_from_physical(omega_0, omega_d, gamma_o)
    # unscaled; a difference of logs where the ratio under- or overflows
    ratio = params.Omega / params.w0
    lg = (math.log(ratio) if 0.0 < ratio < math.inf
          else math.log(params.Omega) - math.log(params.w0))
    s = 2.0 ** math.frexp(max(params.w0, params.Omega, params.gamma))[1]
    w0, Om, g = params.w0 / s, params.Omega / s, params.gamma / s
    t = s * specfun.arctan_ratio(params.w0, params.gamma)
    den = w0 * w0 - Om * g + Om * Om
    i0 = ((w0 * w0 + Om * Om - 0.5 * g * g) * t - g * lg) / den
    i2 = ((w0 ** 4 + w0 ** 2 * Om ** 2 - 0.5 * Om ** 2 * g ** 2) * t
          + Om ** 2 * g * lg) / den
    w1sq = w0 * w0 - 0.25 * g * g
    # log1p: at weak coupling g/Om is far below an ulp's worth of (Om + g)/Om
    f = (Om + g) * math.log1p(params.gamma / params.Omega) + g * lg + 2.0 * w1sq * t
    scale = hbar / (2.0 * math.pi)
    es, f0 = scale * s * ((omega_0 / s) ** 2 * i0 + i2), scale * s * f
    for name, value in (("E_s(0)", es), ("F(0)", f0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} of the Drude model is out of range")
    return es, f0


def k_drude_closed(
    omega_0: float, omega_d: float, gamma_o: float, hbar: float = 1.0
) -> float:
    """Second-law deficit for the Drude model, fully closed form.

    K = F(0) - E_s(0) errs by about eps F(0)/K; raises ValueError when it is
    lost in their rounding.
    """
    es, f = _drude_es_f(omega_0, omega_d, gamma_o, hbar)
    # K > 0 with a cutoff; at or below this it has no significant digit left
    if not f - es > 8.0 * math.ulp(f):
        raise ValueError(f"K = F(0) - E_s(0) of the Drude model is lost in the rounding "
                         f"of E_s(0) = {es:.6g} and F(0) = {f:.6g}")
    return f - es


def k_drude_lambda(
    omega_0: float, omega_d: float, gamma_o: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> float:
    """Drude second-law deficit as a single dimensionless integral."""
    l0 = omega_0 / gamma_o
    ld = omega_d / gamma_o

    def integrand(lam: np.ndarray) -> np.ndarray:
        lam2 = lam * lam
        num = 2.0 * ld * ld * lam2 * lam2 * lam - (2.0 * l0 * l0 + ld) * ld * ld * lam2 * lam
        a = (lam2 + ld * ld) * (lam2 - l0 * l0) - ld * lam2
        b = ld * ld * lam
        return num / (a * a + b * b)

    res = integrate_semi_infinite(
        integrand, tol=tol, split_points=[l0, ld, l0 + ld], max_evals=max_evals)
    return hbar * gamma_o / (2.0 * math.pi) * res.value


# ---------------------------------------------------------------------------
# Exponential-cutoff and extended-Drude K on the imaginary axis

# the step of the trapezoid rule in s = ln xi, and its window's margins below the
# smallest and above the largest scale, in s: xi k falls like xi^2 below and like
# xi^-3 above (times ln^2 xi for xdrude n = 1), so the end terms are near e^-40 and
# 200 e^-42 of the peak; E_s and F fall only like 1/xi and would need more above
_STEP = 0.125
_MARGIN_BELOW, _MARGIN_ABOVE = 20.0, 14.0
# below this v = u/(1+u), log1p(u) - v = sum_k>=2 v^k/k comes from the
# series: 1/k for k = 10 down to 2, whose first omitted term is below 1e-18
# of the sum; above it the difference loses at most 2 eps/v of itself
_SERIES_BELOW = 1e-2
_BRACKET_SERIES = tuple(1.0 / k for k in range(10, 1, -1))
# the estimate adds this many ulps of the value for the rounding of the
# nodes' terms (a few ulps each) and of their pairwise sum
_ROUNDING_ULPS = 32
# the most node-entries the rule evaluates at a time
_BLOCK = 2 ** 18


def _k_terms(xi: np.ndarray, gamma_hat: np.ndarray, omega_0) -> np.ndarray:
    """xi k(xi), the terms of the trapezoid rule in s = ln xi, at the nodes
    ``xi`` of shape (entries, nodes) for a ``gamma_hat`` that broadcasts to it.

    With u = xi gamma_hat/(xi^2 + omega_0^2), the T -> 0 Matsubara form of K
    (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)) is
    K = (hbar/2pi) int_0^inf k dxi with
    k = [log1p(u) - u/(1+u)] + [u/(1+u)] 2 omega_0^2/(xi^2 + omega_0^2):
    both brackets are >= 0, so K >= 0 node by node for every positive J.
    """
    w0sq = omega_0 * omega_0
    d = xi * xi + w0sq
    # in place over (entries, nodes): a few such arrays at a time
    u = gamma_hat * (xi / d)
    v = 1.0 + u
    np.divide(u, v, out=v)
    small = v < _SERIES_BELOW
    first = np.log1p(u, out=u, where=~small)
    first -= v
    series = np.full_like(v, _BRACKET_SERIES[0])
    for c in _BRACKET_SERIES[1:]:
        series *= v
        series += c
    series *= v
    series *= v
    np.copyto(first, series, where=small)
    v *= 2.0 * w0sq / d
    first += v
    first *= xi
    return first


def _imaginary_axis_k(
    kernel: Callable, gamma_o, omega_0, anchors: np.ndarray, scale: float,
    tol: float, max_evals: int,
) -> IntegralResult:
    """scale * int_0^inf k(xi) dxi for each entry, k of :func:`_k_terms`.

    The zeros of k lie off the strip |Im s| < pi/2 of s = ln xi, so the
    trapezoid rule in s converges like exp(-pi^2/h) however narrow a
    resonance (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)). Entry i's
    nodes are xi = a_i e^s, s = j _STEP: a_i is its cutoff, a row of the
    (entries, 1) column ``anchors``, and one range of j reaches the margins
    past omega_0, the anchors and gamma_o for every entry. ``kernel`` is a
    :func:`spectral.imaginary_axis_kernel`, given ``gamma_o``, t = e^s and s;
    ``gamma_o`` and ``omega_0`` are floats or (entries, 1) columns.

    Returns the values, of shape (entries,), their error estimates
    |T(h) - T(2h)|, T(2h) from the even nodes, plus _ROUNDING_ULPS ulps of
    the value, and the node count. Raises NonConvergence when the node count
    exceeds ``max_evals``, an estimate exceeds ``tol`` or an end term of the
    window is not negligible against the value, and ValueError when a scale
    is not positive and finite or the square of a node under- or overflows.
    """
    scales = np.concatenate([np.ravel(p) for p in (omega_0, anchors, gamma_o)])
    smallest, largest = scales.min(), scales.max()
    if not (0.0 < smallest and largest < math.inf):  # a NaN fails too
        raise ValueError("omega_0, the cutoffs and gamma_o must be positive and finite")
    ln_a = np.log(anchors)
    lo = math.floor((math.log(smallest) - _MARGIN_BELOW - ln_a.max()) / _STEP)
    hi = math.ceil((math.log(largest) + _MARGIN_ABOVE - ln_a.min()) / _STEP)
    if hi - lo + 1 > max_evals:
        raise NonConvergence(f"the imaginary-axis rule needs {hi - lo + 1} nodes > max_evals "
                             f"{max_evals}", IntegralResult(math.nan, math.inf, 0, False))
    if 2.0 * max(ln_a.max() + _STEP * hi, -ln_a.min() - _STEP * lo) > 708.0:  # normal squares
        raise ValueError("the scales of the model are out of range: a node's square "
                         "under- or overflows")
    s = _STEP * np.arange(lo, hi + 1)
    t = np.exp(s)
    width = max(2, _BLOCK // len(anchors) // 2 * 2)  # even: each block starts on lo's parity
    full = even = 0.0
    for b in range(0, len(t), width):
        block = slice(b, b + width)
        k = _k_terms(anchors * t[block], kernel(gamma_o, t[block], s[block]), omega_0)
        if b == 0:
            ends = k[:, 0].copy()
        # along the contiguous axis numpy sums pairwise
        full = full + k.sum(axis=1)
        even = even + k[:, lo % 2::2].sum(axis=1)
    ends = np.maximum(ends, k[:, -1])
    value = scale * _STEP * full
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * value
    err = np.abs(value - scale * 2.0 * _STEP * even) + rounding
    ends_ok = (scale * _STEP * ends <= rounding).all()
    tol_ok = (err <= tol).all()  # a NaN estimate fails
    res = IntegralResult(value, err, len(t), bool(ends_ok and tol_ok))
    if not ends_ok:
        raise NonConvergence("an end term of the imaginary-axis rule's window is not "
                             "negligible", res)
    if not tol_ok:
        raise NonConvergence(f"imaginary-axis rule: error estimate {np.nanmax(err):.3e} "
                             f"> tol {tol:.3e}", res)
    return res


def k_exponential(
    omega_0: float, omega_e: ArrayLike, gamma_o: ArrayLike,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> float | np.ndarray:
    """Second-law deficit for the exponentially cut-off model.

    K comes from the trapezoid rule of :func:`_imaginary_axis_k` over the
    family's kernel from ``spectral`` (:func:`spectral.imaginary_axis_kernel`);
    ``tol`` bounds its error estimate of K itself and ``max_evals`` its node
    count.

    Scalar ``omega_e`` and ``gamma_o`` give a float. Array-like ones
    broadcast against each other into entries with nodes anchored at their
    own omega_e, so the kernel's f(t) is evaluated once per node, however
    many distinct omega_e there are; the result is an ndarray of the broadcast shape.
    """
    (omega_e, gamma_o), unpack = _entries(omega_e, gamma_o)
    res = _imaginary_axis_k(imaginary_axis_kernel(Exponential(1.0, 1.0)), gamma_o, omega_0,
                            omega_e, hbar / (2.0 * math.pi), tol, max_evals)
    return unpack(res.value)


def _entries(*params: ArrayLike):
    """The parameters broadcast and flattened into (entries, 1) columns, and
    the map from a (entries,) result back to a float (all parameters scalar)
    or to an ndarray of the broadcast shape."""
    shape = np.broadcast_shapes(*(np.shape(p) for p in params))
    cols = [np.broadcast_to(np.asarray(p, dtype=float), shape).reshape(-1, 1) for p in params]
    if shape == ():
        return cols, lambda k: float(k[0])
    return cols, lambda k: k.reshape(shape)


def k_extended_drude1(
    omega_0: ArrayLike, omega_d: ArrayLike, gamma_o: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> float | np.ndarray:
    """Second-law deficit for the extended Drude model with one extra power.

    K comes from the trapezoid rule of :func:`_imaginary_axis_k` over the
    member's kernel from ``spectral`` (:func:`spectral.imaginary_axis_kernel`);
    ``tol`` bounds its error estimate of K / (hbar gamma_o / 2 pi) and
    ``max_evals`` its node count.
    Scalar ``omega_0`` and ``omega_d`` give a float; array-like ones
    broadcast into entries whose nodes are anchored at their own omega_d, so
    that the kernel is evaluated once per node, as in :func:`k_exponential`.
    """
    (omega_0, omega_d), unpack = _entries(omega_0, omega_d)
    res = _imaginary_axis_k(imaginary_axis_kernel(ExtendedDrude(1.0, 1.0, 1)), gamma_o, omega_0,
                            omega_d, 1.0 / gamma_o, tol, max_evals)
    return unpack(hbar * gamma_o / (2.0 * math.pi) * res.value)


def k_extended_drude2_closed(
    w0: ArrayLike, Omega: ArrayLike, gamma: ArrayLike, hbar: float = 1.0
) -> float | np.ndarray:
    """Closed-form second-law deficit for the weakly divergent (d,2) model.

    Stated directly in the (w0, Omega, gamma) parametrization; negative over
    the physical parameter ranges. Scalar parameters give a float; array-like
    ones broadcast, each element taking its branch through np.where, and
    equal the scalar calls element by element.
    """
    w0, Omega, gamma = (np.asarray(p, dtype=float) for p in (w0, Omega, gamma))
    if np.any(w0 <= 0) or np.any(Omega <= 0) or np.any(gamma < 0):
        raise ValueError("w0, Omega must be positive and gamma nonnegative")
    w0sq, om2, og = w0 * w0, Omega * Omega, Omega * gamma
    delta = og - om2 - w0sq
    # Removable singularity: C below vanishes together with delta, so
    # evaluate C/delta as (1/Omega) dC/dgamma at the interval midpoint gm.
    # That errs by about 4e-2 (delta/scale)^2, the direct form by about
    # 4e-16 / (delta/scale) from cancellation in C; they cross near 2e-5.
    near = np.abs(delta) < 2e-5 * np.maximum(np.maximum(w0sq, om2), og)
    gm = gamma - 0.5 * delta / Omega
    # each branch takes the ratio and the logarithms at its own gamma, g
    g = np.where(near, gm, gamma)
    at = specfun.arctan_ratio(w0, g)  # (1/w1) arctan(2 w1/gamma), both regimes
    om0sq, rest = Omega * g + w0sq, om2 + w0sq - Omega * g
    with np.errstate(divide="ignore", invalid="ignore"):
        log_om0sq, log_omega = np.log(om0sq), np.log(Omega)
        w1sq = w0sq - 0.25 * gm * gm
        dat = np.where(np.abs(w1sq) < 1e-10 * gm * gm,
                       -2.0 / (3.0 * gm * gm) + 8.0 * w1sq / (5.0 * gm ** 4),
                       (gm * at - 2.0) / (4.0 * w1sq))
        dC = ((w0sq - om2) * (at + gm * dat) - Omega * log_om0sq + rest * Omega / om0sq
              + 2.0 * Omega * log_omega)
        C = (gamma * (w0sq - om2) * at + rest * log_om0sq - 2.0 * (om2 + w0sq) * np.log(w0)
             + 2.0 * Omega * gamma * log_omega)
        pref = np.where(near, w0sq / (og + w0sq), Omega * w0 * w0 / ((og + w0sq) * delta))
        k = np.where(gamma == 0.0, 0.0, hbar / (2.0 * math.pi) * pref * np.where(near, dC, C))
    return float(k) if k.ndim == 0 else k


# ---------------------------------------------------------------------------
# Generic quadrature paths (fluctuation-dissipation / log-derivative / Eq-31)


# columns of the fused integrand
_ES, _F, _K = 0, 1, 2


def _integrand(kernel: Callable, omega_0: float, columns: tuple[int, ...]):
    """The E_s(0), F(0) and K integrands as one node-batched function.

    Takes the model's ``boundary_kernel`` closure and maps a 1-D ndarray of
    frequencies to rows of the requested ``columns`` of ``[E_s, F, K]``, in
    that order, from one kernel call. With G = w^2 - w0^2 + i w gamma_plus
    and G' = 2w + i gamma_plus + i w gamma_plus': E_s from
    (w0^2 + w^2) Im G / |G|^2, F from w Im(-G'/G), K from
    Im(-i w^2 gamma_plus' / G), each in real arithmetic from the real and
    imaginary parts of gamma_plus and gamma_plus' with one shared 1/|G|^2.
    """
    w0sq = omega_0 * omega_0

    def integrand(w: np.ndarray) -> np.ndarray:
        gp, dgp = kernel(w)
        w2 = w * w
        # (w - w0)(w + w0), not w^2 - w0^2: no rounding of w^2 near a narrow peak
        g_re = (w - omega_0) * (w + omega_0) - w * gp.imag
        g_im = w * gp.real
        inv = 1.0 / (g_re * g_re + g_im * g_im)
        out = np.empty((len(w), len(columns)))
        for j, c in enumerate(columns):
            if c == _ES:
                out[:, j] = (w0sq + w2) * g_im * inv
            elif c == _F:
                d_re = 2.0 * w - gp.imag - w * dgp.imag
                d_im = gp.real + w * dgp.real
                out[:, j] = w * (d_re * g_im - d_im * g_re) * inv
            else:
                out[:, j] = -w2 * (dgp.real * g_re + dgp.imag * g_im) * inv
        return out

    return integrand


# the most kernel calls the resonance locator makes, and how many doublings
# of the largest split point are added toward the end of the half line
_LOCATOR_CALLS = 8
_DOUBLINGS = 4
# the innermost peak split keeps this many machine widths (PANEL_ULPS ulps
# of t) from the peak: in a narrower starting panel the rounding of the
# nodes t/(1 - t) swamps the error estimate before the tolerance is met
_PEAK_FLOOR = 1024


def _resonance(kernel: Callable, omega_0: float) -> tuple[float, float] | None:
    """The root w_r of Re G(w) = w^2 - w0^2 - w Im gamma_plus(w) next to
    omega_0 and the half-width w_r Re gamma_plus(w_r) / (d Re G/dw) of its
    peak, or None when there is no peak narrower than w_r there.

    Newton's iteration from omega_0, one scalar kernel call a step, inside
    the bracket (0, inf) that each step narrows (Re G(0+) = -omega_0^2). It
    ends once a step is within the half-width: the stepped-to point is then
    well inside the peak's central panel. It gives up when the slope is not
    positive, the half-width is not in (0, w), a step leaves the bracket,
    or ``_LOCATOR_CALLS`` calls have not converged.
    """
    w, lo, hi = omega_0, 0.0, math.inf
    for _ in range(_LOCATOR_CALLS):
        gp, dgp = kernel(w)
        re_g = (w - omega_0) * (w + omega_0) - w * gp.imag
        slope = 2.0 * w - gp.imag - w * dgp.imag
        if not slope > 0.0:
            return None
        width = w * gp.real / slope
        if not 0.0 < width < w:
            return None
        step = re_g / slope
        if abs(step) <= width:
            return float(w - step), float(width)
        if re_g < 0.0:
            lo = w
        else:
            hi = w
        w -= step
        if not lo < w < hi:
            return None
    return None


def _split_points(kernel: Callable, omega_0: float, cutoffs: list[float]) -> list[float]:
    """omega_0, 2 omega_0 and the cutoffs; w_r +- d 4^k for the located
    peak (:func:`_resonance`), k = 0, 1, ... while d 4^k < w_r, so that its
    Lorentzian is graded from the half-width out to w_r in starting panels;
    and the largest point times 2, 4, ... 2^_DOUBLINGS. d is the half-width,
    or ``_PEAK_FLOOR`` machine widths of the map x = t/(1 - t) of
    :func:`integrate_semi_infinite` at w_r where that is wider."""
    points = [omega_0, 2.0 * omega_0, *cutoffs]
    peak = _resonance(kernel, omega_0)
    if peak is not None:
        w, d = peak
        d = max(d, _PEAK_FLOOR * PANEL_ULPS * float(np.spacing(w / (1.0 + w))) * (1.0 + w) ** 2)
        while d < w:
            points += [w - d, w + d]
            d *= 4.0
    top = max(points)
    return points + [top * 2.0 ** k for k in range(1, _DOUBLINGS + 1)]


def _continuous(
    model: SpectralModel, omega_0: float, hbar: float, tol: float, max_evals: int,
) -> tuple[list, float, str]:
    """[E_s(0), F(0), K] of the fused integrand as energies or divergence classes.

    Each column's class comes from the member's large-omega law
    (``spectral._tail_signs``); the convergent columns are integrated as one
    shared-panel integral, whose starting panels split at omega_0,
    2 omega_0, the cutoff and the located resonance (:func:`_split_points`).
    Returns the triple and the summed error estimate of its values, both in
    energy units, and the method that ran: "divergence-classification"
    where no column is integrated, else "generic-quadrature". An
    integrated E_s(0) or F(0) below hbar omega_0/2 by more than that
    estimate, which no positive J allows, raises ArithmeticError: the
    integral missed a resonance narrower than it resolves.
    """
    triple = [DivergenceClass(DivergenceTag.LOG_DIVERGENT, v) if isinstance(v, str) else v
              for v in _tail_signs(model)]
    rest = tuple(c for c, v in enumerate(triple) if v is None)
    if not rest:
        return triple, 0.0, "divergence-classification"
    kernel = boundary_kernel(model)
    res = integrate_semi_infinite(
        _integrand(kernel, omega_0, rest), tol=tol,
        split_points=_split_points(kernel, omega_0, _law(model)[2]), max_evals=max_evals)
    scale = hbar / (2.0 * math.pi)
    err = scale * float(res.abs_error_estimate.sum())
    floor = 0.5 * hbar * omega_0 - err
    for c, v in zip(rest, res.value):
        triple[c] = scale * float(v)
        if c != _K and triple[c] < floor:
            raise ArithmeticError(
                f"{('E_s(0)', 'F(0)')[c]} = {triple[c]:.6g} is below hbar omega_0/2 - "
                f"error_estimate = {floor:.6g}: the integral missed a resonance")
    return triple, err, "generic-quadrature"


def _require_system(M: float, omega_0: float) -> None:
    _require_positive("M", M)
    _require_positive("omega_0", omega_0)


def system_energy_0_cont(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> EnergyOrDivergent:
    """E_s(0) by the fluctuation-dissipation integral over Im of the
    susceptibility; divergent families return their divergence class."""
    _require_system(M, omega_0)
    return _continuous(model, omega_0, hbar, tol, max_evals)[0][_ES]


def free_energy_0_cont(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> EnergyOrDivergent:
    """F(0) by the logarithmic-derivative integrand w * Im(-G'/G)."""
    _require_system(M, omega_0)
    return _continuous(model, omega_0, hbar, tol, max_evals)[0][_F]


def k_cont(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> EnergyOrDivergent:
    """Second-law deficit by the generic frequency integral.

    Ohmic returns exactly zero (the integrand vanishes pointwise); the
    delta-weight families return their tail class, a negative logarithmic
    divergence.
    """
    _require_system(M, omega_0)
    return _continuous(model, omega_0, hbar, tol, max_evals)[0][_K]


# the closed-form Drude K errs by about eps F(0)/K; above this ratio of F(0)
# to K, thermo_report takes K from the imaginary-axis rule
_DRUDE_RULE_ABOVE = 1e4


def thermo_report(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> ThermoReport:
    """Full report: E_s(0), F(0), K from the Drude closed form, from one
    generic integral, or as divergence classes, with ``method`` naming
    which ran: "closed-form", "generic-quadrature" when an integral ran,
    or "divergence-classification" when the tail classes alone gave the
    triple (Ohmic, and the members whose K diverges). Where the closed
    form's K = F(0) - E_s(0) would keep fewer than about 12 digits
    (F(0)/K > _DRUDE_RULE_ABOVE), K comes from the imaginary-axis rule over
    the kernel of :func:`spectral.imaginary_axis_kernel` instead, and
    ``method`` is "closed-form+imaginary-axis".

    ``error_estimate`` is the summed absolute error estimate of the
    integrals behind the reported numbers, in energy units; 0 for closed
    forms and divergence classes. Each integral gets ``tol`` and
    ``max_evals``. Raises InvalidModel for a distributional kernel,
    UnsupportedKernel for extended Ohmic p >= 4, ValueError when ``M`` or
    ``omega_0`` is not positive and finite or a Drude parameter is out of
    range, NonConvergence when an integral misses ``tol`` within its
    budget, and ArithmeticError when an integrated E_s(0) or F(0) falls
    below hbar omega_0/2 (see :func:`_continuous`).
    """
    _require_system(M, omega_0)
    if _law(model)[:2] == (0, 2):  # Drude
        es, f0 = _drude_es_f(omega_0, model.omega_d, model.gamma_o, hbar)
        k, err, method = f0 - es, 0.0, "closed-form"
        if f0 > _DRUDE_RULE_ABOVE * k:  # also where K is lost in the rounding
            res = _imaginary_axis_k(
                imaginary_axis_kernel(model), model.gamma_o, omega_0, np.array([[model.omega_d]]),
                hbar / (2.0 * math.pi), tol, max_evals)
            k, err = float(res.value[0]), float(res.abs_error_estimate[0])
            method = "closed-form+imaginary-axis"
    else:
        (es, f0, k), err, method = _continuous(model, omega_0, hbar, tol, max_evals)
    k_norm = k / (0.5 * hbar * omega_0) if isinstance(k, float) else None
    return ThermoReport(
        E_s0=es, F0=f0, K=k, method=method,
        error_estimate=err, model_status=classify_model(model), K_normalized=k_norm,
    )


def limit_checks(
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS
) -> dict:
    """Large-cutoff behaviour of the Drude and exponential deficits.

    Returns the Drude residuals against the asymptotic value (gamma/pi w0) E_g
    for omega_d in {1e2, 1e3, 1e4}, and the exponential-model column at
    gamma_o = 1 with its limit hbar gamma_o/(2 pi).
    """
    gamma, w0 = 1.0, 1.0
    drude = []
    for target_wd in (1e2, 1e3, 1e4):
        Om = target_wd - gamma
        params = DrudeParams(w0, Om, gamma, "underdamped", math.sqrt(w0 ** 2 - 0.25 * gamma ** 2))
        omega_0, omega_d, gamma_o = drude_params_to_physical(params)
        k = k_drude_closed(omega_0, omega_d, gamma_o, hbar)
        e_g = 0.5 * hbar * w0 * math.sqrt(Om / (Om + gamma))
        limit = gamma / (math.pi * w0) * e_g
        expansion = hbar * gamma / (2.0 * math.pi) * (1.0 - 0.5 * gamma / Om)
        drude.append({
            "omega_d": omega_d, "K": k, "limit": limit,
            "residual": abs(k - limit), "expansion": expansion,
        })
    exp_we = (0.5, 1.0, 5.0, 10.0, 50.0, 80.0)
    exp_k = k_exponential(1.0, exp_we, 1.0, hbar, tol, max_evals)
    exp_col = [{"omega_e": we, "K": float(k)} for we, k in zip(exp_we, exp_k)]
    exp_limit = hbar * 1.0 / (2.0 * math.pi)
    return {"drude": drude, "exponential": exp_col, "exponential_limit": exp_limit}
