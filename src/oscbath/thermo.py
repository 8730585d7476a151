"""Zero-temperature thermodynamics for continuous baths.

The generic route gives the excess energy E_s(0), the coupling free
energy F(0), and the second-law deficit K for any valid damping family.
Its four entry points (:func:`system_energy_0_cont`,
:func:`free_energy_0_cont`, :func:`k_cont` and :func:`thermo_report`) take
their values from one E_s/F/K triple per model: a member whose K diverges
gets the tail class of each column; otherwise divergent E_s and F keep
their class and the rest are integrated as one shared-panel integral.
:func:`thermo_report` takes the Drude model from its closed form instead.
Closed forms and one-dimensional integrands for the Drude,
exponential-cutoff, and extended-Drude models compute the tables and serve
as independent references for K.

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
    DivergenceClass,
    DivergenceTag,
    classify_tail,
    integrate_semi_infinite,
)
from .spectral import (
    ExtendedDrude,
    ExtendedOhmic,
    InvalidModel,
    ModelStatus,
    SpectralModel,
    StatusTag,
    _cutoffs,
    _require_positive,
    boundary_kernel,
    classify_model,
)
# unused here, kept as module attributes: perfbench/tracer.py patches them
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

    For the Drude model that is the largest real root (:func:`_drude_omega`),
    and Vieta's formulas w0^2 = omega_0^2 omega_d / Omega and
    gamma = gamma_o omega_d^2 / (Omega omega_d + w0^2) do not cancel, so
    all three keep full relative accuracy at weak coupling. The ``xdrude2``
    variant takes its roots from ``np.roots``: with three real roots its
    Omega is the one nearest omega_d, which need not be the largest.
    """
    if omega_0 <= 0 or omega_d <= 0 or gamma_o <= 0:
        raise ValueError("omega_0, omega_d, gamma_o must be positive")
    if variant == "drude":
        Omega = _drude_omega(omega_0, omega_d, gamma_o)
        w0sq = omega_0 ** 2 * omega_d / Omega
        gamma = gamma_o * omega_d ** 2 / (Omega * omega_d + w0sq)
    elif variant == "xdrude2":
        roots = np.roots([1.0, -(omega_d + gamma_o), omega_0 ** 2, -omega_0 ** 2 * omega_d])
        real_mask = np.abs(roots.imag) < 1e-9 * np.abs(roots.real)
        real_roots = np.sort(roots[real_mask].real)
        if real_roots.size == 0:
            raise ArithmeticError("no real root of the pole cubic; cannot happen for positive parameters")
        if real_roots.size == 1 or roots[~real_mask].size == 2:
            # one real root: the complex pair is (z1, z2)
            Omega = float(real_roots[-1])
            z = roots[~real_mask][0]
            gamma = float(2.0 * z.real)
            w0sq = float(abs(z) ** 2)
        else:
            # fully overdamped: all roots real; Omega continues from omega_d
            idx = int(np.argmin(np.abs(real_roots - omega_d)))
            Omega = float(real_roots[idx])
            others = np.delete(real_roots, idx)
            gamma = float(others.sum())
            w0sq = float(others.prod())
    else:
        raise ValueError(f"unknown variant {variant!r}")
    w0 = math.sqrt(w0sq)
    disc = w0sq - 0.25 * gamma * gamma
    regime = "underdamped" if disc > 0.0 else "overdamped"
    return DrudeParams(w0, Omega, gamma, regime, math.sqrt(abs(disc)))


def _drude_omega(omega_0: float, omega_d: float, gamma_o: float) -> float:
    """The largest real root of the Drude pole cubic
    p(x) = gamma_o omega_d x - (omega_d - x)(x^2 + omega_0^2).

    p(0) < 0 < p(omega_d) and all roots are positive with sum omega_d, so
    the root lies in (0, omega_d). Newton's iteration runs from omega_d
    inside a bracket on which it is the only root: above the local minimum
    of p when that is negative (three real roots), else (0, omega_d). A
    step that leaves the bracket is replaced by bisection.
    """
    w0sq = omega_0 * omega_0
    slope0 = w0sq + gamma_o * omega_d  # p'(0)

    def p(x: float) -> float:
        return gamma_o * omega_d * x - (omega_d - x) * (x * x + w0sq)

    lo, hi = 0.0, omega_d
    disc = omega_d * omega_d - 3.0 * slope0
    if disc > 0.0:
        x_min = (omega_d + math.sqrt(disc)) / 3.0
        if p(x_min) < 0.0:
            lo = x_min
    x = omega_d
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
    M Im chi and M w^2 Im chi over w > 0.
    """
    params = drude_params_from_physical(omega_0, omega_d, gamma_o)
    w0, Om, g = params.w0, params.Omega, params.gamma
    t = specfun.arctan_ratio(w0, g)
    lg = math.log(Om / w0)
    den = w0 * w0 - Om * g + Om * Om
    i0 = ((w0 * w0 + Om * Om - 0.5 * g * g) * t - g * lg) / den
    i2 = ((w0 ** 4 + w0 ** 2 * Om ** 2 - 0.5 * Om ** 2 * g ** 2) * t
          + Om ** 2 * g * lg) / den
    w1sq = w0 * w0 - 0.25 * g * g
    # log1p: at weak coupling g/Om is far below an ulp's worth of (Om + g)/Om
    f = (Om + g) * math.log1p(g / Om) + g * lg + 2.0 * w1sq * t
    scale = hbar / (2.0 * math.pi)
    return scale * (omega_0 ** 2 * i0 + i2), scale * f


def k_drude_closed(
    omega_0: float, omega_d: float, gamma_o: float, hbar: float = 1.0
) -> float:
    """Second-law deficit for the Drude model, fully closed form."""
    es, f = _drude_es_f(omega_0, omega_d, gamma_o, hbar)
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
# Exponential-cutoff and extended-Drude one-dimensional integrands


def k_exponential(
    omega_0: float, omega_e: ArrayLike, gamma_o: ArrayLike,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> float | np.ndarray:
    """Second-law deficit for the exponentially cut-off model.

    Dimensionless variable lam = w/omega_e; the scaled exponential integrals
    keep the integrand finite at arbitrarily large lam. The integrand carries
    the prefactor hbar gamma_o omega_e^2 / (2 pi^2), so the integral is K
    and ``tol`` bounds the estimated absolute error of K itself.

    Scalar ``omega_e`` and ``gamma_o`` give a float. Array-like ones
    broadcast against each other into one integral whose entries share their
    panels: the split points are the union over the entries, and the
    exponential integrals are evaluated once per node for all of them. Each
    entry keeps the bound ``tol``; the result is an ndarray of the broadcast
    shape.
    """
    (omega_e, gamma_o), unpack = _entries(omega_e, gamma_o)
    we2 = omega_e * omega_e
    w0sq = omega_0 ** 2
    damp = gamma_o * omega_e / math.pi
    pref = hbar * gamma_o * we2 / (2.0 * math.pi ** 2)

    def integrand(lam: np.ndarray) -> np.ndarray:
        # Im(a/b) in real arithmetic: node terms first, then one (nodes, entries) pass
        e1s, eis = specfun.exp_e1_ei(lam)
        lam2 = lam * lam
        pe = math.pi * np.exp(-lam)
        ar, ai = (lam2 * (e1s - eis))[:, None], (lam2 * pe)[:, None]
        br = we2 * lam2[:, None] - w0sq - damp * (lam * (e1s + eis))[:, None]
        bi = damp * (lam * pe)[:, None]
        return pref * (ai * br - ar * bi) / (br * br + bi * bi)

    r0 = (omega_0 / omega_e).ravel()
    splits = sorted({1.0, *r0.tolist(), *(r0 + 1.0).tolist()})
    res = integrate_semi_infinite(
        integrand, tol=tol, split_points=splits, max_evals=max_evals)
    return unpack(res.value)


def _entries(*params: ArrayLike):
    """The parameters broadcast and flattened into (1, entries) rows, and the
    map from a (entries,) result back to a float (all parameters scalar) or
    to an ndarray of the broadcast shape."""
    shape = np.broadcast_shapes(*(np.shape(p) for p in params))
    rows = [np.broadcast_to(np.asarray(p, dtype=float), shape).reshape(1, -1) for p in params]
    if shape == ():
        return rows, lambda k: float(k[0])
    return rows, lambda k: k.reshape(shape)


def k_extended_drude1(
    omega_0: ArrayLike, omega_d: ArrayLike, gamma_o: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> float | np.ndarray:
    """Second-law deficit for the extended Drude model with one extra power.

    One integral over lam = w/gamma_o; ``tol`` bounds the estimated absolute
    error of that integral, K / (hbar gamma_o / 2 pi). Scalar ``omega_0``
    and ``omega_d`` give a float; array-like ones broadcast into one
    shared-panel integral, as in :func:`k_exponential`.
    """
    (l0, ld), unpack = _entries(np.divide(omega_0, gamma_o), np.divide(omega_d, gamma_o))
    ld2 = ld * ld
    l02 = l0 * l0
    c_log = 2.0 / math.pi

    def integrand(lam: np.ndarray) -> np.ndarray:
        # Im of lam^2 (ar + i ai) / ((lam^2 + ld^2)(br + i bi)), in real arithmetic
        lam = lam[:, None]
        lam2 = lam * lam
        lg = np.log(lam / ld)
        ar = c_log * ld * ((ld2 - lam2) * lg + lam2 + ld2)
        ai = ld * (lam2 - ld2)
        br = (lam2 - l02) * (lam2 + ld2) - c_log * ld * lam2 * lg
        bi = ld * lam2
        return lam2 * (ai * br - ar * bi) / ((lam2 + ld2) * (br * br + bi * bi))

    splits = sorted({*l0.ravel().tolist(), *ld.ravel().tolist(), *(l0 + ld).ravel().tolist()})
    res = integrate_semi_infinite(
        integrand, tol=tol, split_points=splits, max_evals=max_evals)
    return unpack(hbar * gamma_o / (2.0 * math.pi) * res.value)


def k_extended_drude2_closed(
    w0: float, Omega: float, gamma: float, hbar: float = 1.0
) -> float:
    """Closed-form second-law deficit for the weakly divergent (d,2) model.

    Stated directly in the (w0, Omega, gamma) parametrization; negative over
    the physical parameter ranges.
    """
    if w0 <= 0 or Omega <= 0 or gamma < 0:
        raise ValueError("w0, Omega must be positive and gamma nonnegative")
    if gamma == 0.0:
        return 0.0
    delta = Omega * gamma - Omega * Omega - w0 * w0
    scale = max(w0 * w0, Omega * Omega, Omega * gamma)
    if abs(delta) < 2e-5 * scale:
        # Removable singularity: C below vanishes together with delta, so
        # evaluate C/delta as (1/Omega) dC/dgamma at the interval midpoint.
        # That errs by about 4e-2 (delta/scale)^2, the direct form by about
        # 4e-16 / (delta/scale) from cancellation in C; they cross near 2e-5.
        gm = gamma - 0.5 * delta / Omega
        at = specfun.arctan_ratio(w0, gm)
        w1sq = w0 * w0 - 0.25 * gm * gm
        if abs(w1sq) < 1e-10 * gm * gm:
            dat = -2.0 / (3.0 * gm * gm) + 8.0 * w1sq / (5.0 * gm ** 4)
        else:
            dat = (gm * at - 2.0) / (4.0 * w1sq)
        om0sq = Omega * gm + w0 * w0
        dC = ((w0 * w0 - Omega * Omega) * (at + gm * dat)
              - Omega * math.log(om0sq)
              + (Omega * Omega + w0 * w0 - Omega * gm) * Omega / om0sq
              + 2.0 * Omega * math.log(Omega))
        pref = w0 * w0 / (Omega * gamma + w0 * w0)
        return hbar / (2.0 * math.pi) * pref * dC
    at = specfun.arctan_ratio(w0, gamma)  # (1/w1) arctan(2 w1/gamma), both regimes
    C = (gamma * (w0 * w0 - Omega * Omega) * at
         + (Omega * Omega + w0 * w0 - Omega * gamma) * math.log(Omega * gamma + w0 * w0)
         - 2.0 * (Omega * Omega + w0 * w0) * math.log(w0)
         + 2.0 * Omega * gamma * math.log(Omega))
    pref = Omega * w0 * w0 / ((Omega * gamma + w0 * w0) * delta)
    return hbar / (2.0 * math.pi) * pref * C


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
    For the delta(0)-carrying members the kernel is the finite part, on
    which only the tail classes are meaningful.
    """
    w0sq = omega_0 * omega_0

    def integrand(w: np.ndarray) -> np.ndarray:
        gp, dgp = kernel(w)
        w2 = w * w
        g_re = w2 - w0sq - w * gp.imag
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


def _k_vanishes(model: SpectralModel) -> bool:
    # Ohmic damping: the K integrand vanishes pointwise
    return isinstance(model, ExtendedOhmic) and model.p == 0


def _continuous(
    model: SpectralModel, omega_0: float, hbar: float, tol: float, max_evals: int,
) -> tuple[list, float]:
    """[E_s(0), F(0), K] of the fused integrand as energies or divergence classes.

    A member whose K diverges gets one tail class per column from one
    ``classify_tail`` call. Otherwise the E_s and F columns are classified,
    the divergent ones keep their class, Ohmic's K is exactly zero, and the
    rest are integrated as one shared-panel integral. Returns the triple and
    the summed error estimate of its values, both in energy units.
    """
    kernel = boundary_kernel(model)
    window = (30.0 * max([omega_0, *_cutoffs(model)]), 1e8)
    if classify_model(model).tag is StatusTag.VALID_BUT_K_DIVERGENT:
        return list(classify_tail(_integrand(kernel, omega_0, (_ES, _F, _K)), window)), 0.0
    triple = [cls if cls.tag is not DivergenceTag.CONVERGENT else None
              for cls in classify_tail(_integrand(kernel, omega_0, (_ES, _F)), window)]
    triple.append(0.0 if _k_vanishes(model) else None)
    rest = tuple(c for c, v in enumerate(triple) if v is None)
    if not rest:
        return triple, 0.0
    res = integrate_semi_infinite(
        _integrand(kernel, omega_0, rest), tol=tol,
        split_points=[omega_0, 2.0 * omega_0, *_cutoffs(model)], max_evals=max_evals)
    scale = hbar / (2.0 * math.pi)
    for c, v in zip(rest, res.value):
        triple[c] = scale * float(v)
    return triple, scale * float(res.abs_error_estimate.sum())


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
    delta-weight families return the divergence class of the integrand on
    the finite part of their kernel, a negative logarithmic divergence.
    """
    _require_system(M, omega_0)
    return _continuous(model, omega_0, hbar, tol, max_evals)[0][_K]


def thermo_report(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> ThermoReport:
    """Full report: E_s(0), F(0), K from the Drude closed form, from one
    generic integral, or as divergence classes.

    ``error_estimate`` is the summed absolute error estimate of the
    integrals behind the reported numbers, in energy units; 0 for closed
    forms and divergence classes. Each integral gets ``tol`` and
    ``max_evals``. Raises InvalidModel for a distributional kernel,
    ValueError when ``M`` or ``omega_0`` is not positive and finite, and
    NonConvergence when an integral misses ``tol`` within its budget.
    """
    _require_system(M, omega_0)
    status = classify_model(model)
    if status.tag is StatusTag.INVALID_KERNEL:
        raise InvalidModel(str(status))
    err = 0.0
    if isinstance(model, ExtendedDrude) and model.n == 0:
        es, f0 = _drude_es_f(omega_0, model.omega_d, model.gamma_o, hbar)
        k = f0 - es
        method = "closed-form"
    else:
        (es, f0, k), err = _continuous(model, omega_0, hbar, tol, max_evals)
        method = ("divergence-classification"
                  if status.tag is StatusTag.VALID_BUT_K_DIVERGENT else "generic-quadrature")
    k_norm = k / (0.5 * hbar * omega_0) if isinstance(k, float) else None
    return ThermoReport(
        E_s0=es, F0=f0, K=k, method=method,
        error_estimate=err, model_status=status, K_normalized=k_norm,
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
