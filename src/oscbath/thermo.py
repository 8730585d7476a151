"""Zero-temperature thermodynamics for continuous baths.

Generic quadrature paths give the excess energy E_s(0), the coupling free
energy F(0), and the second-law deficit K for any valid damping family;
specialized closed forms and one-dimensional integrands cover the Drude,
exponential-cutoff, and extended-Drude models, providing the independent
cross-checks the tables demand.

Closed Drude-family forms are written in regime-free real arithmetic
(through :func:`specfun.arctan_ratio`), so a single expression serves both
the underdamped (w0 > gamma/2) and overdamped regimes and is continuous
across the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from . import specfun
from .quadrature import (
    DEFAULT_MAX_EVALS,
    DivergenceClass,
    DivergenceTag,
    classify_tail,
    integrate_semi_infinite,
)
from .spectral import (
    Exponential,
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
    "es_drude_closed",
    "f_drude_closed",
    "k_drude_closed",
    "k_drude_lambda",
    "k_exponential",
    "k_extended_drude1",
    "k_extended_drude2_closed",
    "limit_checks",
    "thermo_report",
]

EnergyOrDivergent = Union[float, DivergenceClass]

DEFAULT_TOL = 1e-9


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
    """
    if omega_0 <= 0 or omega_d <= 0 or gamma_o <= 0:
        raise ValueError("omega_0, omega_d, gamma_o must be positive")
    if variant == "drude":
        coeffs = [1.0, -omega_d, omega_0 ** 2 + gamma_o * omega_d, -omega_0 ** 2 * omega_d]
    elif variant == "xdrude2":
        coeffs = [1.0, -(omega_d + gamma_o), omega_0 ** 2, -omega_0 ** 2 * omega_d]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    roots = np.roots(coeffs)
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
    w0 = math.sqrt(w0sq)
    disc = w0sq - 0.25 * gamma * gamma
    regime = "underdamped" if disc > 0.0 else "overdamped"
    return DrudeParams(w0, Omega, gamma, regime, math.sqrt(abs(disc)))


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


def _drude_im_chi_integrals(params: DrudeParams) -> tuple[float, float]:
    """M * int Im chi dw and M * int w^2 Im chi dw for the Drude model."""
    w0, Om, g = params.w0, params.Omega, params.gamma
    t = specfun.arctan_ratio(w0, g)
    lg = math.log(Om / w0)
    den = w0 * w0 - Om * g + Om * Om
    i0 = ((w0 * w0 + Om * Om - 0.5 * g * g) * t - g * lg) / den
    i2 = ((w0 ** 4 + w0 ** 2 * Om ** 2 - 0.5 * Om ** 2 * g ** 2) * t
          + Om ** 2 * g * lg) / den
    return i0, i2


def es_drude_closed(
    omega_0: float, omega_d: float, gamma_o: float, hbar: float = 1.0
) -> float:
    """Exact Drude excess-bearing system energy E_s(0)."""
    params = drude_params_from_physical(omega_0, omega_d, gamma_o)
    return _es_drude_params(params, omega_0, hbar)


def _es_drude_params(params: DrudeParams, omega_0: float, hbar: float = 1.0) -> float:
    i0, i2 = _drude_im_chi_integrals(params)
    return hbar / (2.0 * math.pi) * (omega_0 ** 2 * i0 + i2)


def f_drude_closed(
    omega_0: float, omega_d: float, gamma_o: float, hbar: float = 1.0
) -> float:
    """Exact Drude coupling free energy F(0)."""
    params = drude_params_from_physical(omega_0, omega_d, gamma_o)
    return _f_drude_params(params, hbar)


def _f_drude_params(params: DrudeParams, hbar: float = 1.0) -> float:
    w0, Om, g = params.w0, params.Omega, params.gamma
    w1sq = w0 * w0 - 0.25 * g * g
    val = ((Om + g) * math.log((Om + g) / Om)
           + g * math.log(Om / w0)
           + 2.0 * w1sq * specfun.arctan_ratio(w0, g))
    return hbar / (2.0 * math.pi) * val


def k_drude_closed(
    omega_0: float, omega_d: float, gamma_o: float, hbar: float = 1.0
) -> float:
    """Second-law deficit for the Drude model, fully closed form."""
    params = drude_params_from_physical(omega_0, omega_d, gamma_o)
    return _f_drude_params(params, hbar) - _es_drude_params(params, omega_0, hbar)


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
    return _k_exponential(omega_0, omega_e, gamma_o, hbar, tol, max_evals)[0]


def _k_exponential(omega_0, omega_e, gamma_o, hbar, tol, max_evals):
    # k_exponential and the summed error estimate of its K entries
    (omega_e, gamma_o), unpack = _entries(omega_e, gamma_o)
    we2 = omega_e * omega_e
    w0sq = omega_0 ** 2
    damp = gamma_o * omega_e / math.pi
    pref = hbar * gamma_o * we2 / (2.0 * math.pi ** 2)

    def integrand(lam: np.ndarray) -> np.ndarray:
        # the node terms first, then one (nodes, entries) pass
        e1s, eis = specfun.exp_e1_ei(lam)
        pe = 1j * (math.pi * np.exp(-lam))
        lam2 = lam * lam
        f1 = (lam2 * (e1s - eis + pe))[:, None]
        f2 = we2 * lam2[:, None] - w0sq + damp * (lam * (pe - (e1s + eis)))[:, None]
        return pref * (f1 / f2).imag

    r0 = (omega_0 / omega_e).ravel()
    splits = sorted({1.0, *r0.tolist(), *(r0 + 1.0).tolist()})
    res = integrate_semi_infinite(
        integrand, tol=tol, split_points=splits, max_evals=max_evals)
    return unpack(res.value), float(res.abs_error_estimate.sum())


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
    return _k_extended_drude1(omega_0, omega_d, gamma_o, hbar, tol, max_evals)[0]


def _k_extended_drude1(omega_0, omega_d, gamma_o, hbar, tol, max_evals):
    # k_extended_drude1 and the summed error estimate of its K entries
    (l0, ld), unpack = _entries(np.divide(omega_0, gamma_o), np.divide(omega_d, gamma_o))
    ld2 = ld * ld
    l02 = l0 * l0
    c_log = 2.0 / math.pi

    def integrand(lam: np.ndarray) -> np.ndarray:
        lam = lam[:, None]
        lam2 = lam * lam
        lg = np.log(lam / ld)
        g1 = lam2 * (c_log * ld * ((ld2 - lam2) * lg + lam2 + ld2) + 1j * (ld * (lam2 - ld2)))
        g2 = (lam2 + ld2) * (
            (lam2 - l02) * (lam2 + ld2) - c_log * ld * lam2 * lg + 1j * (ld * lam2))
        return (g1 / g2).imag

    splits = sorted({*l0.ravel().tolist(), *ld.ravel().tolist(), *(l0 + ld).ravel().tolist()})
    res = integrate_semi_infinite(
        integrand, tol=tol, split_points=splits, max_evals=max_evals)
    scale = hbar * gamma_o / (2.0 * math.pi)
    return unpack(scale * res.value), scale * float(res.abs_error_estimate.sum())


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
    if abs(delta) < 1e-7 * scale:
        # Removable singularity: C below vanishes together with delta, so
        # evaluate C/delta as (1/Omega) dC/dgamma at the interval midpoint.
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


def _tail_window(model: SpectralModel, omega_0: float) -> tuple[float, float]:
    return 30.0 * max([omega_0, *_cutoffs(model)]), 1e8


# columns of the fused integrand
_ES, _F, _K = 0, 1, 2


def _integrand(model: SpectralModel, omega_0: float, columns: tuple[int, ...] = (_ES, _F, _K)):
    """The E_s(0), F(0) and K integrands as one node-batched function.

    Maps a 1-D ndarray of frequencies to rows of the requested ``columns``
    of ``[E_s, F, K]``, from one ``boundary_kernel`` call. With
    G = w^2 - w0^2 + i w gamma_plus and G' = 2w + i gamma_plus
    + i w gamma_plus': E_s from (w0^2 + w^2) Im G / |G|^2, F from
    w Im(-G'/G), K from Im(-i w^2 gamma_plus' / G). For the
    delta(0)-carrying members the kernel is the finite part, on which only
    the tail classes are meaningful.
    """
    kernel = boundary_kernel(model)
    w0sq = omega_0 * omega_0

    def es(w, w2, G, gp, dgp):
        return (w0sq + w2) * G.imag / np.abs(G) ** 2

    def f(w, w2, G, gp, dgp):
        dG = 2.0 * w + 1j * gp + 1j * w * dgp
        return w * (-(dG / G)).imag

    def k(w, w2, G, gp, dgp):
        return (w2 * (-1j * dgp) / G).imag

    chosen = [(es, f, k)[c] for c in columns]

    def integrand(w: np.ndarray) -> np.ndarray:
        gp, dgp = kernel(w)
        w2 = w * w
        G = (w2 - w0sq) + 1j * w * gp
        return np.stack([column(w, w2, G, gp, dgp) for column in chosen], axis=1)

    return integrand


def _continuous(
    model: SpectralModel, omega_0: float, classified: tuple[int, ...],
    integrated: tuple[int, ...], hbar: float, tol: float, max_evals: int,
) -> tuple[dict, float]:
    """Columns of the fused integrand as energies or divergence classes.

    The ``classified`` columns get their tail classes from one
    ``classify_tail`` call, and the divergent ones keep their class. The
    convergent ones and the ``integrated`` columns are integrated as one
    shared-panel integral. Returns {column: value or class} and the summed
    error estimate of the values, both in energy units.
    """
    out = {}
    if classified:
        classes = classify_tail(_integrand(model, omega_0, classified),
                                window=_tail_window(model, omega_0))
        out = {c: cls for c, cls in zip(classified, classes)
               if cls.tag is not DivergenceTag.CONVERGENT}
    columns = tuple(sorted({*classified, *integrated} - out.keys()))
    if not columns:
        return out, 0.0
    res = integrate_semi_infinite(
        _integrand(model, omega_0, columns), tol=tol,
        split_points=[omega_0, 2.0 * omega_0, *_cutoffs(model)], max_evals=max_evals)
    scale = hbar / (2.0 * math.pi)
    out.update((c, scale * float(v)) for c, v in zip(columns, res.value))
    return out, scale * float(res.abs_error_estimate.sum())


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
    return _continuous(model, omega_0, (_ES,), (), hbar, tol, max_evals)[0][_ES]


def free_energy_0_cont(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> EnergyOrDivergent:
    """F(0) by the logarithmic-derivative integrand w * Im(-G'/G)."""
    _require_system(M, omega_0)
    return _continuous(model, omega_0, (_F,), (), hbar, tol, max_evals)[0][_F]


def _k_vanishes(model: SpectralModel) -> bool:
    # Ohmic damping: the K integrand vanishes pointwise
    return isinstance(model, ExtendedOhmic) and model.p == 0


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
    if _k_vanishes(model):
        return 0.0
    if classify_model(model).tag is StatusTag.VALID_BUT_K_DIVERGENT:
        k = _integrand(model, omega_0, (_K,))
        return classify_tail(k, window=_tail_window(model, omega_0))[0]
    return _continuous(model, omega_0, (), (_K,), hbar, tol, max_evals)[0][_K]


def thermo_report(
    model: SpectralModel, M: float, omega_0: float,
    hbar: float = 1.0, tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
) -> ThermoReport:
    """Full report: E_s(0), F(0), K, with the best available method per model.

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
    if status.tag is StatusTag.VALID_BUT_K_DIVERGENT:
        es, f0, k = classify_tail(_integrand(model, omega_0),
                                  window=_tail_window(model, omega_0))
        return ThermoReport(
            E_s0=es, F0=f0, K=k, method="divergence-classification",
            error_estimate=0.0, model_status=status, K_normalized=None,
        )
    err = 0.0
    if isinstance(model, ExtendedDrude) and model.n == 0:
        params = drude_params_from_physical(omega_0, model.omega_d, model.gamma_o)
        es = _es_drude_params(params, omega_0, hbar)
        f0 = _f_drude_params(params, hbar)
        k = f0 - es
        method = "closed-form"
    else:
        exponential = isinstance(model, Exponential)
        drude1 = isinstance(model, ExtendedDrude) and model.n == 1
        generic_k = not (exponential or drude1 or _k_vanishes(model))
        values, err = _continuous(model, omega_0, (_ES, _F), (_K,) if generic_k else (),
                                  hbar, tol, max_evals)
        es, f0 = values[_ES], values[_F]
        method = "special-integrand"
        if exponential:
            k, k_err = _k_exponential(omega_0, model.omega_e, model.gamma_o, hbar, tol, max_evals)
            err += k_err
        elif drude1:
            k, k_err = _k_extended_drude1(
                omega_0, model.omega_d, model.gamma_o, hbar, tol, max_evals)
            err += k_err
        else:
            k = values[_K] if generic_k else 0.0
            method = "generic-quadrature"
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
