"""Independent references that only the tests call.

The package computes gamma_plus from closed forms (``spectral.boundary_kernel``)
and never needs a principal value. These routes compute the same kernel the
long way, as the principal-value transform of J(w) on the package's own
quadrature engine, so the closed forms can be checked against something that
shares none of their algebra. The spectral density J(w) itself, their input,
and dG_+/dw, the analytic side of finite-difference checks, live here too,
as do the integrands of the two lambda forms of K and of the fused
E_s/F/K route written as complex quotients, the references for their
real-arithmetic forms, the per-segment loop that the quadrature's
one-pass panel pick replaced, and the Drude closed form of K evaluated at
50 digits, the reference for its rounding at weak coupling. None of them is in ``oscbath``, because no
program path runs them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from oscbath.quadrature import (
    DEFAULT_MAX_EVALS,
    DEFAULT_TOL,
    IntegralResult,
    _to_bisect,
    integrate_interval,
    integrate_semi_infinite,
)
from oscbath.spectral import (
    Exponential,
    ExtendedOhmic,
    SpectralModel,
    _cutoffs,
    _kernel_at,
    _reject_invalid,
    _require_positive,
)
from oscbath.specfun import exp_e1_ei


def j_omega(model: SpectralModel, M: float, omega: float) -> float:
    """Spectral density J(w) for w > 0."""
    _reject_invalid(model)
    w = _require_positive("omega", omega)
    g = model.gamma_o
    if isinstance(model, Exponential):
        return M * g * w * math.exp(-w / model.omega_e)
    if isinstance(model, ExtendedOhmic):
        return M * g * w * (w / g) ** model.p
    wd = model.omega_d
    return M * g * w * (w / wd) ** model.n * wd * wd / (w * w + wd * wd)


def g_plus_derivative(
    model: SpectralModel, M: float, omega_0: float, omega: float
) -> complex:
    """dG_+/dw = 2w + i gamma_plus + i w gamma_plus'."""
    gp, dgp = _kernel_at(model, omega)
    return 2.0 * omega + 1j * gp + 1j * omega * dgp


class SingularityMisdeclared(ValueError):
    """Raised when a declared pole location does not regularize the integrand."""


def principal_value_integral(
    f: Callable[[np.ndarray], np.ndarray],
    singularity: float,
    tol: float = DEFAULT_TOL,
    split_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Cauchy principal value of int_0^inf f(x) dx with one simple pole.

    The window symmetric about the pole is folded, u -> f(s+u) + f(s-u),
    which cancels the odd pole part exactly, so no excision parameter
    survives; the remainder of the half line is integrated as usual. ``f``
    maps nodes to shape ``(n,)``, and ``evaluations`` counts the nodes
    passed to it.
    """
    s = singularity
    if not s > 0.0:
        raise ValueError("singularity must lie on the positive half line")
    h = 0.5 * s

    def folded(u: np.ndarray) -> np.ndarray:
        return f(s + u) + f(s - u)

    # residual blow-up check: the folded integrand must be bounded near 0
    probe = np.abs(folded(h * np.array([1e-4, 1e-6, 1e-8]))).tolist()
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

    def right_tail(u: np.ndarray) -> np.ndarray:
        return f(s + h + u)

    right = integrate_semi_infinite(
        right_tail, tol=tol / 3.0,
        split_points=[p - s - h for p in split_points if p > s + h],
        max_evals=budget,
    )
    value = left.value + inner.value + right.value
    err = left.abs_error_estimate + inner.abs_error_estimate + right.abs_error_estimate
    # the folded integrand takes f at two nodes per node, the probe at six
    evals = left.evaluations + 2 * inner.evaluations + right.evaluations + 6
    return IntegralResult(value, err, evals, True)


def gamma_plus_generic(
    model: SpectralModel, M: float, omega: float, tol: float = 1e-9
) -> complex:
    """gamma_plus through the principal-value transform of J(w') directly.

    Independent route used to cross-check the closed forms; only defined when
    the PV integral over J(w')/w' converges.
    """
    _reject_invalid(model)
    w = _require_positive("omega", omega)
    re = j_omega(model, M, w) / (M * w)

    def integrand(wp: np.ndarray) -> np.ndarray:
        # J node by node through j_omega, independent of boundary_kernel
        jw = np.array([j_omega(model, M, x) for x in wp.tolist()])
        return (jw / wp) * (1.0 / (wp + w) - 1.0 / (wp - w)) / math.pi

    splits = [w / 2, 2 * w, *_cutoffs(model)]
    res = principal_value_integral(integrand, w, tol=tol, split_points=splits)
    return complex(re, res.value / M)


def k_exponential_integrand(
    omega_0: float, omega_e: np.ndarray, gamma_o: np.ndarray, lam: np.ndarray,
    hbar: float = 1.0,
) -> np.ndarray:
    """The integrand of ``thermo.k_exponential`` over lam = w/omega_e as the
    imaginary part of one complex quotient, at nodes ``lam`` (shape (n,))
    for parameter rows of shape (1, m); the result has shape (n, m)."""
    we2 = omega_e * omega_e
    damp = gamma_o * omega_e / math.pi
    pref = hbar * gamma_o * we2 / (2.0 * math.pi ** 2)
    e1s, eis = exp_e1_ei(lam)
    pe = 1j * (math.pi * np.exp(-lam))
    lam2 = lam * lam
    f1 = (lam2 * (e1s - eis + pe))[:, None]
    f2 = we2 * lam2[:, None] - omega_0 ** 2 + damp * (lam * (pe - (e1s + eis)))[:, None]
    return pref * (f1 / f2).imag


def k_extended_drude1_integrand(l0: np.ndarray, ld: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The integrand of ``thermo.k_extended_drude1`` over lam = w/gamma_o as
    the imaginary part of one complex quotient, with l0 = omega_0/gamma_o
    and ld = omega_d/gamma_o as rows of shape (1, m); shape (n, m)."""
    lam = lam[:, None]
    lam2 = lam * lam
    ld2 = ld * ld
    lg = np.log(lam / ld)
    c_log = 2.0 / math.pi
    g1 = lam2 * (c_log * ld * ((ld2 - lam2) * lg + lam2 + ld2) + 1j * (ld * (lam2 - ld2)))
    g2 = (lam2 + ld2) * (
        (lam2 - l0 * l0) * (lam2 + ld2) - c_log * ld * lam2 * lg + 1j * (ld * lam2))
    return (g1 / g2).imag


def fused_integrand(kernel: Callable, omega_0: float, w: np.ndarray) -> np.ndarray:
    """The E_s(0), F(0) and K integrands of ``thermo._integrand`` as complex
    quotients, with G = w^2 - w0^2 + i w gamma_plus and G' its derivative:
    (w0^2 + w^2) Im G / |G|^2, w Im(-G'/G) and Im(-i w^2 gamma_plus' / G)
    as the columns of an (n, 3) array."""
    gp, dgp = kernel(w)
    w2 = w * w
    w0sq = omega_0 * omega_0
    G = (w2 - w0sq) + 1j * w * gp
    es = (w0sq + w2) * G.imag / np.abs(G) ** 2
    f = w * (-((2.0 * w + 1j * gp + 1j * w * dgp) / G)).imag
    k = (w2 * (-1j * dgp) / G).imag
    return np.stack((es, f, k), axis=1)


def to_bisect_per_segment(
    err: np.ndarray, worst: np.ndarray, seg: np.ndarray, seg_err: np.ndarray,
    failing: np.ndarray, tol: float,
) -> np.ndarray:
    """The panels ``quadrature._to_bisect`` picks in each failing segment,
    one segment at a time in ascending order, concatenated."""
    return np.concatenate([
        i[_to_bisect(err[i], worst[i], seg_err[s], tol)]
        for s in np.flatnonzero(failing) for i in (np.flatnonzero(seg == s),)])


def k_drude_closed_mp(omega_0: float, omega_d: float, gamma_o: float, dps: int = 50):
    """The Drude closed form of ``thermo._drude_es_f``, F(0) - E_s(0) at hbar = 1,
    evaluated in ``dps``-digit arithmetic from the roots of the pole cubic."""
    with mp.workdps(dps):
        w0_, wd, go = mp.mpf(omega_0), mp.mpf(omega_d), mp.mpf(gamma_o)
        roots = mp.polyroots([1, -wd, w0_ ** 2 + go * wd, -w0_ ** 2 * wd],
                             maxsteps=400, extraprec=4 * dps)
        om = max(roots, key=mp.re)
        z1, z2 = (r for r in roots if r is not om)
        om, g, w0sq = mp.re(om), mp.re(z1 + z2), mp.re(z1 * z2)
        w0 = mp.sqrt(w0sq)
        d = w0sq - g * g / 4
        t = mp.acos(g / (2 * w0)) / mp.sqrt(d) if d > 0 else mp.acosh(g / (2 * w0)) / mp.sqrt(-d)
        lg = mp.log(om / w0)
        den = w0sq - om * g + om ** 2
        i0 = ((w0sq + om ** 2 - g * g / 2) * t - g * lg) / den
        i2 = ((w0sq ** 2 + w0sq * om ** 2 - om ** 2 * g * g / 2) * t + om ** 2 * g * lg) / den
        f = (om + g) * mp.log((om + g) / om) + g * lg + 2 * d * t
        return (f - (w0_ ** 2 * i0 + i2)) / (2 * mp.pi)
