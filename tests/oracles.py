"""Independent references that only the tests call.

The package computes gamma_plus from closed forms (``spectral.boundary_kernel``)
and never needs a principal value. These routes compute the same kernel the
long way, as the principal-value transform of J(w) on the package's own
quadrature engine, so the closed forms can be checked against something that
shares none of their algebra. The spectral density J(w) itself, their input,
and dG_+/dw, the analytic side of finite-difference checks, live here too,
as do the real-axis lambda forms of K for the exponential and the extended
Drude n = 1 models, the references on the other contour for
``thermo.k_exponential`` and ``thermo.k_extended_drude1``, their integrands
and those of the fused E_s/F/K route written as complex quotients, the
references for their real-arithmetic forms, the Drude closed form of K evaluated at 50
digits, the reference for its rounding at weak coupling, K of a finite bath
from a 50-digit eigensolve, the reference for the discrete K at weak
coupling, and the finite-part kernels of the delta(0)-carrying members, the
reference for their tail classes. None of them is in ``oscbath``, because
no program path runs them.
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
    integrate_interval,
    integrate_semi_infinite,
)
from oscbath.spectral import (
    Exponential,
    ExtendedOhmic,
    InvalidModel,
    SpectralModel,
    StatusTag,
    classify_model,
    _kernel_at,
    _law,
    _require_positive,
)
from oscbath.specfun import exp_e1_ei
from oscbath.thermo import _entries


def j_omega(model: SpectralModel, M: float, omega: float) -> float:
    """Spectral density J(w) for w > 0."""
    status = classify_model(model)
    if status.tag is StatusTag.INVALID_KERNEL:
        raise InvalidModel(str(status))
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


def finite_part_kernel(model: SpectralModel) -> Callable:
    """``w -> (gamma_plus(w), gamma_plus'(w))`` of a delta(0)-carrying member
    (extended Ohmic p = 2, even extended Drude n >= 4) with the delta(0)
    weight dropped, elementwise as ``spectral.boundary_kernel``.

    p = 2 is g x^2 with x = w/g. Even n = 2q is -g + g x^2 +
    g omega_d/(omega_d - i w) with x = w/omega_d, the partial-fraction split
    x^2q/(1 + x^2) = sum_{k<q} (-1)^(q-1-k) x^2k + (-1)^q/(1 + x^2) at
    q = 2, so n >= 6 reuse the n = 4 finite part. Re gamma_plus is still
    J(w)/(M w), and the large-w law of these kernels is what the tail
    classes of ``spectral._tail_signs`` state.
    """
    if classify_model(model).tag is not StatusTag.VALID_BUT_K_DIVERGENT:
        raise ValueError(f"{model!r} carries no delta(0) weight")
    g = model.gamma_o
    if isinstance(model, ExtendedOhmic):
        if model.p != 2:
            raise ValueError(f"no finite-part kernel for extended Ohmic p={model.p}")

        def ohmic2(w):
            zero = 0j * w
            x = w / g
            return zero + g * (x * x), zero + 2.0 * x

        return ohmic2
    wd = model.omega_d
    d2 = 2.0 * g / wd

    def drude4(w):
        x = w / wd
        c = wd - 1j * w
        gd = g * wd / c
        return -g + g * (x * x) + gd, d2 * x + 1j * gd / c

    return drude4


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
    w = _require_positive("omega", omega)
    re = j_omega(model, M, w) / (M * w)

    def integrand(wp: np.ndarray) -> np.ndarray:
        # J node by node through j_omega, independent of boundary_kernel
        jw = np.array([j_omega(model, M, x) for x in wp.tolist()])
        return (jw / wp) * (1.0 / (wp + w) - 1.0 / (wp - w)) / math.pi

    splits = [w / 2, 2 * w, *_law(model)[2]]
    res = principal_value_integral(integrand, w, tol=tol, split_points=splits)
    return complex(re, res.value / M)


def exponential_lambda_integrand(
    omega_0: float, omega_e: np.ndarray, gamma_o: np.ndarray, hbar: float = 1.0,
) -> Callable:
    """The real-axis integrand of K for the exponential model over
    lam = w/omega_e, in real arithmetic, for parameter rows of shape (1, m):
    nodes of shape (n,) to (n, m). The scaled exponential integrals keep it
    finite at arbitrarily large lam, and the prefactor
    hbar gamma_o omega_e^2 / (2 pi^2) makes its integral K itself."""
    we2 = omega_e * omega_e
    w0sq = omega_0 ** 2
    damp = gamma_o * omega_e / math.pi
    pref = hbar * gamma_o * we2 / (2.0 * math.pi ** 2)

    def integrand(lam: np.ndarray) -> np.ndarray:
        # Im(a/b) in real arithmetic: node terms first, then one (nodes, entries) pass
        e1s, eis = exp_e1_ei(lam)
        lam2 = lam * lam
        pe = math.pi * np.exp(-lam)
        ar, ai = (lam2 * (e1s - eis))[:, None], (lam2 * pe)[:, None]
        br = we2 * lam2[:, None] - w0sq - damp * (lam * (e1s + eis))[:, None]
        bi = damp * (lam * pe)[:, None]
        return pref * (ai * br - ar * bi) / (br * br + bi * bi)

    return integrand


def k_exponential_real_axis(
    omega_0: float, omega_e, gamma_o, hbar: float = 1.0,
    tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
):
    """K of the exponential model as one real-axis integral over lam = w/omega_e,
    split at 1, omega_0/omega_e and that plus 1; ``tol`` bounds each entry's
    estimated error of K. Broadcasts as ``thermo.k_exponential``."""
    (we, g), unpack = _entries(omega_e, gamma_o)
    we, g = we.T, g.T  # (1, entries) rows
    r0 = (omega_0 / we).ravel()
    splits = sorted({1.0, *r0.tolist(), *(r0 + 1.0).tolist()})
    res = integrate_semi_infinite(exponential_lambda_integrand(omega_0, we, g, hbar), tol=tol,
                                  split_points=splits, max_evals=max_evals)
    return unpack(res.value)


def extended_drude1_lambda_integrand(l0: np.ndarray, ld: np.ndarray) -> Callable:
    """The real-axis integrand of K / (hbar gamma_o / 2 pi) for the extended
    Drude n = 1 model over lam = w/gamma_o, in real arithmetic, with
    l0 = omega_0/gamma_o and ld = omega_d/gamma_o as rows of shape (1, m)."""
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

    return integrand


def k_extended_drude1_real_axis(
    omega_0, omega_d, gamma_o: float, hbar: float = 1.0,
    tol: float = DEFAULT_TOL, max_evals: int = DEFAULT_MAX_EVALS,
):
    """K of the extended Drude n = 1 model as one real-axis integral over
    lam = w/gamma_o, split at l0, ld and l0 + ld; ``tol`` bounds each entry's
    estimated error of K / (hbar gamma_o / 2 pi). Broadcasts as
    ``thermo.k_extended_drude1``."""
    (l0, ld), unpack = _entries(np.divide(omega_0, gamma_o), np.divide(omega_d, gamma_o))
    l0, ld = l0.T, ld.T  # (1, entries) rows
    splits = sorted({*l0.ravel().tolist(), *ld.ravel().tolist(), *(l0 + ld).ravel().tolist()})
    res = integrate_semi_infinite(extended_drude1_lambda_integrand(l0, ld), tol=tol,
                                  split_points=splits, max_evals=max_evals)
    return unpack(hbar * gamma_o / (2.0 * math.pi) * res.value)


def k_exponential_integrand(
    omega_0: float, omega_e: np.ndarray, gamma_o: np.ndarray, lam: np.ndarray,
    hbar: float = 1.0,
) -> np.ndarray:
    """The integrand of :func:`exponential_lambda_integrand` as the
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
    """The integrand of :func:`extended_drude1_lambda_integrand` as
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


def k_discrete_mp(bath, dps: int = 50):
    """K = F(0) - E_s(0) of a finite bath at hbar = 1 from a ``dps``-digit
    eigensolve (``mpmath.eigsy``) of the mass-weighted potential matrix,
    counter-term included, as ``discrete.exact_ground_state_oracle`` builds
    it in double precision: F(0) = (sum wbar_k - sum omega_j)/2 and
    E_s(0) = sum_k U_0k^2 (wbar_k + omega_0^2/wbar_k)/4."""
    with mp.workdps(dps):
        M, w0 = mp.mpf(bath.M), mp.mpf(bath.omega_0)
        n = bath.n + 1
        V = mp.zeros(n, n)
        V[0, 0] = w0 ** 2
        for j, (m, w, c) in enumerate(bath.oscillators, start=1):
            m, w, c = mp.mpf(m), mp.mpf(w), mp.mpf(c)
            V[j, j] = w ** 2
            V[0, 0] += c ** 2 / (m * w ** 2 * M)
            V[0, j] = V[j, 0] = -c / mp.sqrt(M * m)
        lam, U = mp.eigsy(V)
        wbar = [mp.sqrt(x) for x in lam]
        f = (mp.fsum(wbar) - mp.fsum(mp.mpf(w) for _, w, _ in bath.oscillators)) / 2
        es = mp.fsum(U[0, k] ** 2 * (wbar[k] + w0 ** 2 / wbar[k]) for k in range(n)) / 4
        return f - es
