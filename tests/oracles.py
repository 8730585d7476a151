"""Independent references that only the tests call.

The package computes gamma_plus from closed forms (``spectral.boundary_kernel``)
and never needs a principal value. These routes compute the same kernel the
long way, as the principal-value transform of J(w) on the package's own
quadrature engine, so the closed forms can be checked against something that
shares none of their algebra. They live here, not in ``oscbath``, because no
program path runs them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from oscbath.quadrature import (
    DEFAULT_MAX_EVALS,
    DEFAULT_TOL,
    IntegralResult,
    integrate_interval,
    integrate_semi_infinite,
)
from oscbath.spectral import (
    SpectralModel,
    _cutoffs,
    _reject_invalid,
    _require_positive,
    j_omega,
)


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
