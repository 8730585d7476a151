"""Continuous damping families: spectral densities J(w), time-domain kernels,
frequency-domain boundary values gamma_plus(w), and validity classification.

Three families are written out: exponential cutoff, extended Ohmic with an
extra power (omega/gamma_o)^p, and extended Drude with an extra power
(omega/omega_d)^n. Strict Ohmic (``Ohmic``) is the p = 0 member and Drude
(Lorentzian cutoff, ``Drude``) the n = 0 member: subclasses that fix the
power, so every dispatch on a family covers them. Odd powers (p odd; n odd
with n >= 3) have distributional kernels with no usable frequency-domain
transform and are rejected; p = 2 and even n >= 4 are well defined but
carry a log-divergent second-law deficit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import specfun
from .quadrature import principal_value_integral

__all__ = [
    "Ohmic",
    "Drude",
    "Exponential",
    "ExtendedOhmic",
    "ExtendedDrude",
    "SpectralModel",
    "ModelStatus",
    "StatusTag",
    "InvalidModel",
    "UnsupportedKernel",
    "classify_model",
    "boundary_kernel",
    "j_omega",
    "gamma_t",
    "gamma_plus",
    "gamma_plus_generic",
    "gamma_plus_derivative",
    "g_plus",
    "g_plus_derivative",
    "parse_model",
]


class InvalidModel(ValueError):
    """Requested an operation on a model with a distributional (unusable) kernel."""


class UnsupportedKernel(ValueError):
    """The requested quantity has no finite representation for this model."""


def _require_positive(name: str, value: float) -> float:
    v = float(value)
    if not v > 0.0 or not math.isfinite(v):
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return v


@dataclass(frozen=True)
class Exponential:
    gamma_o: float
    omega_e: float

    def __post_init__(self):
        _require_positive("gamma_o", self.gamma_o)
        _require_positive("omega_e", self.omega_e)


@dataclass(frozen=True)
class ExtendedOhmic:
    """J(w) = M gamma_o w (w/gamma_o)^p."""

    gamma_o: float
    p: int

    def __post_init__(self):
        _require_positive("gamma_o", self.gamma_o)
        if self.p < 0 or self.p != int(self.p):
            raise ValueError(f"p must be a nonnegative integer, got {self.p}")


@dataclass(frozen=True)
class Ohmic(ExtendedOhmic):
    p: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class ExtendedDrude:
    """J(w) = M gamma_o w (w/omega_d)^n omega_d^2 / (w^2 + omega_d^2)."""

    gamma_o: float
    omega_d: float
    n: int

    def __post_init__(self):
        _require_positive("gamma_o", self.gamma_o)
        _require_positive("omega_d", self.omega_d)
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"n must be a nonnegative integer, got {self.n}")


@dataclass(frozen=True)
class Drude(ExtendedDrude):
    n: int = field(default=0, init=False, repr=False)


SpectralModel = Union[Exponential, ExtendedOhmic, ExtendedDrude]


class StatusTag(enum.Enum):
    VALID = "Valid"
    INVALID_KERNEL = "InvalidKernel"
    VALID_BUT_K_DIVERGENT = "ValidButKDivergent"


@dataclass(frozen=True)
class ModelStatus:
    tag: StatusTag
    reason: str = ""
    sign: str = ""

    def __str__(self) -> str:
        if self.tag is StatusTag.INVALID_KERNEL:
            return f"InvalidKernel: {self.reason}"
        if self.tag is StatusTag.VALID_BUT_K_DIVERGENT:
            return f"ValidButKDivergent({self.sign})"
        return "Valid"


def classify_model(model: SpectralModel) -> ModelStatus:
    """Physical validity of the damping family.

    Odd extra powers produce a non-transformable P(1/t^2)-type kernel; even
    extra powers beyond the weakly-divergent cases give log-divergent K with
    negative sign.
    """
    if isinstance(model, ExtendedOhmic):
        if model.p == 0:
            return ModelStatus(StatusTag.VALID)
        if model.p % 2 == 1:
            return ModelStatus(
                StatusTag.INVALID_KERNEL,
                reason=f"extended Ohmic p={model.p}: kernel is a P(1/t^2)-type "
                       "distribution with no frequency-domain transform",
            )
        return ModelStatus(StatusTag.VALID_BUT_K_DIVERGENT, sign="-")
    if isinstance(model, ExtendedDrude):
        n = model.n
        if n in (0, 1, 2):
            return ModelStatus(StatusTag.VALID)
        if n % 2 == 1:
            return ModelStatus(
                StatusTag.INVALID_KERNEL,
                reason=f"extended Drude n={n}: kernel contains a P(1/t^2) part",
            )
        return ModelStatus(StatusTag.VALID_BUT_K_DIVERGENT, sign="-")
    return ModelStatus(StatusTag.VALID)


def _cutoffs(model: SpectralModel) -> list[float]:
    """The model's cutoff frequency, if it has one."""
    if isinstance(model, ExtendedDrude):
        return [model.omega_d]
    if isinstance(model, Exponential):
        return [model.omega_e]
    return []


def _reject_invalid(model: SpectralModel) -> None:
    status = classify_model(model)
    if status.tag is StatusTag.INVALID_KERNEL:
        raise InvalidModel(str(status))


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


def gamma_t(model: SpectralModel, t: float) -> float:
    """Time-domain damping kernel for models whose kernel is an ordinary function."""
    _require_positive("t", t)
    _reject_invalid(model)
    g = model.gamma_o
    if isinstance(model, ExtendedDrude) and model.n == 0:
        return g * model.omega_d * math.exp(-model.omega_d * t)
    if isinstance(model, Exponential):
        we = model.omega_e
        return (2.0 / math.pi) * g * we / (1.0 + (we * t) ** 2)
    if isinstance(model, ExtendedDrude) and model.n == 1:
        x = model.omega_d * t
        return (g * model.omega_d / math.pi) * (specfun.exp_e1(x) - specfun.exp_neg_ei(x))
    raise UnsupportedKernel(
        f"{type(model).__name__}: time-domain kernel is distributional or unknown"
    )


def boundary_kernel(model: SpectralModel) -> Callable:
    """The model's damping kernel at the real axis, resolved once.

    Checks validity and dispatches on the family once, and returns a closure
    ``w -> (gamma_plus(w), gamma_plus'(w))`` that computes both values from
    shared terms, elementwise: ``w`` is a float or an ndarray, and so are
    the two complex values. The closure does not check ``w > 0``. The real
    part of gamma_plus equals J(w)/(M w); the imaginary (reactive) part is
    the principal-value transform of J. For the delta(0)-carrying members
    (extended Ohmic p = 2, even extended Drude n >= 4) the closure returns
    the finite part, the delta(0) weight dropped: enough to classify the
    divergence, not to integrate it. Even extended Drude n >= 6 reuses the
    n = 4 finite part.

    Raises InvalidModel for a distributional kernel, and UnsupportedKernel
    for a divergent member without a finite part (extended Ohmic p >= 4).
    """
    _reject_invalid(model)
    g = model.gamma_o
    if isinstance(model, ExtendedOhmic):
        if model.p == 0:
            return lambda w: (g + 0j * w, 0j * w)
        if model.p == 2:
            return lambda w: (w * w / g + 0j, 2.0 * w / g + 0j)
        raise UnsupportedKernel(
            f"extended Ohmic p={model.p}: no finite-part kernel for the delta(0) weight"
        )
    if isinstance(model, Exponential):
        we = model.omega_e
        gpi = g / math.pi

        def exponential(w):
            lam = w / we
            e1s, eis = specfun.exp_e1_ei(lam)
            re = g * np.exp(-lam)
            # d/dlam of (e^x E1 + e^-x Ei) = e^x E1 - e^-x Ei
            return re + 1j * (gpi * (e1s + eis)), (1j * (gpi * (e1s - eis)) - re) / we

        return exponential
    wd = model.omega_d
    gwd = g * wd
    if model.n == 0:

        def drude(w):
            c = wd - 1j * w
            gd = gwd / c
            return gd, 1j * gd / c

        return drude
    if model.n == 1:
        wd2 = wd * wd
        c_log = 2.0 / math.pi

        def drude1(w):
            denom = w * w + wd2
            u = w / denom
            du = (wd2 - w * w) / denom ** 2
            lg = np.log(w / wd)
            return (gwd * (u + 1j * (c_log * u * lg)),
                    gwd * (du + 1j * (c_log * (du * lg + u / w))))

        return drude1
    if model.n == 2:

        def drude2(w):
            # Ohmic minus Drude
            c = wd - 1j * w
            gd = gwd / c
            return g - gd, -1j * gd / c

        return drude2
    g_wd2 = g / (wd * wd)

    def drude4_finite_part(w):
        # Drude minus Ohmic plus g w^2 / wd^2
        c = wd - 1j * w
        gd = gwd / c
        return gd - g + g_wd2 * w * w, 1j * gd / c + 2.0 * g_wd2 * w

    return drude4_finite_part


def _kernel_at(model: SpectralModel, omega: float) -> tuple[complex, complex]:
    """(gamma_plus, gamma_plus') at one frequency, for members with no
    delta(0) weight."""
    if classify_model(model).tag is StatusTag.VALID_BUT_K_DIVERGENT:
        raise UnsupportedKernel(
            f"{type(model).__name__}: gamma_plus carries a delta(0) weight; "
            "only divergence classification is defined"
        )
    gp, dgp = boundary_kernel(model)(_require_positive("omega", omega))
    return complex(gp), complex(dgp)


def gamma_plus(model: SpectralModel, M: float, omega: float) -> complex:
    """Boundary value of the frequency-domain damping kernel, closed forms.

    One value of ``boundary_kernel(model)``; raises UnsupportedKernel for
    the delta(0)-carrying members.
    """
    return _kernel_at(model, omega)[0]


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


def gamma_plus_derivative(model: SpectralModel, M: float, omega: float) -> complex:
    """d gamma_plus / d omega: one value of ``boundary_kernel(model)``."""
    return _kernel_at(model, omega)[1]


def g_plus(model: SpectralModel, M: float, omega_0: float, omega: float) -> complex:
    """G_+(w) = w^2 - w0^2 + i w gamma_plus(w); Im G_+ = J(w)/M >= 0."""
    gp, _ = _kernel_at(model, omega)
    return complex(omega * omega - omega_0 * omega_0, 0.0) + 1j * omega * gp


def g_plus_derivative(
    model: SpectralModel, M: float, omega_0: float, omega: float
) -> complex:
    """dG_+/dw = 2w + i gamma_plus + i w gamma_plus'."""
    gp, dgp = _kernel_at(model, omega)
    return 2.0 * omega + 1j * gp + 1j * omega * dgp


_MODEL_KEYS = {
    "ohmic": (Ohmic, {"g": "gamma_o"}),
    "drude": (Drude, {"g": "gamma_o", "wd": "omega_d"}),
    "exp": (Exponential, {"g": "gamma_o", "we": "omega_e"}),
    "xohmic": (ExtendedOhmic, {"g": "gamma_o", "p": "p"}),
    "xdrude": (ExtendedDrude, {"g": "gamma_o", "wd": "omega_d", "n": "n"}),
}


def parse_model(text: str) -> SpectralModel:
    """Parse a model description such as ``drude g=1 wd=5``.

    Grammar: ``ohmic g=<g>``, ``drude g=<g> wd=<wd>``, ``exp g=<g> we=<we>``,
    ``xohmic g=<g> p=<p>``, ``xdrude g=<g> wd=<wd> n=<n>``.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty model description")
    name = tokens[0].lower()
    if name not in _MODEL_KEYS:
        raise ValueError(
            f"unknown model '{name}' at position 0; expected one of "
            f"{sorted(_MODEL_KEYS)}"
        )
    cls, keymap = _MODEL_KEYS[name]
    kwargs = {}
    for pos, tok in enumerate(tokens[1:], start=1):
        if "=" not in tok:
            raise ValueError(f"expected key=value at position {pos}, got '{tok}'")
        key, _, raw = tok.partition("=")
        if key not in keymap:
            raise ValueError(
                f"unknown parameter '{key}' for model '{name}' at position {pos}"
            )
        attr = keymap[key]
        try:
            kwargs[attr] = int(raw) if attr in ("p", "n") else float(raw)
        except ValueError as exc:
            raise ValueError(f"bad numeric value '{raw}' at position {pos}") from exc
    missing = set(keymap.values()) - set(kwargs)
    if missing:
        raise ValueError(f"model '{name}' missing parameters: {sorted(missing)}")
    return cls(**kwargs)
