"""Continuous damping families: the validity of each family and its damping
kernel on both contours, each a closed form written once here and resolved
once per model: gamma_plus(w) on the real axis (:func:`boundary_kernel`) and
gamma_hat(xi) = gamma_plus(i xi) on the imaginary axis (:func:`imaginary_axis_kernel`).

Three families are written out: exponential cutoff, extended Ohmic with an
extra power (omega/gamma_o)^p, and extended Drude with an extra power
(omega/omega_d)^n. Strict Ohmic (``Ohmic``) is the p = 0 member and Drude
(Lorentzian cutoff, ``Drude``) the n = 0 member: subclasses that fix the
power, so every dispatch on a family covers them. Odd powers (p odd; n odd
with n >= 3) have distributional kernels with no usable frequency-domain
transform and are rejected; p = 2 and even n >= 4 are well defined but
carry a delta(0) weight and a log-divergent second-law deficit. One rule
gives each member's validity and the tail classes of its E_s(0), F(0) and K.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import specfun

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
    "imaginary_axis_kernel",
    "gamma_plus",
    "gamma_plus_derivative",
    "g_plus",
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
    """J(w) = M gamma_o w exp(-w/omega_e)."""

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


def _law(model: SpectralModel) -> tuple[float, float, list[float]]:
    """A member's large-omega law: its extra power, the last valid power of
    its family (0 for extended Ohmic, 2 for extended Drude, none for the
    exponential cutoff, whose every power would converge) and its cutoffs.

    The one dispatch on the family; every rule below reads it.
    """
    if isinstance(model, Exponential):
        return 0, math.inf, [model.omega_e]
    if isinstance(model, ExtendedOhmic):
        return model.p, 0, []
    return model.n, 2, [model.omega_d]


def classify_model(model: SpectralModel) -> ModelStatus:
    """Physical validity of the damping family.

    One rule for every member (:func:`_law`): a power at or below the
    family's last valid one is valid; an odd power above it produces a
    non-transformable P(1/t^2)-type kernel; an even power above it gives a
    log-divergent K with negative sign.
    """
    power, last, _ = _law(model)
    if power <= last:
        return ModelStatus(StatusTag.VALID)
    if power % 2 == 1:
        return ModelStatus(StatusTag.INVALID_KERNEL, reason=(
            f"extended Ohmic p={power}: kernel is a P(1/t^2)-type distribution "
            "with no frequency-domain transform" if last == 0 else
            f"extended Drude n={power}: kernel contains a P(1/t^2) part"))
    return ModelStatus(StatusTag.VALID_BUT_K_DIVERGENT, sign="-")


def _tail_signs(model: SpectralModel) -> tuple:
    """The tail classes of a member's E_s(0), F(0) and K, one entry per
    column: the sign of a logarithmic divergence, 0.0 where the integrand
    vanishes pointwise, or None where the integral converges.

    They follow from the large-omega law, by the rule of
    :func:`classify_model`. Raises InvalidModel for a distributional kernel,
    and UnsupportedKernel for extended Ohmic p >= 4, whose law is not stated.
    """
    power, last, _ = _law(model)
    if power < last:
        return None, None, None  # a cutoff: all three converge
    if power == last:
        # J ~ M gamma_o w: E_s and F grow like +log w; Ohmic's kernel is constant
        return ("+", "+", None) if last else ("+", "+", 0.0)
    if power % 2 == 1:
        raise InvalidModel(str(classify_model(model)))
    if last == 0 and power > 2:
        raise UnsupportedKernel(
            f"extended Ohmic p={power}: no tail class is stated for its delta(0) weight")
    # G ~ i w^3 gamma_o/omega_d^2 beyond omega_d^2/gamma_o (i w^3/gamma_o
    # beyond gamma_o at p = 2); even n >= 6 take the classes of n = 4
    return "+", "-", "-"


def _kernel_law(model: SpectralModel) -> tuple[float, float, list[float]]:
    """:func:`_law` of a member whose kernel is a function, else raises."""
    power, last, cutoffs = _law(model)
    if power > last:
        if power % 2 == 1:
            raise InvalidModel(str(classify_model(model)))
        raise UnsupportedKernel(f"{model!r}: gamma_plus carries a delta(0) weight")
    return power, last, cutoffs


def boundary_kernel(model: SpectralModel) -> Callable:
    """The model's damping kernel at the real axis, resolved once.

    Reads the member's law (:func:`_law`) once, and returns a closure
    ``w -> (gamma_plus(w), gamma_plus'(w))``, elementwise: a float ``w``
    gives complex scalars, an ndarray complex ndarrays of its shape. The
    closure does not check ``w > 0``. Re gamma_plus = J(w)/(M w); the
    imaginary part is the principal-value transform of J. Exponential and
    extended Drude n = 1 have closures of their own; the rest are
    c0 + sign g omega_d/(omega_d - i w): (c0, sign) = (0, +1) for Drude,
    (g, -1) for n = 2, from x^2/(1 + x^2) = 1 - 1/(1 + x^2), and (g, 0) for
    Ohmic, the constant g.

    Raises InvalidModel for a distributional kernel, and UnsupportedKernel
    for the members that carry a delta(0) weight (even extended Ohmic
    p >= 2, even extended Drude n >= 4): only their tail classes are defined.
    """
    power, last, cutoffs = _kernel_law(model)
    g = model.gamma_o
    if last == math.inf:
        we = cutoffs[0]
        gpi = g / math.pi

        def exponential(w):
            lam = w / we
            e1s, eis = specfun.exp_e1_ei(lam)
            re = g * np.exp(-lam)
            # d/dlam of (e^x E1 + e^-x Ei) = e^x E1 - e^-x Ei
            return re + 1j * (gpi * (e1s + eis)), (1j * (gpi * (e1s - eis)) - re) / we

        return exponential
    # Ohmic has no cutoff; its row's sign is 0, so omega_d is immaterial
    wd = cutoffs[0] if cutoffs else 1.0
    if power == 1:
        gwd = g * wd
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
    c0, sign = (g, 0.0) if not cutoffs else (0.0, 1.0) if power == 0 else (g, -1.0)
    sgwd = sign * g * wd

    def drude(w):
        c = wd - 1j * w
        gd = sgwd / c
        return c0 + gd, 1j * gd / c

    return drude


def imaginary_axis_kernel(model: SpectralModel) -> Callable:
    """gamma_hat(xi) = gamma_plus(i xi), the model's damping kernel on the
    imaginary axis, real and positive; chosen, and raising, as
    :func:`boundary_kernel`. A closure ``(gamma_o, t, s)`` of 1-D t =
    xi/cutoff and s = ln t; ``gamma_o`` is a float or an (entries, 1) column."""
    power, last, cutoffs = _kernel_law(model)
    if last == math.inf:
        return lambda g, t, s: ((2.0 / math.pi) * g) * specfun.aux_f(t)
    if power == 1:  # ln(t)/(t - 1) = s/(t - 1) -> 1 at t = 1, where s = 0 exactly
        return lambda g, t, s: (2.0 * g / math.pi) * (t / (t + 1.0)) * np.divide(
            s, t - 1.0, out=np.ones_like(t), where=s != 0.0)
    if not cutoffs:  # Ohmic: t in any unit
        return lambda g, t, s: g
    if power == 0:
        return lambda g, t, s: g / (1.0 + t)
    return lambda g, t, s: g * (t / (1.0 + t))  # n = 2: not g - g/(1 + t), eps/t off


def _kernel_at(model: SpectralModel, omega: float) -> tuple[complex, complex]:
    """(gamma_plus, gamma_plus') at one frequency."""
    gp, dgp = boundary_kernel(model)(_require_positive("omega", omega))
    return complex(gp), complex(dgp)


def gamma_plus(model: SpectralModel, M: float, omega: float) -> complex:
    """gamma_plus(omega): one value of ``boundary_kernel(model)``."""
    return _kernel_at(model, omega)[0]


def gamma_plus_derivative(model: SpectralModel, M: float, omega: float) -> complex:
    """d gamma_plus / d omega: one value of ``boundary_kernel(model)``."""
    return _kernel_at(model, omega)[1]


def g_plus(model: SpectralModel, M: float, omega_0: float, omega: float) -> complex:
    """G_+(w) = w^2 - w0^2 + i w gamma_plus(w); Im G_+ = J(w)/M >= 0."""
    gp, _ = _kernel_at(model, omega)
    return complex(omega * omega - omega_0 * omega_0, 0.0) + 1j * omega * gp


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
        if attr in kwargs:
            raise ValueError(f"duplicate parameter '{key}' at position {pos}")
        try:
            kwargs[attr] = int(raw) if attr in ("p", "n") else float(raw)
        except ValueError as exc:
            raise ValueError(f"bad numeric value '{raw}' at position {pos}") from exc
    missing = set(keymap.values()) - set(kwargs)
    if missing:
        raise ValueError(f"model '{name}' missing parameters: {sorted(missing)}")
    return cls(**kwargs)
