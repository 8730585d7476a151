"""Exact zero-temperature thermodynamics of an oscillator coupled to a
finite bath: normal modes from the secular equation, coupling free energy,
excess system energy by residues, the second-law deficit K with its residue
decomposition, and an independent eigen-decomposition oracle.

The squared normal-mode frequencies lam are the roots of the secular function

    s(lam) = 1 - sum_i z_i / (lam - d_i),

with poles d = (0, omega_1^2, ..., omega_N^2) and weights
z = (omega_0^2, kappa_1/M, ..., kappa_N/M), where kappa_j = c_j^2/(m_j omega_j^2).
s rises monotonically between consecutive poles, so each bracket
(d_k, d_k+1), and (d_N, d_N + omega_0^2 + gamma(0)) above the last pole,
holds exactly one root (Bunch, Nielsen & Sorensen 1978). Every root is
stored as an offset from the nearer end of its bracket, as LAPACK ``dlaed4``
does (Gu & Eisenstat 1995), so lam_k - d_i keeps full relative accuracy
even for a mode next to a bath pole. Each offset is found by a two-pole
rational step with a bisection safeguard (R.-C. Li 1993, the "middle way"
of ``dlaed4``). The residue weight of mode k is
1/(lam_k s'(lam_k)), with s' = sum_i z_i/(lam_k - d_i)^2: a sum of positive
terms, which is also the squared system component of the normal mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteBath",
    "NormalModes",
    "GroundStateReport",
    "SecondLawReport",
    "DegenerateBath",
    "BathParseError",
    "gamma_zero",
    "d_chi",
    "normal_modes",
    "free_energy_0",
    "system_energy_0",
    "k_second_law",
    "exact_ground_state_oracle",
    "parse_bath_file",
    "random_bath",
    "invariant_violations",
]

class DegenerateBath(ValueError):
    """A bracket narrower than the resolvable tolerance."""


class BathParseError(ValueError):
    def __init__(self, message: str, line_no: int | None):  # None: the whole file
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class _OscillatorError(ValueError):
    def __init__(self, index: int, message: str):  # index counts from 1
        super().__init__(f"oscillator {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class DiscreteBath:
    """System oscillator (M, omega_0) plus N bath oscillators (m_j, omega_j, c_j).

    Every value must be finite, and so must gamma(0); bath frequencies
    strictly increasing and couplings nonzero, so that every susceptibility
    pole is simple.
    """

    M: float
    omega_0: float
    oscillators: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not (0.0 < self.M < math.inf and 0.0 < self.omega_0 < math.inf):
            raise ValueError("M and omega_0 must be positive and finite")
        prev = gamma0 = 0.0
        for j, (m, w, c) in enumerate(self.oscillators, start=1):
            if not (0.0 < m < math.inf and 0.0 < w < math.inf):
                raise _OscillatorError(j, "mass and frequency must be positive and finite")
            if c == 0.0 or not math.isfinite(c):
                raise _OscillatorError(j, "coupling must be nonzero and finite")
            if not (m * w * w > 0.0 and math.isfinite(c * c / (m * w * w))):
                raise _OscillatorError(j, "c^2/(m omega^2) must be finite")
            gamma0 += c * c / (m * w * w) / self.M
            if not math.isfinite(gamma0):
                raise _OscillatorError(j, "gamma(0) = sum c^2/(m omega^2 M) must be finite")
            if w <= prev:
                raise _OscillatorError(j, "bath frequencies must be strictly increasing")
            prev = w

    @property
    def n(self) -> int:
        return len(self.oscillators)

    @property
    def bath_frequencies(self) -> np.ndarray:
        return np.array([w for _, w, _ in self.oscillators])

    @property
    def coupling_weights(self) -> np.ndarray:
        """c_j^2 / (m_j omega_j^2) for each bath oscillator."""
        return np.array([c * c / (m * w * w) for m, w, c in self.oscillators])


@dataclass(frozen=True)
class NormalModes:
    """The N+1 normal modes, one per interlacing bracket.

    Squared frequency k is lam_k = d[origins[k]] + offsets[k], with d the
    poles of the secular function; ``weights`` holds the residue weights
    1/(lam_k s'(lam_k)). ``sweeps`` counts the passes of the solve over
    the secular function, the midpoint sweep included (0 for N = 0).
    """

    frequencies: tuple[float, ...]
    origins: tuple[int, ...]
    offsets: tuple[float, ...]
    weights: tuple[float, ...]
    sweeps: int


@dataclass(frozen=True)
class GroundStateReport:
    E_total: float
    E_s: float
    E_bath_j: tuple[float, ...]
    mode_weights_q: tuple[float, ...]  # squared q-components of eigenvectors
    mode_frequencies: tuple[float, ...] = ()


@dataclass(frozen=True)
class SecondLawReport:
    K: float
    per_mode_terms: tuple[float, ...]
    per_bath_pole_terms: tuple[float, ...]
    residue_total: float


def gamma_zero(bath: DiscreteBath) -> float:
    """Static damping kernel gamma(0) = (1/M) sum_j c_j^2/(m_j omega_j^2)."""
    return float(np.sum(bath.coupling_weights)) / bath.M


def _secular(bath: DiscreteBath) -> tuple[np.ndarray, np.ndarray]:
    """Poles d and weights z of the secular function."""
    d = np.concatenate(([0.0], bath.bath_frequencies ** 2))
    z = np.concatenate(([bath.omega_0 ** 2], bath.coupling_weights / bath.M))
    return d, z


def d_chi(bath: DiscreteBath, omega: float) -> float:
    """Denominator polynomial of the susceptibility, evaluated in product form.

    A diagnostic only: the solver works on the secular function. Raises
    ArithmeticError when the products leave the float range, which happens
    for a few hundred oscillators.
    """
    lam = float(omega) ** 2
    diffs = lam - bath.bath_frequencies ** 2
    kappa = bath.coupling_weights
    try:
        with np.errstate(over="raise", invalid="raise"):
            first = (lam - bath.omega_0 ** 2) * np.prod(diffs)
            # sum_j kappa_j prod_{j' != j} diffs[j'] via prefix/suffix products
            prefix = np.ones(bath.n + 1)
            np.cumprod(diffs, out=prefix[1:])
            suffix = np.ones(bath.n + 1)
            suffix[:-1] = np.cumprod(diffs[::-1])[::-1]
            return float(first - lam * np.sum(kappa * prefix[:-1] * suffix[1:]) / bath.M)
    except FloatingPointError:
        raise ArithmeticError(
            f"d_chi: product form leaves the float range at omega = {omega:g}, "
            f"N = {bath.n}"
        ) from None


def _pole_gaps(d: np.ndarray, origins: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """lam_k - d_i for every root k and pole i, from the offsets.

    (d[origins[k]] - d_i) + offsets[k] is offsets[k] exactly in the origin's
    own column, so a root next to a pole keeps its relative accuracy.
    """
    return (d[origins, None] - d) + offsets[:, None]


# Most elements in one temporary: row blocks keep the memory of a sweep from
# growing as (N+1)^2, and every bath up to N = 511 is one block
BLOCK = 1 << 18


def _blocks(count: int, n: int):
    """Slices over ``count`` rows of N+1 columns, at most BLOCK elements each."""
    step = max(1, BLOCK // (n + 1))
    return (slice(i, i + step) for i in range(0, count, step))


def normal_modes(bath: DiscreteBath) -> NormalModes:
    """All N+1 normal-mode frequencies, one per interlacing bracket.

    One sweep at the midpoints picks each root's origin, the end of its
    bracket nearer the root (always the last pole for the root above it).
    Each later sweep evaluates s at the offsets of the unconverged rows,
    narrows their brackets by its sign, and fits psi, the terms of the poles
    at or below the bracket, as a + A/(lam - d_k) and phi, the rest, as
    b + B/(lam - d_k+1), matching value and derivative. The step goes to the
    root of that model inside the narrowed bracket, or bisects if there is
    none. A row stops once |s| is below its rounding bound or its bracket
    has shrunk to adjacent floats.
    """
    if bath.n == 0:
        w0 = bath.omega_0
        return NormalModes((w0,), (0,), (w0 * w0,), (1.0,), 0)
    n = bath.n
    d, z = _secular(bath)
    top = d[-1] + math.fsum(z)  # sum rule: the largest root lies below this
    edges = np.sqrt(np.append(d, top))
    narrow = np.flatnonzero(np.diff(edges) < 1e-13 * max(bath.omega_0, edges[-2]))
    if narrow.size:
        lo, hi = edges[narrow[0]], edges[narrow[0] + 1]
        raise DegenerateBath(f"bracket ({lo:.6g}, {hi:.6g}) collapsed below resolution")

    k = np.arange(n + 1)
    width = np.append(np.diff(d), top - d[-1])
    mid = 0.5 * width
    above = np.empty(n + 1, dtype=bool)  # s(midpoint) < 0
    for b in _blocks(n + 1, n):
        above[b] = np.sum(z / _pole_gaps(d, k[b], mid[b]), axis=1) > 1.0
    up = above & (k < n)  # the origin is the upper end of the bracket
    origins = k + up
    shift = d[origins] - d[k]
    lo = np.where(above, mid, 0.0) - shift
    hi = np.where(above, width, mid) - shift
    # the far end of the bracket as an offset; above the last pole the model's
    # quadratic has ``far`` as a second root, so it goes below, out of the bracket
    far = np.where(up | (k == n), -width, width)
    tau = 0.5 * (lo + hi)
    ds = np.empty(n + 1)
    eps = np.finfo(float).eps
    rows, sweeps = k, 1
    while rows.size:
        sweeps += 1
        keep = np.empty(rows.size, dtype=bool)
        for blk in _blocks(rows.size, n):
            i = rows[blk]
            t, f = tau[i], far[i]
            gaps = _pole_gaps(d, origins[i], t)
            r = z / gaps
            s = 1.0 - r.sum(axis=1)
            bound = 8.0 * eps * (1.0 + np.abs(r).sum(axis=1))
            r /= gaps  # the terms of s'
            below = gaps > 0.0  # the poles at or below the bracket
            dpsi, dphi = np.sum(r, axis=1, where=below), np.sum(r, axis=1, where=~below)
            ds[i] = dpsi + dphi
            lo[i] = lo_i = np.where(s < 0.0, t, lo[i])
            hi[i] = hi_i = np.where(s > 0.0, t, hi[i])
            keep[blk] = go = (np.abs(s) > bound) & (np.nextafter(lo_i, hi_i) < hi_i)
            # the model C - W/y - V/(y - f) in the offset y, W the weight of
            # the origin's pole: C y^2 - (C f + W + V) y + W f = 0
            W = np.where(up[i], dphi, dpsi) * t * t
            V = np.where(up[i], dpsi, dphi) * (t - f) ** 2
            C = s + W / t + V / (t - f)
            with np.errstate(divide="ignore", invalid="ignore"):
                p = C * f + W + V
                q = p + np.copysign(np.sqrt(np.maximum(p * p - 4.0 * C * W * f, 0.0)), p)
                y1, y2 = 0.5 * q / C, 2.0 * W * f / q
            y = np.where((lo_i < y1) & (y1 < hi_i), y1,
                         np.where((lo_i < y2) & (y2 < hi_i), y2, 0.5 * (lo_i + hi_i)))
            tau[i] = np.where(go, y, t)
        rows = rows[keep]
    lam = d[origins] + tau
    return NormalModes(
        tuple(np.sqrt(lam).tolist()), tuple(origins.tolist()),
        tuple(tau.tolist()), tuple((1.0 / (lam * ds)).tolist()), sweeps,
    )


def free_energy_0(bath: DiscreteBath, modes: NormalModes, hbar: float = 1.0) -> float:
    """Minimum coupling work at T=0: (hbar/2)(sum w_bar_k - sum w_j)."""
    return 0.5 * hbar * (
        math.fsum(modes.frequencies) - math.fsum(w for _, w, _ in bath.oscillators)
    )


def system_energy_0(bath: DiscreteBath, modes: NormalModes, hbar: float = 1.0) -> float:
    """Excess-bearing system energy at T=0 from the residue sum over modes."""
    wb = np.array(modes.frequencies)
    terms = (bath.omega_0 ** 2 + wb * wb) / wb * np.array(modes.weights)
    return 0.25 * hbar * math.fsum(terms)


def k_second_law(
    bath: DiscreteBath, modes: NormalModes, hbar: float = 1.0
) -> SecondLawReport:
    """Second-law deficit K = F(0) - E_s(0) with its residue decomposition.

    The residue sum runs over every simple pole of the contour integrand on
    the positive real axis: the normal-mode poles, each a sum of positive
    terms, and the bath-frequency poles, each exactly -hbar omega_l/2 (from
    prod_k (omega_l^2 - lam_k) = lam s(lam) prod_j (lam - omega_j^2) at
    lam = omega_l^2). Each omega_l - wbar_k is taken from the offsets as
    -(lam_k - omega_l^2)/(omega_l + wbar_k), so no term cancels.
    """
    K = free_energy_0(bath, modes, hbar) - system_energy_0(bath, modes, hbar)
    wb = np.array(modes.frequencies)
    w = bath.bath_frequencies
    d, z = _secular(bath)
    origins, offsets = np.array(modes.origins), np.array(modes.offsets)
    a2 = np.empty(wb.size)
    for b in _blocks(wb.size, bath.n):
        gaps = _pole_gaps(d, origins[b], offsets[b])[:, 1:]
        plus = w + wb[b, None]
        a2[b] = np.sum(z[1:] * (1.0 / plus ** 2 + (plus / gaps) ** 2), axis=1)
    mode_terms = 0.125 * hbar * wb * np.array(modes.weights) * a2
    bath_terms = -0.5 * hbar * w
    return SecondLawReport(
        K=K,
        per_mode_terms=tuple(mode_terms.tolist()),
        per_bath_pole_terms=tuple(bath_terms.tolist()),
        residue_total=math.fsum([*mode_terms, *bath_terms]),
    )


def exact_ground_state_oracle(bath: DiscreteBath, hbar: float = 1.0) -> GroundStateReport:
    """Independent check: diagonalize the mass-weighted potential matrix.

    Builds the (N+1)x(N+1) potential (counter-term included), takes its
    eigen-decomposition, and assembles the ground-state energies of the
    system and of every bath oscillator; eigenvalues must reproduce the
    normal-mode frequencies.
    """
    osc = np.array(bath.oscillators).reshape(-1, 3)
    w2 = np.concatenate(([bath.omega_0 ** 2], osc[:, 1] ** 2))  # bare frequencies^2
    V = np.diag(w2)
    V[0, 0] += gamma_zero(bath)
    V[0, 1:] = V[1:, 0] = -osc[:, 2] / np.sqrt(bath.M * osc[:, 0])
    evals, U = np.linalg.eigh(V)
    if np.any(evals <= 0.0) or not np.all(np.isfinite(evals)):
        raise ArithmeticError("potential matrix is not positive definite")
    wbar = np.sqrt(evals)
    E_total = 0.5 * hbar * float(np.sum(wbar))

    # (hbar/4) sum_k U_jk^2 (wbar_k + w_j^2/wbar_k); a matmul's BLAS costs memory
    U *= U
    E = 0.25 * hbar * np.sum(U * (wbar + w2[:, None] / wbar), axis=1)
    return GroundStateReport(
        E_total=E_total,
        E_s=float(E[0]),
        E_bath_j=tuple(E[1:].tolist()),
        mode_weights_q=tuple(U[0]),
        mode_frequencies=tuple(wbar.tolist()),
    )


def parse_bath_file(text: str) -> DiscreteBath:
    """Parse the line-oriented bath description.

    Comment lines start with '#'; the first data line is ``M <value>``, the
    second ``omega0 <value>``, and each further line ``<m_j> <omega_j> <c_j>``.
    """
    M = None
    omega_0 = None
    oscillators, lines = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if M is None:
                if parts[0] != "M" or len(parts) != 2:
                    raise ValueError("expected 'M <value>'")
                M = float(parts[1])
            elif omega_0 is None:
                if parts[0] != "omega0" or len(parts) != 2:
                    raise ValueError("expected 'omega0 <value>'")
                omega_0 = float(parts[1])
            else:
                if len(parts) != 3:
                    raise ValueError("expected '<m_j> <omega_j> <c_j>'")
                oscillators.append(tuple(float(p) for p in parts))
                lines.append(line_no)
        except (ValueError, IndexError) as exc:
            raise BathParseError(str(exc), line_no) from None
    if M is None or omega_0 is None:
        raise BathParseError("missing 'M' or 'omega0' header line", None)
    try:
        return DiscreteBath(M, omega_0, tuple(oscillators))
    except _OscillatorError as exc:
        raise BathParseError(str(exc), lines[exc.index - 1]) from None
    except ValueError as exc:
        raise BathParseError(str(exc), None) from None


def invariant_violations(bath: DiscreteBath, hbar: float = 1.0) -> list[str]:
    """Check every exact-bath invariant; returns a description per violation.

    Covers interlacing, the sum and product rules, the bounds on the system
    and bath ground-state energies, nonnegativity of K and of the per-mode
    residue terms, the reconciliation of the residue sum with F - E_s, and
    agreement with the eigen-decomposition oracle.
    """
    out: list[str] = []
    modes = normal_modes(bath)
    wb = np.array(modes.frequencies)
    w = bath.bath_frequencies

    interleaved = np.empty(2 * bath.n + 1)
    interleaved[0::2] = wb
    interleaved[1::2] = w
    if not np.all(np.diff(interleaved) >= 0.0):
        out.append("interlacing violated")
    if not (wb[0] <= bath.omega_0 <= wb[-1]):
        out.append("omega_0 outside [wbar_min, wbar_max]")

    sum_lhs = math.fsum(wb ** 2)
    sum_rhs = math.fsum(w ** 2) + bath.omega_0 ** 2 + gamma_zero(bath)
    if abs(sum_lhs - sum_rhs) > 1e-10 * abs(sum_rhs):
        out.append(f"sum rule off by {abs(sum_lhs - sum_rhs) / abs(sum_rhs):.2e}")
    prod_lhs = math.fsum(np.log(wb ** 2))
    prod_rhs = math.fsum(np.log(w ** 2)) + 2.0 * math.log(bath.omega_0)
    if abs(prod_lhs - prod_rhs) > 1e-10 * max(1.0, abs(prod_rhs)):
        out.append("product rule violated")

    f0 = free_energy_0(bath, modes, hbar)
    es = system_energy_0(bath, modes, hbar)
    if not es > 0.5 * hbar * bath.omega_0:
        out.append("E_s(0) does not exceed the bare ground-state energy")
    if not (f0 > 0.5 * hbar * bath.omega_0 and f0 >= 0.5 * hbar * wb[0]):
        out.append("F(0) below the ground-state energy bounds")

    report = k_second_law(bath, modes, hbar)
    if report.K < 0.0:
        out.append(f"K negative: {report.K:.3e}")
    if abs(report.K - (f0 - es)) > 1e-8 * max(abs(report.K), 1e-300):
        out.append("K disagrees with F(0) - E_s(0)")
    if abs(report.residue_total - report.K) > 1e-8 * max(abs(report.K), 1e-12 * hbar * bath.omega_0):
        out.append(
            f"residue sum {report.residue_total:.6e} != K {report.K:.6e}"
        )
    if any(t < 0.0 for t in report.per_mode_terms):
        out.append("negative per-mode residue term")

    oracle = exact_ground_state_oracle(bath, hbar)
    if abs(oracle.E_s - es) > 1e-10 * es:
        out.append(f"oracle E_s mismatch: {abs(oracle.E_s - es) / es:.2e}")
    mode_err = max(
        abs(a - b) / b for a, b in zip(oracle.mode_frequencies, wb)
    )
    if mode_err > 1e-10:
        out.append(f"oracle mode-frequency mismatch: {mode_err:.2e}")
    if abs(oracle.E_total - 0.5 * hbar * math.fsum(wb)) > 1e-10 * oracle.E_total:
        out.append("oracle total energy mismatch")
    if any(ej <= 0.5 * hbar * wj for ej, wj in zip(oracle.E_bath_j, w)):
        out.append("bath oscillator without excess energy")
    return out


# n = 12 frequencies keep random_bath's gaps with probability about 0.56,
# n = 30 with 0.019 and n = 45 with 8e-5
RANDOM_BATH_DRAWS = 10_000


def random_bath(rng: np.random.Generator, n_max: int = 12) -> DiscreteBath:
    """Seeded random bath for the property suite.

    Log-uniform frequencies in [0.1, 10] with a minimum relative gap, and
    couplings rescaled so that gamma(0) <= 5 omega_0^2. Raises ValueError
    when RANDOM_BATH_DRAWS draws of the frequencies all miss the gap.
    """
    n = int(rng.integers(1, n_max + 1))
    omega_0 = float(10.0 ** rng.uniform(-1.0, 1.0))
    for _ in range(RANDOM_BATH_DRAWS):
        freqs = np.sort(10.0 ** rng.uniform(-1.0, 1.0, size=n))
        if n == 1 or np.min(np.diff(freqs) / freqs[:-1]) > 0.02:
            break
    else:
        raise ValueError(f"random_bath: no draw of {n} frequencies kept 2% gaps "
                         f"in {RANDOM_BATH_DRAWS} tries; use fewer oscillators")
    masses = 10.0 ** rng.uniform(-0.5, 0.5, size=n)
    couplings = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    M = float(10.0 ** rng.uniform(-0.5, 0.5))
    raw = np.sum(couplings ** 2 / (masses * freqs ** 2)) / M
    target = rng.uniform(0.05, 1.0) * 5.0 * omega_0 ** 2
    couplings *= math.sqrt(target / raw)
    return DiscreteBath(
        M, omega_0, tuple(zip(masses.tolist(), freqs.tolist(), couplings.tolist()))
    )
