"""Seeded inputs, items and correctness oracles for the benchmark workloads.

Every workload is a sequence of cycles of items that the benchmark runs in a
closed loop. Each cycle draws fresh inputs from the workload's seeded
stream, so no item repeats another's input, and the same seed gives the
same sequence of cycles. A workload object gives the inputs of the next
cycle, runs one item against the program, and checks its output afterwards.
Checks use the bounds of the package's ``check`` command and of its tests.
The workloads keep to inputs on which the program is correct; the known
defects outside them are run by ``known_defects`` instead, and counted.
"""

from __future__ import annotations

import importlib.util
import math
import os

import numpy as np

from oscbath import cli, discrete, thermo
from oscbath.quadrature import DivergenceClass
from oscbath.spectral import (
    Drude,
    Exponential,
    ExtendedDrude,
    ExtendedOhmic,
    InvalidModel,
    Ohmic,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# bounds of the correctness checks, with where each one comes from
BOUNDS = {
    "cli.table1_margin": 5e-8,        # tests: criterion 1, exact golden
    "cli.table2_margin": 5e-8,        # tests: criterion 2, exact golden
    "cli.fig1_margin": 1e-6,          # tests: criterion 3, generic n=2 route
    "thermo.drude_k_margin": 1e-6,    # check: closed form vs lambda integral
    "thermo.special_k_margin": 1e-7,  # tests: special integrand vs F0 - E_s0
    "thermo.xdrude2_k_margin": 1e-6,  # tests: (d,2) closed form vs quadrature
    "discrete.residue_margin": 1e-8,  # discrete.invariant_violations
    "discrete.k_fe_margin": 1e-8,
    "discrete.sum_rule_margin": 1e-10,
    "discrete.oracle_es_margin": 1e-10,
    "discrete.oracle_mode_margin": 1e-10,
}

TOL = 1e-9  # the documented default tolerance of thermo and the CLI


def _load_goldens():
    path = os.path.join(ROOT, "tests", "goldens.py")
    spec = importlib.util.spec_from_file_location("oscbath_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    """A stream of cycles; subclasses define the inputs, the call and the check."""

    first: list  # the inputs of the first cycle, drawn at set-up

    def next_cycle(self) -> list:
        """The inputs of the next cycle, fresh draws from the seeded stream."""
        raise NotImplementedError

    def tag(self, inp) -> str | None:
        return None

    def call(self, inp):
        raise NotImplementedError

    def expected_error(self, inp, exc: Exception) -> bool:
        return False

    def check(self, inp, out, margins: dict) -> bool:
        """True when the output is right; records the worst margin seen.

        Runs right after the item, so files the item wrote are still there.
        """
        raise NotImplementedError

    def first_cycle_margins(self, margins: dict) -> None:
        """Extra margins computed over the first cycle (traced runs only)."""

    def close(self) -> None:
        pass


def _worst(margins: dict, name: str, value: float) -> bool:
    if not value <= margins.get(name, 0.0):
        margins[name] = value
    return value <= BOUNDS[name]


# ---------------------------------------------------------------------------
# grids: the paper's tables and figure through the command line


class Grids(Workload):
    """One item is one pass of table1, table2 and fig1 with its own hbar."""

    def __init__(self, seed: int, out_dir: str):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.paths = {c: os.path.join(out_dir, f"{c}.csv")
                      for c in ("table1", "table2", "fig1")}
        self.goldens = _load_goldens()
        self._fig1_ref = None
        self.first = self.next_cycle()

    def next_cycle(self) -> list:
        return [float(10.0 ** self.rng.uniform(-0.5, 0.5))]

    def call(self, hbar):
        for command, path in self.paths.items():
            code = cli.main([command, "--hbar", repr(hbar), "--out", path])
            if code != 0:
                raise RuntimeError(f"{command} exited with {code}")

    def _fig1_reference(self) -> dict:
        # the generic quadrature route at every fifth x, as criterion 3 does
        if self._fig1_ref is None:
            ref = {}
            for ratio in cli.FIG1_RATIOS:
                for x in cli._fig1_x_grid()[::5]:
                    omega_0 = math.sqrt(ratio * x + 1.0)
                    omega_d = ratio / (ratio * x + 1.0)
                    gamma_o = ratio + x - omega_d
                    kq = thermo.k_cont(ExtendedDrude(gamma_o, omega_d, 2), 1.0,
                                       omega_0, tol=TOL)
                    ref[(x, ratio)] = kq
            self._fig1_ref = ref
        return self._fig1_ref

    def check(self, hbar, out, margins) -> bool:
        texts = {}
        for command, path in self.paths.items():
            with open(path) as fh:
                texts[command] = fh.read()
        g = self.goldens
        ok = True
        rows = [line.split(",") for line in texts["table1"].split("\n")[1:] if line]
        if len(rows) != len(g.TABLE1_OMEGA_E) + 1:
            return False
        for i, row in enumerate(rows[:-1]):
            for j, cell in enumerate(row[1:]):
                ok &= _worst(margins, "cli.table1_margin",
                             abs(float(cell) - g.EXACT_TABLE1[i][j]))
        for j, cell in enumerate(rows[-1][1:]):
            ok &= _worst(margins, "cli.table1_margin",
                         abs(float(cell) - g.TABLE1_GAMMA[j] / math.pi))

        rows = [line.split(",") for line in texts["table2"].split("\n")[1:] if line]
        if len(rows) != len(g.EXACT_TABLE2):
            return False
        for w0, wd, kd, kd1 in rows:
            want = g.EXACT_TABLE2[(float(w0), float(wd))]
            ok &= _worst(margins, "cli.table2_margin", abs(float(kd) - want[0]))
            ok &= _worst(margins, "cli.table2_margin", abs(float(kd1) - want[1]))

        ref = self._fig1_reference()
        rows = [line.split(",") for line in texts["fig1"].split("\n")[1:] if line]
        if len(rows) != len(cli.FIG1_RATIOS) * len(cli._fig1_x_grid()):
            return False
        for x, ratio, k_norm in rows:
            x, ratio, k_norm = float(x), float(ratio), float(k_norm)
            ok &= k_norm < 0.0
            kq = ref.get((x, ratio))
            if kq is not None:
                # compare the deficit itself at hbar = 1, the criterion's scale
                k = k_norm * 0.5 * math.sqrt(ratio * x + 1.0)
                ok &= _worst(margins, "cli.fig1_margin", abs(k - kq))
        return ok

    def close(self) -> None:
        for path in self.paths.values():
            if os.path.exists(path):
                os.remove(path)
        if os.path.isdir(self.out_dir) and not os.listdir(self.out_dir):
            os.rmdir(self.out_dir)


# ---------------------------------------------------------------------------
# models: thermo_report over every spectral family

# (family, member) pairs; each pair gets the same number of items per cycle.
# xohmic p = 4 raises ValueError (no finite-part kernel): see known_defects
MEMBERS = {
    "ohmic": [None],
    "drude": [None],
    "exp": [None],
    "xohmic": list(range(4)),
    "xdrude": list(range(7)),
}
PER_MEMBER = 12

# log-uniform ranges of gamma_o, omega_0 and the cutoff
RANGES = ((0.2, 5.0), (0.2, 5.0), (0.5, 50.0))

# additive recurrence of the plastic number: a low-discrepancy sequence in
# three dimensions (Roberts' R3); a seeded shift makes it random
_PHI3 = 1.2207440846057596
_ALPHA = np.array([1.0 / _PHI3, 1.0 / _PHI3 ** 2, 1.0 / _PHI3 ** 3])


def _points(shift: np.ndarray, start: int, count: int) -> np.ndarray:
    """Points ``start`` to ``start + count`` of the shifted low-discrepancy
    sequence, mapped to the log ranges."""
    u = (shift + np.outer(np.arange(start, start + count), _ALPHA)) % 1.0
    lo = np.log10([r[0] for r in RANGES])
    hi = np.log10([r[1] for r in RANGES])
    return 10.0 ** (lo + u * (hi - lo))


def _model(family: str, member, gamma_o: float, cutoff: float):
    if family == "ohmic":
        return Ohmic(gamma_o)
    if family == "drude":
        return Drude(gamma_o, cutoff)
    if family == "exp":
        return Exponential(gamma_o, cutoff)
    if family == "xohmic":
        return ExtendedOhmic(gamma_o, member)
    return ExtendedDrude(gamma_o, cutoff, member)


class Models(Workload):
    """One item is one thermo_report call on a seeded model draw.

    Each (family, member) pair has its own shifted low-discrepancy sequence;
    cycle ``c`` takes its next points, so every cycle covers the ranges
    evenly with new models, in a new seeded order.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.shifts = {(family, member): self.rng.uniform(size=3)
                       for family, members in MEMBERS.items() for member in members}
        self.cycles = 0
        self.first = self.next_cycle()

    def next_cycle(self) -> list:
        cycle = []
        for (family, member), shift in self.shifts.items():
            start = self.cycles * PER_MEMBER
            for gamma_o, omega_0, cutoff in _points(shift, start, PER_MEMBER):
                model = _model(family, member, float(gamma_o), float(cutoff))
                cycle.append((family, member, model, float(omega_0)))
        self.cycles += 1
        return [cycle[i] for i in self.rng.permutation(len(cycle))]

    def call(self, inp):
        _, _, model, omega_0 = inp
        return thermo.thermo_report(model, 1.0, omega_0, hbar=1.0, tol=TOL)

    @staticmethod
    def _invalid(family: str, member) -> bool:
        if family == "xohmic":
            return member % 2 == 1
        return family == "xdrude" and member >= 3 and member % 2 == 1

    def expected_error(self, inp, exc) -> bool:
        family, member, _, _ = inp
        return isinstance(exc, InvalidModel) and self._invalid(family, member)

    @staticmethod
    def _reference(family, member, model, omega_0) -> float:
        if family == "drude" or (family == "xdrude" and member == 0):
            return thermo.k_drude_lambda(omega_0, model.omega_d, model.gamma_o,
                                         hbar=1.0, tol=TOL)
        # xdrude n=2: closed form in the (w0, Omega, gamma) variables
        p = thermo.drude_params_from_physical(
            omega_0, model.omega_d, model.gamma_o, variant="xdrude2")
        return thermo.k_extended_drude2_closed(p.w0, p.Omega, p.gamma)

    def check(self, inp, rep, margins) -> bool:
        family, member, _, _ = inp
        if self._invalid(family, member):
            return False  # an invalid model must raise InvalidModel
        if family == "ohmic" or (family == "xohmic" and member == 0):
            return rep.K == 0.0
        if family == "xohmic" or (family == "xdrude" and member >= 4):
            return isinstance(rep.K, DivergenceClass) and str(rep.K) == "LogDivergent(-)"
        if not isinstance(rep.K, float):
            return False
        if family == "exp" or (family == "xdrude" and member == 1):
            if not isinstance(rep.E_s0, float) or not isinstance(rep.F0, float):
                return False
            return _worst(margins, "thermo.special_k_margin",
                          abs(rep.K - (rep.F0 - rep.E_s0)))
        if family == "drude" or (family == "xdrude" and member == 0):
            return _worst(margins, "thermo.drude_k_margin",
                          abs(rep.K - self._reference(*inp)))
        return _worst(margins, "thermo.xdrude2_k_margin",
                      abs(rep.K - self._reference(*inp)))


# ---------------------------------------------------------------------------
# discrete baths: the invariant suite of the check command


def bath_margins(bath: discrete.DiscreteBath, margins: dict, hbar: float = 1.0) -> None:
    """How close each invariant of ``invariant_violations`` comes to its bound."""
    try:
        modes = discrete.normal_modes(bath)
        wb = np.array(modes.frequencies)
        sum_lhs = math.fsum(wb ** 2)
        sum_rhs = (math.fsum(bath.bath_frequencies ** 2) + bath.omega_0 ** 2
                   + discrete.gamma_zero(bath))
        _worst(margins, "discrete.sum_rule_margin",
               abs(sum_lhs - sum_rhs) / abs(sum_rhs))
        f0 = discrete.free_energy_0(bath, modes, hbar)
        es = discrete.system_energy_0(bath, modes, hbar)
        rep = discrete.k_second_law(bath, modes, hbar)
        _worst(margins, "discrete.k_fe_margin",
               abs(rep.K - (f0 - es)) / max(abs(rep.K), 1e-300))
        _worst(margins, "discrete.residue_margin",
               abs(rep.residue_total - rep.K)
               / max(abs(rep.K), 1e-12 * hbar * bath.omega_0))
        oracle = discrete.exact_ground_state_oracle(bath, hbar)
        _worst(margins, "discrete.oracle_es_margin", abs(oracle.E_s - es) / es)
        _worst(margins, "discrete.oracle_mode_margin", max(
            abs(a - b) / b for a, b in zip(oracle.mode_frequencies, wb)))
    except (ValueError, ArithmeticError):
        pass  # counted as a typed outcome of the item itself


class Baths(Workload):
    """One item is ``invariant_violations`` on one bath of the cycle."""

    def call(self, bath):
        return discrete.invariant_violations(bath)

    def check(self, bath, violations, margins) -> bool:
        return not violations

    def first_cycle_margins(self, margins: dict) -> None:
        for bath in self.first:
            bath_margins(bath, margins)


# Bath frequencies and omega_0 lie in this band. Over the wide band of
# random_bath, a mode can come within 1e-9 of a bath pole and the residue
# sum loses its accuracy (defect 1), and the products of d_chi leave the
# float range for N of about 150 and more (defect 2). In this band the worst
# residue margin stays near 1e-13, and d_chi stays in the float range up to
# N = 128; from N = 192 its product overflows at the top of the last
# bracket for some draws, and from N of about 320 the sum rule breaks.
BAND = (0.5, 2.0)


def band_bath(rng: np.random.Generator, n: int, u: np.ndarray) -> discrete.DiscreteBath:
    """Seeded bath of ``n`` oscillators on a jittered frequency grid.

    Frequency j lies in the middle 80% of cell j of an even grid on BAND, so
    the frequencies increase strictly by construction (the rejection loop of
    ``random_bath`` almost never succeeds for n of 40 and more). Masses,
    couplings and gamma(0) are drawn as in ``random_bath``, except that ``u``
    in [0, 1)^3 places omega_0 (log-uniform on BAND), M and gamma(0) in their
    ranges.
    """
    lo, hi = BAND
    h = (hi - lo) / n
    freqs = lo + h * (np.arange(n) + 0.1 + 0.8 * rng.uniform(size=n))
    omega_0 = float(lo * (hi / lo) ** u[0])
    masses = 10.0 ** rng.uniform(-0.5, 0.5, size=n)
    couplings = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    M = float(10.0 ** (u[1] - 0.5))
    raw = np.sum(couplings ** 2 / (masses * freqs ** 2)) / M
    target = (0.05 + 0.95 * u[2]) * 5.0 * omega_0 ** 2
    couplings *= math.sqrt(target / raw)
    return discrete.DiscreteBath(
        M, omega_0, tuple(zip(masses.tolist(), freqs.tolist(), couplings.tolist()))
    )


class SmallBaths(Baths):
    """200 fresh seeded baths of 1 to 12 oscillators per cycle, in BAND."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.first = self.next_cycle()

    def next_cycle(self) -> list:
        baths = []
        for _ in range(200):
            n = int(self.rng.integers(1, 13))
            baths.append(band_bath(self.rng, n, self.rng.uniform(size=3)))
        return baths


LARGE_N = (16, 32, 64, 96, 128)


class LargeBaths(Baths):
    """One fresh seeded bath of each size N per cycle.

    A run holds only a few baths of each size, and the time of one depends
    on omega_0, M and gamma(0). So these come from a shifted low-discrepancy
    sequence per size, as on ``models``, and every run covers their ranges
    evenly; the rest of each bath is drawn afresh.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.shifts = [self.rng.uniform(size=3) for _ in LARGE_N]
        self.cycles = 0
        self.first = self.next_cycle()

    def next_cycle(self) -> list:
        u = (np.array(self.shifts) + self.cycles * _ALPHA) % 1.0
        self.cycles += 1
        return [band_bath(self.rng, n, u[i]) for i, n in enumerate(LARGE_N)]

    def tag(self, bath) -> str:
        return f"n{bath.n}"


# ---------------------------------------------------------------------------
# the program's known defects, each run on its documented reproducer


def _fails(call) -> int:
    """1 when ``call`` raises or returns a nonempty list of violations."""
    try:
        return int(bool(call()))
    except Exception:
        return 1


def known_defects() -> dict:
    """Reproducers of the known defects that the workloads keep out of.

    These inputs are fixed, not seeded. Each figure is nonzero while its
    defect stands, and 0 once it is fixed.
    """
    rng = np.random.default_rng(0)
    check_baths = [discrete.random_bath(rng) for _ in range(200)]
    large = band_bath(np.random.default_rng(0), 512, np.full(3, 0.5))
    return {
        # defect 1: baths of `oscbath check --baths 200 --seed 0` that fail
        "known_defect.check_seed0_failed_baths": sum(
            _fails(lambda b=b: discrete.invariant_violations(b)) for b in check_baths),
        # defect 2: a bath of N = 512 in BAND fails the sum rule and the oracle
        "known_defect.n512_bath_failed": _fails(
            lambda: discrete.invariant_violations(large)),
        # defect 3: xohmic p = 4 raises ValueError
        "known_defect.xohmic_p4_failed": _fails(_xohmic_p4),
    }


def _xohmic_p4() -> list:
    thermo.thermo_report(ExtendedOhmic(1.0, 4), 1.0, 1.0, tol=TOL)
    return []


WORKLOADS = ("grids", "models", "small_baths", "large_baths")


def make(name: str, seed: int, out_dir: str) -> Workload:
    if name == "grids":
        return Grids(seed, out_dir)
    if name == "models":
        return Models(seed)
    if name == "small_baths":
        return SmallBaths(seed)
    if name == "large_baths":
        return LargeBaths(seed)
    raise ValueError(f"unknown workload {name!r}")
