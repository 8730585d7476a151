"""Exact finite-bath thermodynamics: worked N=1 example with an inline
quadratic oracle, the seeded random property suite, large baths against the
eigen-decomposition oracle, the secular solver's sweeps, accuracy and
memory, K at weak coupling against a 50-digit eigensolve, and parser
contracts."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from oracles import k_discrete_mp
from oscbath.discrete import (
    BathParseError,
    DegenerateBath,
    DiscreteBath,
    d_chi,
    exact_ground_state_oracle,
    free_energy_0,
    gamma_zero,
    invariant_violations,
    k_second_law,
    normal_modes,
    parse_bath_file,
    random_bath,
    system_energy_0,
)

N1_BATH = DiscreteBath(1.0, 1.0, ((1.0, 2.0, 1.0),))


def n1_quadratic_oracle():
    """Independent arithmetic for the single-oscillator bath.

    The susceptibility denominator factors through lam = omega^2:
    lam^2 - (omega_0^2 + omega_1^2 + kappa/M) lam + omega_0^2 omega_1^2 with
    kappa = c^2/(m omega_1^2); everything else follows from the two roots.
    """
    w0sq, w1sq, kappa = 1.0, 4.0, 0.25
    b = w0sq + w1sq + kappa
    disc = math.sqrt(b * b - 4.0 * w0sq * w1sq)
    lam = ((b - disc) / 2.0, (b + disc) / 2.0)
    wbar = tuple(math.sqrt(x) for x in lam)
    f0 = 0.5 * (sum(wbar) - 2.0)
    weights = (
        (lam[0] - w1sq) / (lam[0] - lam[1]),
        (lam[1] - w1sq) / (lam[1] - lam[0]),
    )
    es = 0.25 * sum(w * (w0sq + l) / math.sqrt(l) for w, l in zip(weights, lam))
    return lam, wbar, f0, es


class TestWorkedExample:
    def test_gamma_zero(self):
        assert gamma_zero(N1_BATH) == pytest.approx(0.25)

    def test_gamma_zero_quadratic_scaling(self):
        doubled = DiscreteBath(1.0, 1.0, ((1.0, 2.0, 2.0),))
        assert gamma_zero(doubled) == pytest.approx(4.0 * gamma_zero(N1_BATH))

    def test_denominator_roots(self):
        lam, _, _, _ = n1_quadratic_oracle()
        assert lam[0] == pytest.approx(0.924816, abs=1e-6)
        assert lam[1] == pytest.approx(4.325184, abs=1e-6)
        for x in lam:
            assert d_chi(N1_BATH, math.sqrt(x)) == pytest.approx(0.0, abs=1e-12)

    def test_normal_modes(self):
        modes = normal_modes(N1_BATH)
        _, wbar, _, _ = n1_quadratic_oracle()
        assert modes.frequencies[0] == pytest.approx(0.9616733, abs=1e-6)
        assert modes.frequencies[1] == pytest.approx(2.0797077, abs=1e-6)
        for got, want in zip(modes.frequencies, wbar):
            assert got == pytest.approx(want, rel=1e-13)

    def test_free_energy(self):
        modes = normal_modes(N1_BATH)
        _, _, f0, _ = n1_quadratic_oracle()
        got = free_energy_0(N1_BATH, modes)
        assert got == pytest.approx(0.5206905, abs=1e-6)
        assert got == pytest.approx(f0, rel=1e-13)

    def test_system_energy(self):
        modes = normal_modes(N1_BATH)
        _, _, _, es = n1_quadratic_oracle()
        got = system_energy_0(N1_BATH, modes)
        assert got == pytest.approx(0.5137469, abs=1e-6)
        assert got == pytest.approx(es, rel=1e-13)
        assert got - 0.5 == pytest.approx(0.0137469, abs=1e-6)

    def test_second_law_deficit(self):
        modes = normal_modes(N1_BATH)
        rep = k_second_law(N1_BATH, modes)
        assert rep.K == pytest.approx(0.0069436, abs=1e-6)
        assert rep.per_mode_terms[0] == pytest.approx(0.0283, abs=1e-4)
        assert rep.per_mode_terms[1] == pytest.approx(0.9786, abs=1e-4)
        assert all(t >= 0.0 for t in rep.per_mode_terms)
        assert rep.per_bath_pole_terms[0] == pytest.approx(-1.0, abs=1e-4)
        assert rep.residue_total == pytest.approx(rep.K, rel=1e-8)

    def test_oracle_agreement(self):
        modes = normal_modes(N1_BATH)
        oracle = exact_ground_state_oracle(N1_BATH)
        assert oracle.E_s == pytest.approx(system_energy_0(N1_BATH, modes), rel=1e-10)
        assert oracle.mode_weights_q[0] == pytest.approx(0.9043678, abs=1e-6)
        assert oracle.mode_weights_q[1] == pytest.approx(0.0956320, abs=1e-6)
        assert oracle.E_total == pytest.approx(
            0.5 * math.fsum(modes.frequencies), rel=1e-12
        )
        # the single-bath oscillator holds an excess energy above hbar w_1/2
        assert oracle.E_bath_j[0] > 1.0

    def test_hbar_scaling(self):
        modes = normal_modes(N1_BATH)
        assert k_second_law(N1_BATH, modes, hbar=2.0).K == pytest.approx(
            2.0 * k_second_law(N1_BATH, modes).K, rel=1e-12
        )


class TestEdgeCases:
    def test_empty_bath(self):
        bath = DiscreteBath(1.0, 1.3, ())
        modes = normal_modes(bath)
        assert modes.frequencies == (1.3,)
        assert free_energy_0(bath, modes) == pytest.approx(0.65)
        assert system_energy_0(bath, modes) == pytest.approx(0.65)
        assert k_second_law(bath, modes).K == pytest.approx(0.0, abs=1e-15)

    def test_weak_coupling_limit(self):
        bath = DiscreteBath(1.0, 1.0, ((1.0, 2.0, 1e-6),))
        modes = normal_modes(bath)
        assert free_energy_0(bath, modes) == pytest.approx(0.5, abs=1e-9)
        assert k_second_law(bath, modes).K == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteBath(1.0, 1.0, ((1.0, 2.0, 0.0),))  # zero coupling
        with pytest.raises(ValueError):
            DiscreteBath(1.0, 1.0, ((1.0, 2.0, 1.0), (1.0, 2.0, 1.0)))  # duplicate
        with pytest.raises(ValueError):
            DiscreteBath(0.0, 1.0, ())
        # non-finite values, a finite coupling whose weight c^2/(m w^2)
        # overflows, and a finite weight whose gamma(0) = weight/M overflows
        inf, nan = math.inf, math.nan
        for M, w0, osc in [(inf, 1.0, (1.0, 2.0, 1.0)), (nan, 1.0, (1.0, 2.0, 1.0)),
                           (1.0, inf, (1.0, 2.0, 1.0)), (1.0, nan, (1.0, 2.0, 1.0)),
                           (1.0, 1.0, (inf, 2.0, 1.0)), (1.0, 1.0, (nan, 2.0, 1.0)),
                           (1.0, 1.0, (1.0, inf, 1.0)), (1.0, 1.0, (1.0, nan, 1.0)),
                           (1.0, 1.0, (1.0, 2.0, inf)), (1.0, 1.0, (1.0, 2.0, nan)),
                           (1.0, 1.0, (1e-300, 1e-5, 1e100)), (1e-300, 1.0, (1.0, 2.0, 1e10))]:
            with pytest.raises(ValueError):
                DiscreteBath(M, w0, (osc,))

    def test_d_chi_overflow_raises(self):
        bath = DiscreteBath(1.0, 1.0, tuple((1.0, float(w), 1.0) for w in range(100, 500)))
        with pytest.raises(ArithmeticError, match="float range"):
            d_chi(bath, 1e3)

    def test_mode_above_and_below(self):
        # omega_0 well inside the bath band: interlacing still isolates roots
        bath = DiscreteBath(1.0, 1.0, ((1.0, 0.5, 0.3), (1.0, 2.0, 0.4)))
        modes = normal_modes(bath)
        assert modes.frequencies[0] < 0.5 < modes.frequencies[1] < 2.0 < modes.frequencies[2]


class TestPropertySuite:
    def test_200_random_baths(self):
        rng = np.random.default_rng(20260823)
        failures = []
        for i in range(200):
            bath = random_bath(rng)
            assert 1 <= bath.n <= 12
            violations = invariant_violations(bath)
            if violations:
                failures.append((i, bath.n, violations))
        assert not failures, failures[:3]

    @pytest.mark.parametrize("seed", range(21))
    def test_seed_sweep(self, seed):
        """Seed 0 is the 200-bath stream of ``oscbath check``; 20 more seeds
        contribute 50 baths each."""
        rng = np.random.default_rng(seed)
        failures = []
        for i in range(200 if seed == 0 else 50):
            violations = invariant_violations(random_bath(rng))
            if violations:
                failures.append((i, violations))
        assert not failures, failures[:3]


def grid_bath(n: int, seed: int = 0) -> DiscreteBath:
    """n oscillators on a jittered grid over [0.5, 2], with gamma(0) = 2 omega_0^2."""
    rng = np.random.default_rng(seed)
    h = 1.5 / n
    freqs = 0.5 + h * (np.arange(n) + 0.1 + 0.8 * rng.uniform(size=n))
    masses = 10.0 ** rng.uniform(-0.5, 0.5, size=n)
    couplings = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    couplings *= math.sqrt(2.0 / np.sum(couplings ** 2 / (masses * freqs ** 2)))
    return DiscreteBath(
        1.0, 1.0, tuple(zip(masses.tolist(), freqs.tolist(), couplings.tolist()))
    )


class TestLargeBaths:
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_oracle_agreement(self, n):
        # the suite compares modes and E_s with the eigh oracle at rel 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert invariant_violations(grid_bath(n)) == []

    def test_mutated_mode_is_reported(self, monkeypatch):
        bath = grid_bath(256)
        modes = normal_modes(bath)
        wb = list(modes.frequencies)
        wb[100] *= 1.0 + 1e-6
        mutated = dataclasses.replace(modes, frequencies=tuple(wb))
        monkeypatch.setattr("oscbath.discrete.normal_modes", lambda _: mutated)
        violations = invariant_violations(bath)
        assert any("oracle mode-frequency mismatch" in v for v in violations)


def weak_bath(c: float) -> DiscreteBath:
    """M = omega_0 = 1 with oscillators (1, 2, c) and (1, 3, c): a weakly
    coupled bath whose modes lie within about c^2 of the bare frequencies."""
    return DiscreteBath(1.0, 1.0, ((1.0, 2.0, c), (1.0, 3.0, c)))


def mp_secular_roots(bath: DiscreteBath, dps: int = 50) -> tuple[list, list]:
    """Poles d and the root of s in each bracket, by bisection at ``dps`` digits."""
    with mp.workdps(dps):
        M = mp.mpf(bath.M)
        d = [mp.mpf(0)] + [mp.mpf(w) ** 2 for _, w, _ in bath.oscillators]
        z = [mp.mpf(bath.omega_0) ** 2] + [
            mp.mpf(c) ** 2 / (mp.mpf(m) * mp.mpf(w) ** 2 * M)
            for m, w, c in bath.oscillators
        ]
        ends = d + [d[-1] + mp.fsum(z)]
        roots = []
        for lo, hi in zip(ends[:-1], ends[1:]):
            for _ in range(4 * dps):
                mid = (lo + hi) / 2
                if 1 - mp.fsum(zi / (mid - di) for zi, di in zip(z, d)) < 0:
                    lo = mid  # s rises from -inf: the root lies above
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        return d, roots


@pytest.fixture(scope="module")
def solved_2048():
    """A band bath of N = 2048 solved under tracemalloc: (bath, modes,
    second-law report, peak traced bytes)."""
    bath = grid_bath(2048)
    tracemalloc.start()
    try:
        modes = normal_modes(bath)
        report = k_second_law(bath, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return bath, modes, report, peak


BAND_SIZES = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384,
              512, 768, 1024]


class TestSecularSolver:
    def test_sweeps_are_few(self):
        assert normal_modes(DiscreteBath(1.0, 1.3, ())).sweeps == 0
        sweeps = []
        for seed in range(21):  # the baths of TestPropertySuite.test_seed_sweep
            rng = np.random.default_rng(seed)
            for _ in range(200 if seed == 0 else 50):
                sweeps.append(normal_modes(random_bath(rng)).sweeps)
        sweeps += [normal_modes(grid_bath(n)).sweeps for n in BAND_SIZES]
        assert 2 <= min(sweeps) and max(sweeps) <= 16, (min(sweeps), max(sweeps))

    @pytest.mark.parametrize("c", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_weak_coupling_offsets_match_mpmath(self, c):
        bath = weak_bath(c)
        modes = normal_modes(bath)
        d, roots = mp_secular_roots(bath)
        for o, tau, root in zip(modes.origins, modes.offsets, roots):
            ref = root - d[o]
            assert abs((tau - ref) / ref) < 1e-13, (o, tau, float(ref))

    def test_row_blocks_do_not_change_the_modes(self, monkeypatch):
        bath = grid_bath(300, seed=3)
        whole = normal_modes(bath)
        report = k_second_law(bath, whole)
        monkeypatch.setattr("oscbath.discrete.BLOCK", 1 << 10)  # 3 rows per block
        assert normal_modes(bath) == whole
        assert k_second_law(bath, whole) == report

    def test_memory_at_2048_is_below_two_dense_arrays(self, solved_2048):
        # one (N+1)^2 float array is 33.6 MB at N = 2048
        peak = solved_2048[3]
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"

    def test_invariants_at_2048(self, solved_2048):
        # the bounds of invariant_violations, without its O(N^3) oracle
        bath, modes, report, _ = solved_2048
        wb = np.array(modes.frequencies)
        w = bath.bath_frequencies
        interleaved = np.empty(2 * bath.n + 1)
        interleaved[0::2] = wb
        interleaved[1::2] = w
        assert np.all(np.diff(interleaved) >= 0.0)
        assert wb[0] <= bath.omega_0 <= wb[-1]
        sum_rhs = math.fsum(w ** 2) + bath.omega_0 ** 2 + gamma_zero(bath)
        assert abs(math.fsum(wb ** 2) - sum_rhs) <= 1e-10 * sum_rhs
        prod_rhs = math.fsum(np.log(w ** 2)) + 2.0 * math.log(bath.omega_0)
        assert abs(math.fsum(np.log(wb ** 2)) - prod_rhs) <= 1e-10 * max(1.0, abs(prod_rhs))
        assert report.K >= 0.0 and min(report.per_mode_terms) >= 0.0
        assert abs(report.residue_total - report.K) <= 1e-8 * max(report.K, 1e-12)
        assert math.fsum(modes.weights) == pytest.approx(1.0, abs=1e-12)


class TestWeakCouplingK:
    """K against a 50-digit eigensolve of the potential matrix. K and the
    residue sum both subtract numbers near hbar omega/2, so at weak coupling
    they lose the digits that K has (defect 9)."""

    def test_oracle_agrees_at_moderate_coupling(self):
        for bath in (N1_BATH, weak_bath(1e-2)):
            report = k_second_law(bath, normal_modes(bath))
            assert report.K == pytest.approx(float(k_discrete_mp(bath)), rel=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "defect 9: K = F(0) - E_s(0) cancels at weak coupling; 2.8e-2 "
        "relative off at c = 1e-6"))
    def test_k_keeps_its_digits_at_weak_coupling(self):
        bath = weak_bath(1e-6)
        reference = k_discrete_mp(bath)
        K = k_second_law(bath, normal_modes(bath)).K
        assert abs(K - reference) <= 1e-12 * abs(reference)

    @pytest.mark.xfail(strict=True, reason=(
        "defect 9: the residue sum and K cancel differently at weak coupling, "
        "and invariant_violations flags 'residue sum != K' on correct baths"))
    def test_no_violations_on_weakly_coupled_baths(self):
        for c in (1e-3, 1e-4, 1e-6):
            assert invariant_violations(weak_bath(c)) == [], c


class TestParser:
    GOOD = """\
# comment line
M 1.0
omega0 1.0

1.0 2.0 1.0
0.5 3.0 -0.25
"""

    def test_good_file(self):
        bath = parse_bath_file(self.GOOD)
        assert bath.M == 1.0
        assert bath.omega_0 == 1.0
        assert bath.n == 2
        assert bath.oscillators[1] == (0.5, 3.0, -0.25)

    def test_bad_number_line(self):
        with pytest.raises(BathParseError, match="line 3"):
            parse_bath_file("M 1\nomega0 1\n1 two 1\n")

    def test_wrong_header(self):
        with pytest.raises(BathParseError, match="line 1"):
            parse_bath_file("mass 1\nomega0 1\n")

    def test_missing_header(self):
        with pytest.raises(BathParseError, match="missing"):
            parse_bath_file("# nothing here\n")

    def test_invalid_bath_rejected(self):
        with pytest.raises(BathParseError):
            parse_bath_file("M 1\nomega0 1\n1 2 0\n")

    def test_invalid_oscillator_keeps_its_line(self):
        text = "M 1\n# comment\nomega0 1\n1 2 1\n\n# comment\n1 3 1\n1 2.5 1\n"
        with pytest.raises(BathParseError, match="^line 8: oscillator 3: ") as info:
            parse_bath_file(text)
        assert info.value.line_no == 8

    def test_invalid_header_value_names_no_line(self):
        with pytest.raises(BathParseError, match="^M and omega_0 must be") as info:
            parse_bath_file("M -1\nomega0 1\n1 2 1\n")
        assert info.value.line_no is None
