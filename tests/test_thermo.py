"""Continuous-bath thermodynamics: parameter maps, closed forms, special
integrands, generic quadrature, and the cross-checks tying them together."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from oracles import (
    exponential_lambda_integrand,
    extended_drude1_lambda_integrand,
    finite_part_kernel,
    fused_integrand,
    g_plus_derivative,
    k_drude_closed_mp,
    k_exponential_integrand,
    k_exponential_real_axis,
    k_extended_drude1_integrand,
    k_extended_drude1_real_axis,
)
from oscbath.quadrature import DivergenceClass, DivergenceTag, NonConvergence, classify_tail
from oscbath.spectral import (
    Drude,
    Exponential,
    ExtendedDrude,
    ExtendedOhmic,
    InvalidModel,
    Ohmic,
    _tail_signs,
    boundary_kernel,
    g_plus,
    parse_model,
)
from oscbath import specfun, thermo


class TestParameterMaps:
    def test_round_trip_drude(self):
        for args in [(1.0, 1.0, 1.0), (0.5, 5.0, 1.0), (10.0, 0.5, 1.0), (2.0, 7.0, 3.0)]:
            p = thermo.drude_params_from_physical(*args)
            back = thermo.drude_params_to_physical(p)
            for got, want in zip(back, args):
                assert got == pytest.approx(want, rel=1e-12)

    def test_round_trip_xdrude2(self):
        for args in [(1.0, 0.5, 1.0), (1.0, 2.0, 0.3), (3.0, 1.0, 2.0)]:
            p = thermo.drude_params_from_physical(*args, variant="xdrude2")
            back = thermo.drude_params_to_physical(p, variant="xdrude2")
            for got, want in zip(back, args):
                assert got == pytest.approx(want, rel=1e-11)

    def test_xdrude2_weak_gamma_keeps_its_digits(self):
        # gamma = 1e-14 next to Omega = 1e7: np.roots gave it 1.2e-6 off, and
        # K 1.6e-7 off the 60-digit closed form -0.159154910134202175619
        p = thermo.drude_params_from_physical(1.0, 1e7, 1.0, variant="xdrude2")
        assert p.gamma == pytest.approx(9.9999980000002e-15, rel=1e-15)
        k = thermo.k_extended_drude2_closed(p.w0, p.Omega, p.gamma)
        assert abs(k - -0.159154910134202175619) < 1e-10

    def test_decoupling_limit(self):
        p = thermo.drude_params_from_physical(1.0, 1.0, 1e-9)
        assert p.Omega == pytest.approx(1.0, abs=1e-8)
        assert p.gamma == pytest.approx(0.0, abs=1e-8)
        assert p.w0 == pytest.approx(1.0, abs=1e-8)

    def test_overdamped_detection(self):
        p = thermo.drude_params_from_physical(0.5, 5.0, 1.0)
        assert p.regime == "overdamped"
        assert p.w0 <= 0.5 * p.gamma
        q = thermo.drude_params_from_physical(1.0, 1.0, 1.0)
        assert q.regime == "underdamped"
        assert q.w0 > 0.5 * q.gamma

    def test_cubic_roots_reconstruct_coefficients(self):
        # (Omega, z1, z2) are the roots of the pole cubic: compare the
        # reconstructed symmetric functions against the coefficients
        w0_in, wd, go = 1.0, 2.0, 1.5
        p = thermo.drude_params_from_physical(w0_in, wd, go)
        s1 = p.Omega + p.gamma
        s2 = p.Omega * p.gamma + p.w0**2
        s3 = p.Omega * p.w0**2
        assert s1 == pytest.approx(wd, rel=1e-12)
        assert s2 == pytest.approx(w0_in**2 + go * wd, rel=1e-12)
        assert s3 == pytest.approx(w0_in**2 * wd, rel=1e-12)

    @pytest.mark.parametrize("args", [(1.0, 1e3, 1e-8), (1.0, 5.3e3, 3.7e-8), (1.0, 1e4, 1e-7)])
    def test_weak_coupling_against_50_digit_roots(self, args):
        # gamma is far below omega_d here: Vieta's forms from Omega keep its
        # relative accuracy, a root solver's pair does not
        p = thermo.drude_params_from_physical(*args)
        with mp.workdps(50):
            w0, wd, go = (mp.mpf(v) for v in args)
            roots = mp.polyroots([1, -wd, w0 ** 2 + go * wd, -w0 ** 2 * wd],
                                 maxsteps=200, extraprec=200)
            omega = max(roots, key=mp.re)
            z1, z2 = (r for r in roots if r is not omega)
            for got, want in ((p.Omega, mp.re(omega)), (p.w0 ** 2, mp.re(z1 * z2)),
                              (p.gamma, mp.re(z1 + z2))):
                assert abs(got / want - 1) < 1e-14, (args, got, want)

    def test_regime_matches_the_sign_of_the_discriminant(self):
        # the pair is real (overdamped) iff the pole cubic's discriminant,
        # in exact rational arithmetic, is not negative
        for w0 in np.geomspace(0.1, 10.0, 15).tolist():
            for wd in np.geomspace(0.1, 1e4, 15).tolist():
                for go in np.geomspace(1e-6, 100.0, 12).tolist():
                    b, c = -Fraction(wd), Fraction(w0) ** 2 + Fraction(go) * Fraction(wd)
                    d = -Fraction(w0) ** 2 * Fraction(wd)
                    disc = 18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3 - 27 * d * d
                    want = "overdamped" if disc >= 0 else "underdamped"
                    assert thermo.drude_params_from_physical(w0, wd, go).regime == want, (w0, wd, go)

    @pytest.mark.parametrize("gamma_o", [1e200, 1e300])
    def test_strong_coupling_root_far_below_omega_d(self, gamma_o):
        # Omega is about 1/gamma_o, some 660 to 1000 halvings below omega_d
        p = thermo.drude_params_from_physical(1.0, 1.0, gamma_o)
        assert p.Omega == pytest.approx(1.0 / (1.0 + gamma_o), rel=1e-14)
        assert p.Omega + p.gamma == pytest.approx(1.0, rel=1e-14)
        assert p.Omega * p.w0 ** 2 == pytest.approx(1.0, rel=1e-14)

    def test_xdrude2_physical_frequency(self):
        p = thermo.drude_params_from_physical(1.3, 0.7, 0.9, variant="xdrude2")
        assert math.sqrt(p.Omega * p.gamma + p.w0**2) == pytest.approx(1.3, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            thermo.drude_params_from_physical(0.0, 1.0, 1.0)


class TestDrudeConsistency:
    def test_closed_vs_quadrature_energies(self):
        model = Drude(1.0, 1.0)
        es_q = thermo.system_energy_0_cont(model, 1.0, 1.0, tol=1e-10)
        f_q = thermo.free_energy_0_cont(model, 1.0, 1.0, tol=1e-10)
        rep = thermo.thermo_report(model, 1.0, 1.0)
        assert rep.E_s0 == pytest.approx(es_q, abs=1e-7)
        assert rep.F0 == pytest.approx(f_q, abs=1e-7)

    def test_weak_coupling_closed_form_k(self):
        # K = F - E_s of two numbers near hbar omega_0/2: against the same
        # closed form at 50 digits, on weakly coupled draws (gamma_o in
        # [1e-8, 1e-3], omega_d in [0.1, 1e4]) and the worst draws of a
        # 300-draw scan
        rng = np.random.default_rng(11)
        points = [(10.0 ** rng.uniform(-8, -3), 10.0 ** rng.uniform(-1, 4)) for _ in range(60)]
        points += [(2.0157353613103365e-08, 2248.664093758725), (3.7e-8, 5.3e3),
                   (1.69e-8, 2770.0), (1e-8, 1e3), (1e-7, 1e3)]
        for gamma_o, omega_d in points:
            k = thermo.k_drude_closed(1.0, omega_d, gamma_o)
            ref = k_drude_closed_mp(1.0, omega_d, gamma_o)
            assert abs(k / ref - 1) < 1e-6, (gamma_o, omega_d)

    def test_triangle_on_table_grid(self):
        for w0 in goldens.TABLE2_GRID:
            for wd in goldens.TABLE2_GRID:
                kc = thermo.k_drude_closed(w0, wd, 1.0)
                kl = thermo.k_drude_lambda(w0, wd, 1.0)
                kq = thermo.k_cont(Drude(1.0, wd), 1.0, w0)
                assert abs(kc - kl) <= 1e-7, (w0, wd)
                assert abs(kc - kq) <= 1e-6, (w0, wd)

    def test_frozen_goldens(self):
        for (w0, wd), (kd_norm, _) in goldens.EXACT_TABLE2.items():
            norm = math.pi / (0.5 * w0)
            got = thermo.k_drude_closed(w0, wd, 1.0) * norm
            assert got == pytest.approx(kd_norm, abs=5e-8), (w0, wd)

    def test_positive_on_grid(self):
        for w0 in goldens.TABLE2_GRID:
            for wd in goldens.TABLE2_GRID:
                assert thermo.k_drude_closed(w0, wd, 1.0) > 0.0
                rep = thermo.thermo_report(Drude(1.0, wd), 1.0, w0)
                assert rep.F0 > rep.E_s0 > 0.5 * w0  # F > E_s > bare ground state

    def test_continuity_across_critical_damping(self):
        # one-sided physical parameters straddling w0 = gamma/2
        for eps in (1e-6, 1e-7):
            vals = []
            for s in (-1.0, 1.0):
                w0 = 1.0 + s * eps
                p = thermo.DrudeParams(w0, 3.0, 2.0, "x", 0.0)
                om0, od, go = thermo.drude_params_to_physical(p)
                vals.append(thermo.k_drude_closed(om0, od, go))
            assert abs(vals[0] - vals[1]) < 1e-5 * abs(vals[0])

    def test_hbar_scaling(self):
        assert thermo.k_drude_closed(1.0, 1.0, 1.0, hbar=3.0) == pytest.approx(
            3.0 * thermo.k_drude_closed(1.0, 1.0, 1.0), rel=1e-14
        )

    @given(
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_positive_and_lambda_consistent(self, w0, wd, go):
        kc = thermo.k_drude_closed(w0, wd, go)
        assert kc > 0.0
        assert thermo.k_drude_lambda(w0, wd, go) == pytest.approx(kc, abs=1e-7)

    @pytest.mark.parametrize("gamma_o, w0", [(1e200, 1e100), (1e300, 1e150)])
    def test_strong_coupling_stays_finite(self, gamma_o, w0):
        # w0 = sqrt(omega_0^2 omega_d / Omega) is about sqrt(gamma_o), so w0^4
        # overflows; the references are the same closed form in 400-digit
        # arithmetic: E_s(0) = w0/4 and F(0) = w0/2 to 15 digits
        rep = thermo.thermo_report(Drude(gamma_o, 1.0), 1.0, 1.0)
        assert rep.E_s0 == pytest.approx(0.25 * w0, rel=1e-13)
        assert rep.F0 == pytest.approx(0.5 * w0, rel=1e-13)
        assert rep.K == pytest.approx(0.25 * w0, rel=1e-13)

    def test_k_lost_in_rounding_is_an_error(self):
        # E_s(0) and F(0) are both 5e99, and K = F - E_s, of order gamma_o, is
        # far below their last digit: no sign of it is left to report
        with pytest.raises(ValueError, match="lost in the rounding"):
            thermo.k_drude_closed(1e100, 1e100, 1.0)

    def test_models_ranges_keep_the_closed_form(self):
        # gamma_o and omega_0 in [0.2, 5] and omega_d in [0.5, 50], the ranges
        # of the benchmark's draws: F(0)/K stays below 700, far from the switch
        ranges = (np.geomspace(0.2, 5.0, 5), np.geomspace(0.2, 5.0, 5), np.geomspace(0.5, 50.0, 5))
        for gamma_o in ranges[0]:
            for omega_0 in ranges[1]:
                for omega_d in ranges[2]:
                    rep = thermo.thermo_report(Drude(gamma_o, omega_d), 1.0, omega_0)
                    assert rep.method == "closed-form" and rep.error_estimate == 0.0
                    assert rep.K == thermo.k_drude_closed(omega_0, omega_d, gamma_o)
                    assert rep.F0 < 700.0 * rep.K

    # defect 11: F(0)/K near 3e13, 2.7e11 and 6e100; the first two closed
    # forms were 3.8e-3 and 8.0e-6 off, and the last K lost in the rounding
    @pytest.mark.parametrize("omega_0, omega_d, gamma_o, dps", [
        (124.0, 2.29e-2, 4.47e-8, 50), (800.0, 2e4, 1e-8, 50), (1e100, 1e100, 1.0, 150),
    ])
    def test_rule_takes_k_where_the_closed_form_cancels(self, omega_0, omega_d, gamma_o, dps):
        rep = thermo.thermo_report(Drude(gamma_o, omega_d), 1.0, omega_0)
        reference = float(k_drude_closed_mp(omega_0, omega_d, gamma_o, dps=dps))
        assert rep.method == "closed-form+imaginary-axis"
        assert abs(rep.K - reference) <= rep.error_estimate < 1e-13 * reference
        # E_s(0) and F(0) stay the closed forms
        assert (rep.E_s0, rep.F0) == thermo._drude_es_f(omega_0, omega_d, gamma_o, 1.0)


class TestExponential:
    def test_frozen_goldens(self):
        for i, we in enumerate(goldens.TABLE1_OMEGA_E):
            for j, g in enumerate(goldens.TABLE1_GAMMA):
                got = thermo.k_exponential(1.0, we, g) / 0.5
                assert got == pytest.approx(goldens.EXACT_TABLE1[i][j], abs=5e-8)

    def test_positive_and_below_limit(self):
        for we in goldens.TABLE1_OMEGA_E:
            for g in goldens.TABLE1_GAMMA:
                k = thermo.k_exponential(1.0, we, g)
                assert type(k) is float
                assert 0.0 < k < g / (2.0 * math.pi)

    def test_array_matches_scalar_calls(self):
        # one shared-panel integral over the Table 1 grid
        got = thermo.k_exponential(
            1.0, np.array(goldens.TABLE1_OMEGA_E)[:, None], goldens.TABLE1_GAMMA
        )
        assert got.shape == (len(goldens.TABLE1_OMEGA_E), len(goldens.TABLE1_GAMMA))
        for i, we in enumerate(goldens.TABLE1_OMEGA_E):
            for j, g in enumerate(goldens.TABLE1_GAMMA):
                assert abs(got[i, j] - thermo.k_exponential(1.0, we, g)) < 1e-9

    def test_matches_generic_quadrature(self):
        model = Exponential(1.0, 1.0)
        kq = thermo.k_cont(model, 1.0, 1.0, tol=1e-10)
        assert thermo.k_exponential(1.0, 1.0, 1.0) == pytest.approx(kq, abs=1e-7)

    def test_f_exceeds_es(self):
        model = Exponential(1.0, 2.0)
        es = thermo.system_energy_0_cont(model, 1.0, 1.0)
        f = thermo.free_energy_0_cont(model, 1.0, 1.0)
        assert f > es > 0.5

    def test_weak_coupling_linearity(self):
        ratio = thermo.k_exponential(1.0, 1.0, 2e-4) / thermo.k_exponential(1.0, 1.0, 1e-4)
        assert ratio == pytest.approx(2.0, abs=1e-3)

    def test_integrand_finite_at_large_argument(self):
        # the scaled exponential integrals keep the real-axis integrand
        # representable at lam = 500 where the unscaled E1/Ei would overflow
        f = exponential_lambda_integrand(1.0, np.ones((1, 1)), np.ones((1, 1)))
        val = f(np.array([500.0]))
        assert val.shape == (1, 1)
        assert np.isfinite(val).all()
        assert abs(val[0, 0]) < 1.0


class TestExtendedDrude1:
    def test_frozen_goldens(self):
        for (w0, wd), (_, kd1_norm) in goldens.EXACT_TABLE2.items():
            norm = math.pi / (0.5 * w0)
            got = thermo.k_extended_drude1(w0, wd, 1.0) * norm
            assert got == pytest.approx(kd1_norm, abs=5e-8), (w0, wd)

    def test_matches_generic_quadrature(self):
        for (w0, wd) in [(1.0, 1.0), (0.5, 5.0), (5.0, 0.5)]:
            model = ExtendedDrude(1.0, wd, 1)
            kq = thermo.k_cont(model, 1.0, w0, tol=1e-10)
            ks = thermo.k_extended_drude1(w0, wd, 1.0)
            assert ks == pytest.approx(kq, abs=1e-6), (w0, wd)

    def test_positive_on_grid(self):
        for w0 in goldens.TABLE2_GRID:
            for wd in goldens.TABLE2_GRID:
                assert thermo.k_extended_drude1(w0, wd, 1.0) > 0.0

    def test_array_matches_scalar_calls(self):
        # one shared-panel integral over the Table 2 grid
        grid = goldens.TABLE2_GRID
        got = thermo.k_extended_drude1(np.array(grid)[:, None], grid, 1.0)
        assert got.shape == (len(grid), len(grid))
        for i, w0 in enumerate(grid):
            for j, wd in enumerate(grid):
                k = thermo.k_extended_drude1(w0, wd, 1.0)
                assert type(k) is float
                assert abs(got[i, j] - k) < 1e-9


class TestImaginaryAxisRule:
    """The trapezoid rule in s = ln xi behind k_exponential and k_extended_drude1."""

    TABLE1 = (1.0, np.array(goldens.TABLE1_OMEGA_E)[:, None], np.array(goldens.TABLE1_GAMMA))
    TABLE2 = (np.array(goldens.TABLE2_GRID)[:, None], np.array(goldens.TABLE2_GRID), 1.0)

    @staticmethod
    def _wide_draws(count=100, seed=26):
        # (omega_0, cutoff, gamma_o) log-uniform over ranges far wider than
        # the tables': omega_0 in [1e-3, 1e3], cutoff in [1e-2, 1e6], gamma_o
        # in [1e-8, 1e4]
        rng = np.random.default_rng(seed)
        return [tuple(10.0 ** rng.uniform(lo, hi) for lo, hi in ((-3, 3), (-2, 6), (-8, 4)))
                for _ in range(count)]

    @staticmethod
    def _recording(monkeypatch, name):
        """Wrap ``thermo.<name>`` and return the list its results go to."""
        seen = []
        original = getattr(thermo, name)

        def recording(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(thermo, name, recording)
        return seen

    def test_k_integrand_nonnegative_at_every_node(self, monkeypatch):
        # both brackets of the integrand are >= 0 for every positive J: the
        # paper's cutoff claim K >= 0, node by node
        terms = self._recording(monkeypatch, "_k_terms")
        thermo.k_exponential(*self.TABLE1)
        thermo.k_extended_drude1(*self.TABLE2)
        draws = self._wide_draws()
        for omega_0, cutoff, gamma_o in draws:
            assert thermo.k_exponential(omega_0, cutoff, gamma_o) > 0.0
            assert thermo.k_extended_drude1(omega_0, cutoff, gamma_o) > 0.0
        assert len(terms) == 2 + 2 * len(draws)
        for k in terms:
            assert np.all((k >= 0.0) & np.isfinite(k))

    def test_agrees_with_the_real_axis_on_the_tables(self):
        exp = thermo.k_exponential(*self.TABLE1)
        assert np.abs(exp - k_exponential_real_axis(*self.TABLE1, tol=1e-13)).max() <= 1e-13
        xdrude1 = thermo.k_extended_drude1(*self.TABLE2)
        assert np.abs(xdrude1 - k_extended_drude1_real_axis(*self.TABLE2, tol=1e-13)).max() <= 1e-13

    def test_real_axis_oracles_keep_the_lambda_forms(self):
        # the oracles are the real-axis lambda forms the tables once ran
        assert k_exponential_real_axis(1.0, 5.0, 2.0) == pytest.approx(
            thermo.k_exponential(1.0, 5.0, 2.0), abs=1e-9)
        assert k_extended_drude1_real_axis(1.0, 5.0, 2.0) == pytest.approx(
            thermo.k_extended_drude1(1.0, 5.0, 2.0), abs=1e-9)

    # K at hbar = 1 to 20 digits from 30-digit quadratures of the same
    # integrand (scripts/k_references.py): the weak-coupling pins and the
    # narrow resonances of defect 10
    REFERENCES = [
        (thermo.k_exponential, (1.0, 1e4, 1e-8), "1.5901752730900923828e-9"),
        (thermo.k_extended_drude1, (1.0, 1e4, 1e-8), "1.3067662130661637327e-12"),
        (thermo.k_extended_drude1, (1.0, 1000.0, 1e-5), "9.4074605166737941948e-9"),
        (thermo.k_exponential, (1.0, 0.1, 1e-5), "1.3427367728697988164e-7"),
        (thermo.k_exponential, (2.138, 0.104, 3.86e-6), "2.7333698427120703603e-8"),
    ]

    @pytest.mark.parametrize("entry, args, reference", REFERENCES)
    def test_estimate_bounds_the_error(self, monkeypatch, entry, args, reference):
        results = self._recording(monkeypatch, "_imaginary_axis_k")
        k = entry(*args)
        (estimate,) = results[0].abs_error_estimate
        if entry is thermo.k_extended_drude1:
            estimate *= args[2] / (2.0 * math.pi)  # an estimate of K / (hbar gamma_o / 2 pi)
        with mp.workdps(30):
            error = abs(mp.mpf(k) - mp.mpf(reference))
        assert error <= estimate < 1e-13 * k

    def test_node_at_omega_d(self, monkeypatch):
        # xi = omega_d = 1 is a node: there gamma_hat is its limit gamma_o/pi,
        # and K is continuous in omega_d across it
        calls = []
        k_terms = thermo._k_terms

        def recording(xi, gamma_hat, omega_0):
            calls.append((xi, gamma_hat))
            return k_terms(xi, gamma_hat, omega_0)

        monkeypatch.setattr(thermo, "_k_terms", recording)
        k = thermo.k_extended_drude1(1.0, 1.0, 2.0)
        xi, gamma_hat = calls[0]
        at_one = np.broadcast_to(gamma_hat, xi.shape)[xi == 1.0]
        assert at_one == pytest.approx([2.0 / math.pi], rel=1e-15)
        for wd in (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)):
            assert thermo.k_extended_drude1(1.0, wd, 2.0) == pytest.approx(k, rel=1e-14)

    def test_blocks_of_nodes(self, monkeypatch):
        # the tables fit one block; in blocks of a few nodes each the sums
        # only change their order
        one = thermo.k_exponential(*self.TABLE1), thermo.k_extended_drude1(*self.TABLE2)
        monkeypatch.setattr(thermo, "_BLOCK", 100)
        blocked = thermo.k_exponential(*self.TABLE1), thermo.k_extended_drude1(*self.TABLE2)
        for a, b in zip(one, blocked):
            assert np.abs(b / a - 1.0).max() < 1e-14
        with pytest.raises(NonConvergence, match="error estimate"):
            thermo.k_extended_drude1(*self.TABLE2, tol=1e-17)

    def test_aux_f_once_per_node(self, monkeypatch):
        # every entry's nodes are its own omega_e times the shared t = e^(j h),
        # so f takes one value per node however many distinct omega_e
        sizes = []
        aux_f = specfun.aux_f

        def counting(z):
            sizes.append(z.size)
            return aux_f(z)

        monkeypatch.setattr(specfun, "aux_f", counting)
        results = self._recording(monkeypatch, "_imaginary_axis_k")
        thermo.k_exponential(*self.TABLE1)
        thermo.k_exponential(1.0, 5.0, 1.0)
        assert sizes == [r.evaluations for r in results]

    def test_tables_take_at_most_400_nodes(self, monkeypatch):
        results = self._recording(monkeypatch, "_imaginary_axis_k")
        thermo.k_exponential(*self.TABLE1)
        thermo.k_extended_drude1(*self.TABLE2)
        assert len(results) == 2
        assert all(r.evaluations <= 400 for r in results)

    @pytest.mark.parametrize("below, above", [(3.0, 14.0), (20.0, 3.0), (3.0, 3.0)])
    def test_narrow_window_raises(self, monkeypatch, below, above):
        # the end-term check is live: 3 e-folds leave end terms far above the
        # rounding term at either end
        monkeypatch.setattr(thermo, "_MARGIN_BELOW", below)
        monkeypatch.setattr(thermo, "_MARGIN_ABOVE", above)
        with pytest.raises(NonConvergence, match="end term"):
            thermo.k_exponential(*self.TABLE1)
        with pytest.raises(NonConvergence, match="end term"):
            thermo.k_extended_drude1(*self.TABLE2)

    # the log-uniform ranges of gamma_o, omega_0 and the cutoff of the
    # benchmark's models workload
    MODELS_RANGES = ((0.2, 5.0), (0.2, 5.0), (0.5, 50.0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_report_route_agrees_across_contours(self, monkeypatch, seed):
        # thermo_report integrates K on the real axis, the rule sums it on the
        # imaginary axis: on 40 draws of each family they agree within the sum
        # of the two estimates (the rule's in units of hbar gamma_o/2pi for n = 1)
        rng = np.random.default_rng(seed)
        results = self._recording(monkeypatch, "_imaginary_axis_k")
        for _ in range(40):
            g, w0, cutoff = (10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
                             for lo, hi in self.MODELS_RANGES)
            for model, entry, unit in ((Exponential(g, cutoff), thermo.k_exponential, 1.0),
                                       (ExtendedDrude(g, cutoff, 1), thermo.k_extended_drude1,
                                        g / (2.0 * math.pi))):
                k = entry(w0, cutoff, g)
                (estimate,) = results[-1].abs_error_estimate
                rep = thermo.thermo_report(model, 1.0, w0)
                assert rep.method == "generic-quadrature"
                assert abs(rep.K - k) <= rep.error_estimate + unit * estimate, (model, w0)

    def test_budget_and_tol_raise(self):
        with pytest.raises(NonConvergence, match="nodes > max_evals 100"):
            thermo.k_exponential(1.0, 1.0, 1.0, max_evals=100)
        with pytest.raises(NonConvergence, match="error estimate"):
            thermo.k_extended_drude1(1.0, 1.0, 1.0, tol=1e-17)

    def test_scales_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            thermo.k_exponential(1.0, 1e300, 1.0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                thermo.k_exponential(1.0, [5.0, bad], 1.0)
            with pytest.raises(ValueError, match="positive and finite"):
                thermo.k_extended_drude1(bad, 5.0, 1.0)


class TestRealArithmeticIntegrands:
    """The real-axis lambda integrands of the test oracles take Im(a/b) in
    real arithmetic; their complex quotients are the reference."""

    LAM = np.geomspace(1e-6, 1e15, 400)
    CUTOFFS = np.array([0.1, 5.0, 1e4])
    COUPLINGS = (1e-8, 1.0, 5.0)

    @staticmethod
    def _assert_close(got, ref):
        assert got.shape == ref.shape
        scale = np.maximum(np.abs(got), np.abs(ref))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_exponential_matches_the_complex_quotient(self):
        we, g = self.CUTOFFS[:, None], np.array(self.COUPLINGS)
        rows = [np.broadcast_to(p, (3, 3)).reshape(1, -1) for p in (we, g)]
        f = exponential_lambda_integrand(1.0, *rows, hbar=2.5)
        self._assert_close(f(self.LAM), k_exponential_integrand(1.0, *rows, self.LAM, hbar=2.5))

    @pytest.mark.parametrize("gamma_o", COUPLINGS)
    def test_extended_drude1_matches_the_complex_quotient(self, gamma_o):
        l0 = np.full((1, 3), 1.0 / gamma_o)
        ld = (self.CUTOFFS / gamma_o)[None, :]
        f = extended_drude1_lambda_integrand(l0, ld)
        self._assert_close(f(self.LAM), k_extended_drude1_integrand(l0, ld, self.LAM))

    MEMBERS = [Ohmic(1.0), Drude(1.0, 5.0), Exponential(1.0, 5.0),
               *(ExtendedDrude(1.0, 5.0, n) for n in (1, 2))]
    # the delta(0)-carrying members, on the finite parts of the test oracles
    FINITE_PART_MEMBERS = [ExtendedOhmic(1.0, 2), *(ExtendedDrude(1.0, 5.0, n) for n in (4, 6))]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", MEMBERS + FINITE_PART_MEMBERS, ids=repr)
    def test_fused_integrand_matches_the_complex_quotients(self, model):
        # E_s, F and K of the report's one integral, every family's kernel
        w = np.geomspace(1e-6, 1e12, 400)
        kernel = (finite_part_kernel if model in self.FINITE_PART_MEMBERS else boundary_kernel)(model)
        for omega_0 in (0.3, 1.0, 7.0):
            ref = fused_integrand(kernel, omega_0, w)
            got = thermo._integrand(kernel, omega_0, (0, 1, 2))(w)
            # relative accuracy down to the subnormals (exp's tail underflows)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + np.finfo(float).tiny)
            # a subset of the columns, in order
            for columns in ((0, 1), (2,), (0, 2)):
                part = thermo._integrand(kernel, omega_0, columns)(w)
                assert np.array_equal(part, got[:, list(columns)])

    def test_weak_coupling_pins(self):
        # 30-digit imaginary-axis integrals from scripts/k_references.py
        assert thermo.k_exponential(1.0, 1e4, 1e-8) == pytest.approx(1.59017527309009e-09, rel=1e-12)
        assert thermo.k_extended_drude1(1.0, 1e4, 1e-8) == pytest.approx(
            1.30676621306616e-12, rel=1e-12)


class TestExtendedDrude2:
    def test_zero_at_zero_coupling(self):
        assert thermo.k_extended_drude2_closed(1.0, 5.0, 0.0) == 0.0

    def test_matches_generic_quadrature(self):
        import random

        rnd = random.Random(11)
        checked_over = checked_under = 0
        for _ in range(20):
            w0 = rnd.uniform(0.3, 3.0)
            Om = rnd.uniform(0.5, 10.0)
            g = rnd.uniform(0.1, 3.0 * w0)
            om0 = math.sqrt(Om * g + w0 * w0)
            od = Om * w0 * w0 / (Om * g + w0 * w0)
            go = Om + g - od
            kq = thermo.k_cont(ExtendedDrude(go, od, 2), 1.0, om0, tol=1e-10)
            kc = thermo.k_extended_drude2_closed(w0, Om, g)
            assert kc == pytest.approx(kq, abs=1e-6), (w0, Om, g)
            if w0 > 0.5 * g:
                checked_under += 1
            else:
                checked_over += 1
        assert checked_under > 0 and checked_over > 0

    def test_removable_singularity(self):
        # the closed-form denominator vanishes on Omega gamma = Omega^2 + w0^2
        w0, Om = 1.0, 2.0
        g_star = (Om * Om + w0 * w0) / Om
        om0 = math.sqrt(Om * g_star + w0 * w0)
        od = Om * w0 * w0 / (Om * g_star + w0 * w0)
        go = Om + g_star - od
        kq = thermo.k_cont(ExtendedDrude(go, od, 2), 1.0, om0, tol=1e-11)
        assert thermo.k_extended_drude2_closed(w0, Om, g_star) == pytest.approx(
            kq, abs=1e-9
        )
        # smooth through the singular set
        near = thermo.k_extended_drude2_closed(w0, Om, g_star + 1e-9)
        assert near == pytest.approx(
            thermo.k_extended_drude2_closed(w0, Om, g_star), abs=1e-10
        )

    def test_relative_accuracy_near_removable_singularity(self):
        # both branches of the closed form against the same expression in
        # 50-digit arithmetic, at gamma = gamma_c (1 +- e) around the
        # singular set Omega gamma_c = Omega^2 + w0^2
        def closed_mp(w0, Om, g):
            w0, Om, g = mp.mpf(w0), mp.mpf(Om), mp.mpf(g)
            disc = w0 * w0 - g * g / 4
            if disc > 0:
                at = mp.atan2(mp.sqrt(disc), g / 2) / mp.sqrt(disc)
            else:
                at = mp.asinh(mp.sqrt(-disc) / w0) / mp.sqrt(-disc)
            C = (g * (w0 * w0 - Om * Om) * at
                 + (Om * Om + w0 * w0 - Om * g) * mp.log(Om * g + w0 * w0)
                 - 2 * (Om * Om + w0 * w0) * mp.log(w0) + 2 * Om * g * mp.log(Om))
            delta = Om * g - Om * Om - w0 * w0
            return Om * w0 * w0 / ((Om * g + w0 * w0) * delta) * C / (2 * mp.pi)

        with mp.workdps(50):
            for w0, Om in [(0.3, 1.0), (1.0, 2.0), (1.0, 0.5), (1.0, 10.0),
                           (2.0, 1.0), (1.0, 5.0)]:
                g_c = (Om * Om + w0 * w0) / Om
                for e in (1e-8, 1e-7, 1e-6, 1e-5, 2e-5, 5e-5, 1e-4, 1e-3):
                    for g in (g_c * (1.0 - e), g_c * (1.0 + e)):
                        got = thermo.k_extended_drude2_closed(w0, Om, g)
                        want = closed_mp(w0, Om, g)
                        assert abs((got - want) / want) < 1e-10, (w0, Om, g)

    def test_negative_over_figure_ranges(self):
        for ratio in (2.0, 5.0, 10.0):
            for i in range(59):
                x = (10 + 5 * i) / 100.0
                assert thermo.k_extended_drude2_closed(1.0, ratio, x) < 0.0

    def test_unnormalized_ordering(self):
        # at fixed x = gamma/w0 the deficit decreases with the cutoff ratio
        for i in range(59):
            x = (10 + 5 * i) / 100.0
            k2 = thermo.k_extended_drude2_closed(1.0, 2.0, x)
            k5 = thermo.k_extended_drude2_closed(1.0, 5.0, x)
            k10 = thermo.k_extended_drude2_closed(1.0, 10.0, x)
            assert k2 > k5 > k10

    def test_normalized_ordering_at_small_x(self):
        # the K/E_g curves keep the same order until they cross near x = 1.45
        for x in (0.1, 0.5, 1.0, 1.4):
            vals = []
            for ratio in (2.0, 5.0, 10.0):
                k = thermo.k_extended_drude2_closed(1.0, ratio, x)
                vals.append(k / (0.5 * math.sqrt(ratio * x + 1.0)))
            assert vals[0] > vals[1] > vals[2]

    def test_continuity_across_critical_damping(self):
        Om = 4.0
        for eps in (1e-6,):
            lo = thermo.k_extended_drude2_closed(1.0 - eps, Om, 2.0)
            hi = thermo.k_extended_drude2_closed(1.0 + eps, Om, 2.0)
            assert abs(lo - hi) < 1e-5 * abs(lo)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            thermo.k_extended_drude2_closed(-1.0, 1.0, 1.0)

    @staticmethod
    def _assert_equals_scalar_calls(w0, Om, g):
        got = thermo.k_extended_drude2_closed(w0, Om, g)
        cells = np.broadcast_arrays(w0, Om, g)
        want = np.array([thermo.k_extended_drude2_closed(*map(float, p)) for p in zip(
            *(c.ravel() for c in cells))]).reshape(cells[0].shape)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))  # within 1 ulp

    def test_array_matches_scalar_calls_on_the_figure(self):
        x = np.array([(10 + 5 * i) / 100.0 for i in range(59)])
        self._assert_equals_scalar_calls(1.0, np.array([2.0, 5.0, 10.0])[:, None], x)

    def test_array_matches_scalar_calls_across_the_singular_set(self):
        # both branches around Omega gamma = Omega^2 + w0^2, and gamma = 0
        for w0, Om in [(0.3, 1.0), (1.0, 2.0), (1.0, 0.5), (1.0, 10.0), (2.0, 1.0)]:
            g_c = (Om * Om + w0 * w0) / Om
            e = np.array([0.0, 1e-8, 1e-6, 1e-5, 2e-5, 5e-5, 1e-3])
            g = np.concatenate((g_c * (1.0 - e), g_c * (1.0 + e), [0.0]))
            self._assert_equals_scalar_calls(np.full_like(g, w0), Om, g)

    def test_array_raises_and_scalars_give_floats(self):
        for bad in ((-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0)):
            with pytest.raises(ValueError, match="w0, Omega must be positive"):
                thermo.k_extended_drude2_closed(*bad)
            with pytest.raises(ValueError, match="w0, Omega must be positive"):
                thermo.k_extended_drude2_closed(*(np.array([1.0, v]) for v in bad))
        assert type(thermo.k_extended_drude2_closed(1.0, 2.0, 1.0)) is float
        assert type(thermo.k_extended_drude2_closed(1.0, 2.0, 0.0)) is float


class TestOhmic:
    def test_k_exactly_zero(self):
        assert thermo.k_cont(Ohmic(1.0), 1.0, 1.0) == 0.0
        assert thermo.k_cont(ExtendedOhmic(2.0, 0), 1.0, 1.0) == 0.0

    def test_energies_log_divergent(self):
        es = thermo.system_energy_0_cont(Ohmic(1.0), 1.0, 1.0)
        f = thermo.free_energy_0_cont(Ohmic(1.0), 1.0, 1.0)
        for v in (es, f):
            assert isinstance(v, DivergenceClass)
            assert v.tag is DivergenceTag.LOG_DIVERGENT
            assert v.sign_of_tail == "+"

    def test_pointwise_integrand_identity(self):
        # the energy and free-energy integrands coincide pointwise, so their
        # difference (the deficit) vanishes without divergent subtraction
        model, w0 = Ohmic(1.3), 0.9
        for i in range(100):
            w = 0.05 * (i + 1)
            gp = g_plus(model, 1.0, w0, w)
            dgp = g_plus_derivative(model, 1.0, w0, w)
            es_term = (w0 * w0 + w * w) * gp.imag / abs(gp) ** 2
            f_term = w * (-(dgp / gp)).imag
            assert es_term == pytest.approx(f_term, abs=1e-12), w


class TestDivergentFamilies:
    def test_p2_negative_log(self):
        v = thermo.k_cont(ExtendedOhmic(1.0, 2), 1.0, 1.0)
        assert isinstance(v, DivergenceClass)
        assert v.tag is DivergenceTag.LOG_DIVERGENT
        assert v.sign_of_tail == "-"

    def test_n4_negative_log(self):
        v = thermo.k_cont(ExtendedDrude(1.0, 1.0, 4), 1.0, 1.0)
        assert isinstance(v, DivergenceClass)
        assert v.tag is DivergenceTag.LOG_DIVERGENT
        assert v.sign_of_tail == "-"

    def test_invalid_model_raises(self):
        with pytest.raises(InvalidModel):
            thermo.k_cont(ExtendedOhmic(1.0, 1), 1.0, 1.0)
        with pytest.raises(InvalidModel):
            thermo.thermo_report(ExtendedDrude(1.0, 1.0, 3), 1.0, 1.0)


class TestTailClasses:
    """The tail classes that ``spectral`` states for each member, against the
    panel ratios of ``classify_tail`` on the fused integrand over
    [1e3, 1e6] w*, where w* is past omega_0, the cutoff and the crossover
    beyond which the member's large-omega law holds."""

    # defect 14's ranges: gamma_o, the cutoff and omega_0, log-uniform
    RANGES = ((1e-8, 1e2), (0.1, 1e4), (0.1, 10.0))

    @classmethod
    def _draws(cls, count: int, seed: int = 4):
        rng = np.random.default_rng(seed)
        lo, hi = np.log10(cls.RANGES).T
        return (10.0 ** rng.uniform(lo, hi, (count, 3))).tolist()

    @staticmethod
    def _measured(kernel, omega_0: float, start: float, scale: float = 1.0) -> tuple:
        """The classes of the E_s, F and K columns over [1e3, 1e6] ``start``,
        as ``_tail_signs`` writes them (None for a convergent column). The
        integrand is divided by ``scale`` so that the panel integrals, and
        with them ``classify_tail``'s absolute tolerance, are of order 1."""
        f = thermo._integrand(kernel, omega_0, (0, 1, 2))
        classes = classify_tail(lambda w: f(w) / scale, (1e3 * start, 1e6 * start))
        return tuple(None if c.tag is DivergenceTag.CONVERGENT else
                     c.sign_of_tail if c.tag is DivergenceTag.LOG_DIVERGENT else str(c)
                     for c in classes)

    def test_delta_weight_members_on_the_finite_part(self):
        # G ~ i w^3 gamma_o/omega_d^2 beyond w* = omega_d^2/gamma_o (n >= 4;
        # the n = 4 finite part) or i w^3/gamma_o beyond gamma_o (p = 2); the
        # E_s tail is then w*/w, F's -w*/w and K's -2 w*/w
        draws = [*self._draws(300), (0.192, 3920.0, 1.78)]  # the defect-14 reproducer
        # the old window ended at 1e8: draws beyond it came out PowerDivergent
        assert sum(omega_d ** 2 / gamma_o >= 1e8 for gamma_o, omega_d, _ in draws) > 100
        for gamma_o, omega_d, omega_0 in draws:
            for model in (ExtendedOhmic(gamma_o, 2),
                          *(ExtendedDrude(gamma_o, omega_d, n) for n in (4, 6))):
                if isinstance(model, ExtendedOhmic):
                    star, cutoff = gamma_o, 0.0
                else:
                    star, cutoff = omega_d ** 2 / gamma_o, omega_d
                got = self._measured(finite_part_kernel(model), omega_0,
                                     max(star, cutoff, omega_0), star)
                assert got == _tail_signs(model) == ("+", "-", "-"), (model, omega_0)

    @pytest.mark.parametrize("member", ["ohmic", "exp", 0, 1, 2])
    def test_members_with_a_cutoff_or_a_linear_law(self, member):
        for gamma_o, cutoff, omega_0 in self._draws(300):
            model = (Ohmic(gamma_o) if member == "ohmic" else Exponential(gamma_o, cutoff)
                     if member == "exp" else ExtendedDrude(gamma_o, cutoff, member))
            kernel = boundary_kernel(model)
            got = self._measured(kernel, omega_0, max(omega_0, cutoff, gamma_o))
            want = _tail_signs(model)
            assert got == tuple(None if v == 0.0 else v for v in want), (model, omega_0)
        if member == "ohmic":
            # Ohmic's K = 0.0: its integrand vanishes pointwise
            w = np.geomspace(1e-3, 1e9, 50)
            assert not thermo._integrand(kernel, omega_0, (2,))(w).any()

    def test_no_report_classifies_numerically(self, monkeypatch):
        from oscbath import quadrature

        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(quadrature, "classify_tail", forbidden)
        monkeypatch.setattr(thermo, "classify_tail", forbidden)
        for model in (Exponential(1.0, 5.0), Drude(1.0, 5.0), Ohmic(1.0),
                      *(ExtendedDrude(1.0, 5.0, n) for n in (1, 2))):
            thermo.thermo_report(model, 1.0, 1.0)
            thermo.k_cont(model, 1.0, 1.0)
        # members with nothing to integrate build no kernel either
        monkeypatch.setattr(thermo, "boundary_kernel", forbidden)
        for model in (Ohmic(1.0), ExtendedOhmic(1.0, 2),
                      *(ExtendedDrude(1.0, 5.0, n) for n in (4, 6))):
            rep = thermo.thermo_report(model, 1.0, 1.0)
            assert rep.error_estimate == 0.0 and isinstance(rep.E_s0, DivergenceClass)


class TestDecoupledLimits:
    def test_drude_weak_coupling(self):
        rep = thermo.thermo_report(Drude(1e-7, 1.0), 1.0, 1.0)
        assert rep.E_s0 == pytest.approx(0.5, abs=1e-6)
        assert rep.F0 == pytest.approx(0.5, abs=1e-6)
        assert thermo.k_drude_closed(1.0, 1.0, 1e-7) == pytest.approx(0.0, abs=1e-7)


class TestLimitChecks:
    def test_structure_and_convergence(self):
        lc = thermo.limit_checks()
        resid = [d["residual"] for d in lc["drude"]]
        assert resid[0] > resid[1] > resid[2]
        # expansion consistent to 1% at the largest cutoff
        last = lc["drude"][-1]
        assert abs(last["K"] - last["expansion"]) < 0.01 * last["K"]
        ks = [e["K"] for e in lc["exponential"]]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert ks[-1] < lc["exponential_limit"]
        assert lc["exponential_limit"] == pytest.approx(1.0 / (2.0 * math.pi))



# each generic entry point and the report column it must reproduce
ENTRY_POINTS = ((thermo.system_energy_0_cont, "E_s0"),
                (thermo.free_energy_0_cont, "F0"),
                (thermo.k_cont, "K"))


class TestOneRule:
    """The generic entry points follow the rule of the report."""

    def test_divergent_members_give_the_report_classes(self):
        for model in (ExtendedOhmic(1.0, 2), ExtendedDrude(1.0, 1.0, 4),
                      ExtendedDrude(0.7, 3.0, 6)):
            rep = thermo.thermo_report(model, 1.0, 1.3)
            for entry, column in ENTRY_POINTS:
                value = entry(model, 1.0, 1.3)
                assert isinstance(value, DivergenceClass)
                assert value == getattr(rep, column), (model, column)

    def test_integrated_members_agree_with_the_report(self):
        # the (d,2) member's E_s and F keep the report's class
        for model in (Exponential(1.0, 5.0), Exponential(2.2, 40.0),
                      ExtendedDrude(1.0, 5.0, 1), ExtendedDrude(0.5, 2.0, 1),
                      ExtendedDrude(1.0, 5.0, 2), ExtendedDrude(3.0, 0.7, 2)):
            rep = thermo.thermo_report(model, 1.0, 1.3)
            for entry, column in ENTRY_POINTS:
                value, want = entry(model, 1.0, 1.3), getattr(rep, column)
                if isinstance(want, DivergenceClass):
                    assert value == want, (model, column)
                else:
                    assert abs(value - want) < 1e-9, (model, column)
            assert isinstance(rep.K, float)

    def test_entry_points_return_the_report_triple(self):
        # one E_s/F/K triple per model, so each entry point gives the
        # report's column exactly; the first three are narrow resonances at
        # weak coupling, where a K column integrated alone misses the peak
        # (1.0169e-9 for 3.5535e-9 on the first)
        for model in (ExtendedDrude(1e-5, 3162.0, 1), ExtendedDrude(1e-5, 1000.0, 1),
                      Exponential(1e-5, 0.1), Exponential(1.0, 5.0),
                      ExtendedDrude(1.0, 5.0, 1), ExtendedDrude(1.0, 5.0, 2), Ohmic(1.0)):
            rep = thermo.thermo_report(model, 1.0, 1.0)
            for entry, column in ENTRY_POINTS:
                assert entry(model, 1.0, 1.0) == getattr(rep, column), (model, column)

    def test_drude_closed_forms_equal_the_report(self):
        for g, wd, w0 in [(1.0, 5.0, 1.3), (0.3, 40.0, 0.7), (4.0, 0.5, 2.0)]:
            rep = thermo.thermo_report(Drude(g, wd), 1.0, w0, hbar=1.7)
            assert thermo.k_drude_closed(w0, wd, g, hbar=1.7) == rep.K

class TestThermoReport:
    def test_drude_closed_form_path(self):
        rep = thermo.thermo_report(Drude(1.0, 1.0), 1.0, 1.0)
        assert rep.method == "closed-form"
        assert rep.K == pytest.approx(rep.F0 - rep.E_s0, abs=1e-14)
        assert rep.K_normalized == pytest.approx(rep.K / 0.5, rel=1e-14)
        assert rep.model_status.tag.value == "Valid"

    def test_exponential_one_route(self):
        for g, we, w0 in [
            (1.0, 1.0, 1.0),
            # large hbar gamma_o omega_e^2 / (2 pi^2): tol must bound K itself
            (1.4004501755561856, 30.052089596973957, 3.7655161979314067),
            (3.9949919945373233, 48.454605926337926, 4.348149204372997),
        ]:
            rep = thermo.thermo_report(Exponential(g, we), 1.0, w0)
            assert rep.method == "generic-quadrature"
            assert rep.K == pytest.approx(thermo.k_exponential(w0, we, g), abs=1e-7), (g, we, w0)
            assert rep.K == pytest.approx(rep.F0 - rep.E_s0, abs=1e-7), (g, we, w0)

    def test_xdrude1_one_route(self):
        rep = thermo.thermo_report(ExtendedDrude(1.0, 1.0, 1), 1.0, 1.0)
        assert rep.method == "generic-quadrature"
        assert rep.K == pytest.approx(thermo.k_extended_drude1(1.0, 1.0, 1.0), abs=1e-7)
        assert rep.K == pytest.approx(rep.F0 - rep.E_s0, abs=1e-7)

    def test_one_integral_per_report(self, monkeypatch):
        calls = []
        integrate = thermo.integrate_semi_infinite

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(thermo, "integrate_semi_infinite", counting)
        for model in (Exponential(1.0, 5.0), ExtendedDrude(1.0, 5.0, 1)):
            calls.clear()
            thermo.thermo_report(model, 1.0, 1.0)
            assert len(calls) == 1, model

    def test_narrow_resonance_keeps_the_sign_of_k(self):
        # weak coupling puts a resonance of half-width ~5e-9 near omega_0;
        # the references are peak-resolved 50-digit integrals
        rep = thermo.thermo_report(ExtendedDrude(1e-5, 1000.0, 1), 1.0, 1.0)
        assert rep.K > 0.0
        assert abs(rep.K - 9.407460518e-9) < rep.error_estimate
        rep = thermo.thermo_report(Exponential(1e-5, 0.1), 1.0, 1.0)
        assert rep.K > 0.0
        assert rep.K == pytest.approx(1.3427e-7, rel=1e-4)

    @pytest.mark.parametrize("text, method", [
        ("drude g=1 wd=5", "closed-form"),
        ("exp g=1 we=5", "generic-quadrature"),
        ("xdrude g=1 wd=5 n=2", "generic-quadrature"),
        ("ohmic g=1", "divergence-classification"),
        ("xohmic g=1 p=0", "divergence-classification"),
    ])
    def test_method_names_what_ran(self, text, method):
        # Ohmic integrates nothing: its tail classes give all three values;
        # the n = 2 member integrates its K column
        assert thermo.thermo_report(parse_model(text), 1.0, 1.0).method == method

    def test_ohmic_report(self):
        rep = thermo.thermo_report(Ohmic(1.0), 1.0, 1.0)
        assert rep.K == 0.0
        assert isinstance(rep.E_s0, DivergenceClass)
        assert isinstance(rep.F0, DivergenceClass)

    def test_divergent_k_report(self):
        for model in (ExtendedOhmic(1.0, 2), ExtendedDrude(1.0, 1.0, 4),
                      ExtendedDrude(0.7, 3.0, 6)):
            rep = thermo.thermo_report(model, 1.0, 1.0)
            assert rep.method == "divergence-classification"
            assert [str(v) for v in (rep.E_s0, rep.F0, rep.K)] == [
                "LogDivergent(+)", "LogDivergent(-)", "LogDivergent(-)"], model
            assert rep.K_normalized is None

    def test_short_window_classifies_n4(self):
        # defect 14: the crossover omega_d^2/gamma_o = 8.0e7 sat inside the
        # old fixed window, whose panel ratios did not settle
        rep = thermo.thermo_report(ExtendedDrude(0.192, 3920.0, 4), 1.0, 1.78)
        assert str(rep.K) == "LogDivergent(-)"

    def test_cutoffs_beyond_the_old_window_report(self):
        # defect 14: omega_0 or a cutoff above 1e8/30 was rejected
        rep = thermo.thermo_report(Exponential(1.0, 4e6), 1.0, 1.0)
        assert abs(rep.K - thermo.k_exponential(1.0, 4e6, 1.0)) < 1e-9
        rep = thermo.thermo_report(ExtendedDrude(1.0, 1e7, 2), 1.0, 1.0)
        assert [str(rep.E_s0), str(rep.F0)] == ["LogDivergent(+)", "LogDivergent(+)"]
        # the 60-digit closed form
        assert abs(rep.K - -0.159154910134202) < 1e-9
        rep = thermo.thermo_report(Ohmic(1.0), 1.0, 4e6)
        assert [str(rep.E_s0), str(rep.F0)] == ["LogDivergent(+)", "LogDivergent(+)"]
        assert rep.K == 0.0

    def test_energy_below_half_a_quantum_is_an_error(self):
        # defect 15: the resonance's half-width is near 8.5e-27 and the
        # integral never sees it; E_s(0) came out as 3.11e-4, and K negative,
        # where E_s(0) >= hbar omega_0/2 = 2.25 for every positive J
        for entry in (thermo.thermo_report, thermo.k_cont):
            with pytest.raises(ArithmeticError, match=r"E_s\(0\) = 0.000311.* below hbar omega_0/2"):
                entry(Exponential(7.4, 0.074), 1.0, 4.5)

    def test_error_estimate_is_measured(self):
        # the summed error estimates of the integrals behind the numbers,
        # in energy units, not the requested tol
        tol = 1e-9
        for model in (Exponential(1.0, 5.0), ExtendedDrude(1.0, 5.0, 1)):
            rep = thermo.thermo_report(model, 1.0, 1.0, tol=tol)
            assert 0.0 < rep.error_estimate <= 3.0 * tol
            assert rep.error_estimate != tol
            loose = thermo.thermo_report(model, 1.0, 1.0, tol=1e-6)
            assert loose.error_estimate > rep.error_estimate
        assert thermo.thermo_report(Drude(1.0, 5.0), 1.0, 1.0).error_estimate == 0.0
        assert thermo.thermo_report(ExtendedOhmic(1.0, 2), 1.0, 1.0).error_estimate == 0.0

    def test_rejects_bad_mass_and_frequency(self):
        entry_points = (thermo.thermo_report, thermo.system_energy_0_cont,
                        thermo.free_energy_0_cont, thermo.k_cont)
        for model in (Drude(1.0, 5.0), Exponential(1.0, 5.0)):
            for M, w0 in [(1.0, -1.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
                          (0.0, 1.0), (-2.0, 1.0)]:
                for entry in entry_points:
                    with pytest.raises(ValueError, match="positive finite"):
                        entry(model, M, w0)


class TestResonanceSplits:
    """The report route's starting panels split at the located resonance."""

    @staticmethod
    def _count_gk15(monkeypatch):
        from oscbath import quadrature

        calls = []
        gk15 = quadrature._gk15

        def counting(*args, **kwargs):
            calls.append(1)
            return gk15(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_gk15", counting)
        return calls

    def test_located_width_is_the_half_maximum(self):
        # weak coupling: the E_s integrand is a Lorentzian of half-width
        # about Re gamma_plus / 2 around the root of Re G
        kernel = boundary_kernel(ExtendedDrude(1e-5, 1000.0, 1))
        w_r, width = thermo._resonance(kernel, 1.0)
        assert width == pytest.approx(5e-9, rel=1e-5)
        es = thermo._integrand(kernel, 1.0, (0,))
        peak = es(np.array([w_r, w_r - width, w_r + width]))[:, 0]
        assert peak[1:] / peak[0] == pytest.approx([0.5, 0.5], rel=1e-6)

    @pytest.mark.parametrize("model, omega_0, cutoff", [
        (Exponential(1.6044367042476708, 0.7898749401885063), 0.259, 0.7898749401885063),
        (ExtendedDrude(2.4693524615655176, 0.7600193880254466, 1), 0.715, 0.7600193880254466),
    ])
    def test_no_narrow_peak_is_not_split(self, model, omega_0, cutoff):
        # strongly coupled draws of the benchmark's ranges: omega_0, 2 omega_0,
        # the cutoff and four doublings of the largest of them
        kernel = boundary_kernel(model)
        assert thermo._resonance(kernel, omega_0) is None
        top = max(2.0 * omega_0, cutoff)
        assert thermo._split_points(kernel, omega_0, [cutoff]) == [
            omega_0, 2.0 * omega_0, cutoff, 2.0 * top, 4.0 * top, 8.0 * top, 16.0 * top]

    # GK15 calls per report, the classification call included, before the
    # resonance was split: 12, 6 and 9
    PINNED = [(ExtendedDrude(2.41, 12.97, 2), 0.221, 12),
              (Exponential(2.28, 36.8), 3.03, 6),
              (ExtendedDrude(0.344, 10.94, 1), 0.476, 9)]

    @staticmethod
    def _reference(model, omega_0) -> tuple[float, float]:
        """An independent K and its own tolerance."""
        if isinstance(model, Exponential):
            return thermo.k_exponential(omega_0, model.omega_e, model.gamma_o), 1e-9
        if model.n == 1:
            # tol bounds K / (hbar gamma_o / 2 pi)
            return (thermo.k_extended_drude1(omega_0, model.omega_d, model.gamma_o),
                    model.gamma_o / (2.0 * math.pi) * 1e-9)
        p = thermo.drude_params_from_physical(omega_0, model.omega_d, model.gamma_o,
                                              variant="xdrude2")
        return thermo.k_extended_drude2_closed(p.w0, p.Omega, p.gamma), 1e-10

    def test_fewer_gk15_calls(self, monkeypatch):
        calls = self._count_gk15(monkeypatch)
        counts = []
        for model, omega_0, before in self.PINNED:
            calls.clear()
            rep = thermo.thermo_report(model, 1.0, omega_0)
            counts.append(len(calls))
            assert len(calls) < before, model
            ref, ref_tol = self._reference(model, omega_0)
            assert abs(rep.K - ref) <= rep.error_estimate + ref_tol, model
        assert sum(counts) <= 0.7 * sum(before for _, _, before in self.PINNED)

    # weak coupling at omega_0 = 1: K before the resonance was split, or None
    # where that ended in NonConvergence at a machine-width panel
    HAZARD = {
        ("exp", 1e-5, 0.1): 1.3427369120012307e-07,
        ("exp", 1e-5, 1000.0): 1.5814622191556045e-06,
        ("exp", 1e-6, 0.1): None,
        ("exp", 1e-6, 1000.0): 1.5814622450495696e-07,
        ("exp", 1e-7, 0.1): None,
        ("exp", 1e-7, 1000.0): 1.5814556344351875e-08,
        ("xdrude1", 1e-5, 0.1): 2.470900307078126e-07,
        ("xdrude1", 1e-5, 1000.0): 9.40746051759074e-09,
        ("xdrude1", 1e-6, 0.1): 2.470901089608149e-08,
        ("xdrude1", 1e-6, 1000.0): 9.407453855266077e-10,
        ("xdrude1", 1e-7, 0.1): 2.4709011558961845e-09,
        ("xdrude1", 1e-7, 1000.0): 9.407453224396738e-11,
    }

    @pytest.mark.parametrize("key", sorted(HAZARD))
    def test_hazard_grid_keeps_every_earlier_report(self, key):
        family, gamma_o, cutoff = key
        model = (Exponential(gamma_o, cutoff) if family == "exp"
                 else ExtendedDrude(gamma_o, cutoff, 1))
        before = self.HAZARD[key]
        try:
            rep = thermo.thermo_report(model, 1.0, 1.0)
        except NonConvergence:
            assert before is None, key
            return
        assert rep.K > 0.0
        if before is not None:
            assert abs(rep.K - before) <= rep.error_estimate, key

    def test_narrow_peaks_complete(self, monkeypatch):
        # the half-width is 2.3e-10 at omega_r = 1 + 3.3e-7 for gamma_o = 1e-5:
        # unsplit it took 43 GK15 calls, and a split set that stops at 64
        # half-widths ends in NonConvergence at a machine-width panel. At
        # 1e-6 the unsplit route ended in NonConvergence too; the floor of
        # the innermost split keeps node rounding out of the starting
        # panels. K is linear in gamma_o at this coupling.
        calls = self._count_gk15(monkeypatch)
        rep = thermo.thermo_report(Exponential(1e-5, 0.1), 1.0, 1.0)
        assert len(calls) < 43
        assert abs(rep.K - 1.3427369120012307e-07) <= rep.error_estimate
        weaker = thermo.thermo_report(Exponential(1e-6, 0.1), 1.0, 1.0)
        assert abs(weaker.K - 0.1 * rep.K) <= weaker.error_estimate + 0.1 * rep.error_estimate

    @pytest.mark.parametrize("model, omega_0, before", [
        (Exponential(4.760515262343165e-08, 433.13560323714637), 1.890051004320084,
         7.4151599243175345e-09),
        (Exponential(1.0862181150805374e-07, 365.91345591757255), 2.1150634497562537,
         1.6827192393690677e-08),
    ])
    def test_re_g_is_not_rounded_at_the_peak(self, model, omega_0, before):
        # half-widths near 1e-8 at omega_r near 2: w^2 - w0^2 rounds w^2 to
        # an ulp, about 1e-8 of the peak's height at its shoulders, and the
        # summed error estimates level off near tol until the budget runs
        # out; (w - w0)(w + w0) does not round there
        rep = thermo.thermo_report(model, 1.0, omega_0)
        assert abs(rep.K - before) <= rep.error_estimate

    @pytest.mark.parametrize("model, omega_0", [
        (Exponential(3.861483417879344e-06, 0.10439295960092201), 2.138197068574206),
        (Exponential(0.0012442122075939112, 0.11944346257137797), 2.8730952821564655),
    ])
    def test_unresolvable_peak_is_not_dropped_silently(self, model, omega_0):
        # half-widths of a few ulps of omega_r: without the split the engine
        # never sees the peak and reports E_s(0) near 0 (1.5e-9 for the
        # first) where it is near hbar omega_0 / 2
        try:
            rep = thermo.thermo_report(model, 1.0, omega_0)
        except NonConvergence:
            return
        assert rep.E_s0 >= 0.5 * omega_0 - rep.error_estimate


class TestOpenDefects:
    """Known defects of public entry points, as strict xfails that pass
    once the defect is mended."""

    # defect 10, mended: on the real axis the map x = t/(1 - t) squeezed the
    # resonance into a few ulps of t, and the lambda forms returned K with
    # the wrong sign (-1.2297e-8, -3.666e-8 and -3.0e-9); the imaginary axis
    # has no narrow feature
    @pytest.mark.parametrize("entry, args, reference", [
        (thermo.k_extended_drude1, (1.0, 1000.0, 1e-5), 9.4075e-9),
        (thermo.k_exponential, (1.0, 0.1, 1e-5), 1.3427e-7),
        (thermo.k_exponential, (2.138, 0.104, 3.86e-6), 2.7334e-8),
    ])
    def test_lambda_forms_resolve_narrow_resonances(self, entry, args, reference):
        assert entry(*args) == pytest.approx(reference, rel=1e-4)

    # defect 11, mended: the closed form takes K as F(0) - E_s(0), both near
    # 400 here, and lost 8.0e-6 of K = 1.5e-9 with error_estimate 0; the
    # report now takes K from the imaginary-axis rule
    def test_drude_closed_form_keeps_k_at_weak_coupling(self):
        rep = thermo.thermo_report(Drude(1e-8, 2e4), 1.0, 800.0)
        reference = float(k_drude_closed_mp(800.0, 2e4, 1e-8))
        assert abs(rep.K - reference) <= 1e-9 * reference
