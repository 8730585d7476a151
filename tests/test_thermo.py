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
    fused_integrand,
    g_plus_derivative,
    k_drude_closed_mp,
    k_exponential_integrand,
    k_extended_drude1_integrand,
)
from oscbath.quadrature import DivergenceClass, DivergenceTag, NonConvergence
from oscbath.spectral import (
    Drude,
    Exponential,
    ExtendedDrude,
    ExtendedOhmic,
    InvalidModel,
    Ohmic,
    boundary_kernel,
    g_plus,
)
from oscbath import thermo


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


class _Captured(Exception):
    pass


def _integrand_of(monkeypatch, k, *args):
    """The integrand that ``k(*args)`` hands to integrate_semi_infinite."""
    seen = []

    def capture(f, **kwargs):
        seen.append(f)
        raise _Captured

    monkeypatch.setattr(thermo, "integrate_semi_infinite", capture)
    with pytest.raises(_Captured):
        k(*args)
    return seen[0]


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

    def test_integrand_finite_at_large_argument(self, monkeypatch):
        # the scaled exponential integrals keep the integrand representable
        # at lam = 500 where the unscaled E1/Ei would overflow
        f = _integrand_of(monkeypatch, thermo.k_exponential, 1.0, 1.0, 1.0)
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


class TestRealArithmeticIntegrands:
    """The lambda integrands take Im(a/b) in real arithmetic; the complex
    quotients of the test oracles are their reference."""

    LAM = np.geomspace(1e-6, 1e15, 400)
    CUTOFFS = np.array([0.1, 5.0, 1e4])
    COUPLINGS = (1e-8, 1.0, 5.0)

    @staticmethod
    def _assert_close(got, ref):
        assert got.shape == ref.shape
        scale = np.maximum(np.abs(got), np.abs(ref))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_exponential_matches_the_complex_quotient(self, monkeypatch):
        we, g = self.CUTOFFS[:, None], np.array(self.COUPLINGS)
        f = _integrand_of(monkeypatch, thermo.k_exponential, 1.0, we, g, 2.5)
        rows = [np.broadcast_to(p, (3, 3)).reshape(1, -1) for p in (we, g)]
        self._assert_close(f(self.LAM), k_exponential_integrand(1.0, *rows, self.LAM, hbar=2.5))

    @pytest.mark.parametrize("gamma_o", COUPLINGS)
    def test_extended_drude1_matches_the_complex_quotient(self, monkeypatch, gamma_o):
        f = _integrand_of(monkeypatch, thermo.k_extended_drude1, 1.0, self.CUTOFFS, gamma_o)
        l0 = np.full((1, 3), 1.0 / gamma_o)
        ld = (self.CUTOFFS / gamma_o)[None, :]
        self._assert_close(f(self.LAM), k_extended_drude1_integrand(l0, ld, self.LAM))

    MEMBERS = [Ohmic(1.0), ExtendedOhmic(1.0, 2), Drude(1.0, 5.0), Exponential(1.0, 5.0),
               *(ExtendedDrude(1.0, 5.0, n) for n in (1, 2, 4, 6))]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", MEMBERS, ids=repr)
    def test_fused_integrand_matches_the_complex_quotients(self, model):
        # E_s, F and K of the report's one integral, every family's kernel
        w = np.geomspace(1e-6, 1e12, 400)
        kernel = boundary_kernel(model)
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
        assert thermo.k_exponential(1.0, 1e4, 1e-8) == pytest.approx(1.590954764842e-09, rel=1e-12)
        # the last panel of the mapped half line reaches machine width first
        with pytest.raises(NonConvergence):
            thermo.k_extended_drude1(1.0, 1e4, 1e-8)


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
