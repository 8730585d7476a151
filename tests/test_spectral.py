"""The spectral-density oracle, frequency-domain boundary values, model parsing
and validity classification."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_part_kernel, g_plus_derivative, gamma_plus_generic, j_omega
from oscbath.spectral import (
    Drude,
    Exponential,
    ExtendedDrude,
    ExtendedOhmic,
    InvalidModel,
    Ohmic,
    StatusTag,
    UnsupportedKernel,
    _tail_signs,
    boundary_kernel,
    classify_model,
    g_plus,
    gamma_plus,
    gamma_plus_derivative,
    imaginary_axis_kernel,
    parse_model,
)


class TestSpectralDensity:
    def test_drude_substitution(self):
        assert j_omega(Drude(1.0, 1.0), 1.0, 1.0) == pytest.approx(0.5)

    def test_exponential_substitution(self):
        assert j_omega(Exponential(1.0, 1.0), 1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_extended_drude_n1_saturates(self):
        m = ExtendedDrude(gamma_o=1.0, omega_d=2.0, n=1)
        assert j_omega(m, 1.0, 1e6) == pytest.approx(1.0 * 2.0, rel=1e-10)

    def test_ohmic_linear(self):
        assert j_omega(Ohmic(0.7), 2.0, 3.0) == pytest.approx(2.0 * 0.7 * 3.0)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidModel):
            j_omega(ExtendedOhmic(1.0, 1), 1.0, 1.0)

    def test_nonnegative_grid(self):
        models = [Ohmic(1.0), Drude(1.0, 2.0), Exponential(1.0, 2.0),
                  ExtendedDrude(1.0, 2.0, 1), ExtendedDrude(1.0, 2.0, 2)]
        for m in models:
            for w in (0.01, 0.1, 1.0, 10.0, 100.0):
                assert j_omega(m, 1.0, w) >= 0.0


class TestGammaPlus:
    def test_drude_at_cutoff(self):
        v = gamma_plus(Drude(1.0, 1.0), 1.0, 1.0)
        assert v == pytest.approx(complex(0.5, 0.5), rel=1e-14)

    def test_exponential_dissipative_part(self):
        for w in (0.3, 1.0, 4.0):
            v = gamma_plus(Exponential(1.2, 2.0), 1.0, w)
            assert v.real == pytest.approx(1.2 * math.exp(-w / 2.0), rel=1e-13)

    def test_extended_drude1_reactive_part(self):
        g, wd, w = 1.0, 2.0, 3.0
        v = gamma_plus(ExtendedDrude(g, wd, 1), 1.0, w)
        base = g * wd * w / (w * w + wd * wd)
        assert v.imag == pytest.approx((2.0 / math.pi) * base * math.log(w / wd), rel=1e-13)

    def test_real_part_is_j_over_m_omega(self):
        models = [Ohmic(0.8), Drude(1.0, 2.0), Exponential(1.0, 2.0),
                  ExtendedDrude(1.0, 2.0, 1), ExtendedDrude(1.0, 2.0, 2)]
        for m in models:
            for w in (0.1, 1.0, 10.0):
                v = gamma_plus(m, 1.5, w)
                assert v.real == pytest.approx(
                    j_omega(m, 1.5, w) / (1.5 * w), rel=1e-12
                )

    def test_positive_dissipation(self):
        models = [Ohmic(1.0), Drude(1.0, 2.0), Exponential(1.0, 2.0),
                  ExtendedDrude(1.0, 2.0, 1), ExtendedDrude(1.0, 2.0, 2)]
        for m in models:
            for w in (0.01, 0.5, 5.0, 50.0):
                assert gamma_plus(m, 1.0, w).real > 0.0

    def test_low_frequency_ohmic_limit(self):
        for m in (Drude(1.3, 2.0), Exponential(1.3, 2.0)):
            assert gamma_plus(m, 1.0, 1e-7).real == pytest.approx(1.3, rel=1e-6)

    def test_closed_vs_generic_pv(self):
        # reactive parts from the closed forms match the direct PV transform
        for m in (Drude(1.0, 2.0), Exponential(1.0, 2.0)):
            for w in (0.1, 0.7, 2.0, 9.0):
                closed = gamma_plus(m, 1.0, w)
                generic = gamma_plus_generic(m, 1.0, w, tol=1e-10)
                assert closed.imag == pytest.approx(generic.imag, abs=1e-7), (m, w)
                assert closed.real == pytest.approx(generic.real, rel=1e-14)

    def test_n0_equals_drude(self):
        d = Drude(1.1, 2.2)
        x = ExtendedDrude(1.1, 2.2, 0)
        for w in (0.2, 1.0, 7.0):
            assert gamma_plus(d, 1.0, w) == gamma_plus(x, 1.0, w)
            assert j_omega(d, 1.0, w) == pytest.approx(j_omega(x, 1.0, w), rel=1e-14)

    def test_derivative_matches_finite_difference(self):
        models = [Drude(1.0, 2.0), Exponential(1.0, 2.0),
                  ExtendedDrude(1.0, 2.0, 1), ExtendedDrude(1.0, 2.0, 2)]
        h = 1e-6
        for m in models:
            for w in (0.5, 1.5, 6.0):
                num = (gamma_plus(m, 1.0, w + h) - gamma_plus(m, 1.0, w - h)) / (2 * h)
                ana = gamma_plus_derivative(m, 1.0, w)
                assert ana.real == pytest.approx(num.real, abs=1e-6)
                assert ana.imag == pytest.approx(num.imag, abs=1e-6)


KERNEL_MODELS = [Ohmic(1.3), Drude(1.3, 4.0), Exponential(1.3, 4.0),
                 *(ExtendedDrude(1.3, 4.0, n) for n in (1, 2))]
# the delta(0)-carrying members: their finite parts are test oracles
FINITE_PART_MODELS = [ExtendedOhmic(1.3, 2), *(ExtendedDrude(1.3, 4.0, n) for n in (4, 6))]


class TestBoundaryKernel:
    @pytest.mark.parametrize("model", KERNEL_MODELS + FINITE_PART_MODELS, ids=repr)
    def test_shapes_and_types(self, model):
        # an ndarray gives two complex ndarrays of its shape, also where the
        # derivative is identically 0; a float gives two complex scalars
        kernel = (finite_part_kernel if model in FINITE_PART_MODELS else boundary_kernel)(model)
        w = np.array([1e-3, 0.7, 7.5, 1e4])
        for value in kernel(w):
            assert isinstance(value, np.ndarray)
            assert value.shape == w.shape and value.dtype == np.complex128
        for value in kernel(0.7):
            assert isinstance(value, complex)

    def test_exact_values(self):
        # the members of the partial-fraction rule against their textbook forms
        g, wd = 1.3, 4.0
        w = np.array([1e-6, 1e-3, 0.7, 4.0, 7.5, 1e4, 1e8])
        c = wd - 1j * w
        d = g * wd / c
        cases = [
            (boundary_kernel(Ohmic(g)), np.full(w.shape, g + 0j), np.zeros(w.shape, complex)),
            (finite_part_kernel(ExtendedOhmic(g, 2)), g * (w / g) ** 2 + 0j, 2.0 * (w / g) + 0j),
            (boundary_kernel(Drude(g, wd)), d, 1j * d / c),
            (boundary_kernel(ExtendedDrude(g, wd, 2)), g - d, -1j * d / c),
        ]
        for kernel, gp, dgp in cases:
            got_gp, got_dgp = kernel(w)
            np.testing.assert_array_equal(got_gp, gp)
            np.testing.assert_array_equal(got_dgp, dgp)

    def test_finite_part_of_divergent_members(self):
        # the program builds no kernel for them
        for m in FINITE_PART_MODELS:
            with pytest.raises(UnsupportedKernel, match="delta"):
                boundary_kernel(m)
        # the oracle drops the delta(0) weight: the real part is still
        # J/(M w), and gamma_plus' is the derivative of gamma_plus (n >= 6
        # reuse the n = 4 finite part, whose real part is that of n = 4)
        h = 1e-6
        for m in (ExtendedOhmic(1.3, 2), ExtendedDrude(1.3, 2.0, 4)):
            kernel = finite_part_kernel(m)
            for w in (0.1, 0.5, 1.5, 6.0):
                gp, dgp = kernel(w)
                assert gp.real == pytest.approx(j_omega(m, 1.5, w) / (1.5 * w), rel=1e-12)
                num = (kernel(w + h)[0] - kernel(w - h)[0]) / (2 * h)
                assert dgp.real == pytest.approx(num.real, abs=1e-6)
                assert dgp.imag == pytest.approx(num.imag, abs=1e-6)

    def test_wrappers_reject_delta_weight(self):
        for m in (ExtendedOhmic(1.0, 2), ExtendedDrude(1.0, 2.0, 4)):
            for fn in (gamma_plus, gamma_plus_derivative):
                with pytest.raises(UnsupportedKernel):
                    fn(m, 1.0, 1.0)
            with pytest.raises(UnsupportedKernel):
                g_plus(m, 1.0, 1.0, 1.0)

    def test_errors(self):
        with pytest.raises(InvalidModel):
            boundary_kernel(ExtendedDrude(1.0, 1.0, 3))
        with pytest.raises(InvalidModel):
            gamma_plus(ExtendedOhmic(1.0, 1), 1.0, 1.0)
        with pytest.raises(UnsupportedKernel):
            boundary_kernel(ExtendedOhmic(1.0, 4))
        for w in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                gamma_plus(Drude(1.0, 1.0), 1.0, w)


class TestImaginaryAxisKernel:
    """gamma_hat(xi) = gamma_plus(i xi): each member's kernel on the imaginary
    axis continues its real-axis kernel, for xi from e^-20 to e^14 times the
    cutoff on the trapezoid rule's step in s = ln(xi/cutoff)."""

    S = np.arange(-160, 113) / 8.0
    EPS = np.finfo(float).eps

    def _both(self, model, cutoff, s=S):
        t = np.exp(s)
        hat = np.broadcast_to(imaginary_axis_kernel(model)(model.gamma_o, t, s), t.shape)
        return t, hat, boundary_kernel(model)(1j * (cutoff * t))[0]

    def test_drude_and_ohmic(self):
        t, hat, gp = self._both(Drude(1.7, 2.0), 2.0)
        np.testing.assert_array_equal(hat, 1.7 / (1.0 + t))
        assert np.all(np.abs(gp - hat) <= 4.0 * self.EPS * hat)
        t, hat, gp = self._both(Ohmic(1.7), 1.0)
        np.testing.assert_array_equal(gp, hat)

    def test_extended_drude_1(self):
        # the real-axis form divides 0/0 at t = 1, where the kernel takes its
        # limit gamma_o/pi
        model = ExtendedDrude(1.7, 2.0, 1)
        assert imaginary_axis_kernel(model)(1.7, np.ones(1), np.zeros(1)) == pytest.approx(
            [1.7 / math.pi], rel=1e-15)
        t, hat, gp = self._both(model, 2.0, self.S[self.S != 0.0])
        assert np.all(np.abs(gp - hat) <= 16.0 * self.EPS * hat)

    def test_extended_drude_2(self):
        # the real-axis form g - g omega_d/(omega_d + xi) cancels to about
        # eps g below the cutoff, where the kernel g t/(1 + t) keeps its digits
        t, hat, gp = self._both(ExtendedDrude(1.7, 2.0, 2), 2.0)
        np.testing.assert_array_equal(hat, 1.7 * (t / (1.0 + t)))
        assert np.all(np.abs(gp - hat) <= 2.0 * self.EPS * 1.7)

    def test_exponential_against_mpmath(self):
        # (2 gamma_o/pi)(Ci(t) sin t - si(t) cos t), si = Si - pi/2, at 30 digits
        g, t = 1.7, np.exp(self.S)
        hat = imaginary_axis_kernel(Exponential(g, 3.0))(g, t, self.S)
        with mp.workdps(30):
            ref = [2 * mp.mpf(g) / mp.pi * (mp.ci(z) * mp.sin(z) - (mp.si(z) - mp.pi / 2)
                                            * mp.cos(z)) for z in map(mp.mpf, t)]
            worst = max(abs(mp.mpf(float(h)) / r - 1) for h, r in zip(hat, ref))
        assert worst <= 4.0 * self.EPS

    def test_validity_as_the_boundary_kernel(self):
        with pytest.raises(InvalidModel):
            imaginary_axis_kernel(ExtendedDrude(1.0, 1.0, 3))
        for m in (ExtendedOhmic(1.0, 2), ExtendedOhmic(1.0, 4), ExtendedDrude(1.0, 2.0, 4)):
            with pytest.raises(UnsupportedKernel):
                imaginary_axis_kernel(m)


class TestGPlus:
    def test_ohmic_form(self):
        v = g_plus(Ohmic(1.5), 1.0, 2.0, 3.0)
        assert v == pytest.approx(complex(9.0 - 4.0, 1.5 * 3.0))

    def test_im_g_plus_is_j_over_m(self):
        models = [Ohmic(1.0), Drude(1.0, 2.0), Exponential(1.0, 2.0),
                  ExtendedDrude(1.0, 2.0, 1), ExtendedDrude(1.0, 2.0, 2)]
        for m in models:
            for w in (0.1, 1.0, 4.0):
                v = g_plus(m, 2.0, 1.0, w)
                assert v.imag == pytest.approx(j_omega(m, 2.0, w) / 2.0, rel=1e-12)
                assert v.imag >= 0.0

    def test_derivative_consistency(self):
        m = Drude(1.0, 2.0)
        h = 1e-6
        for w in (0.5, 1.5):
            num = (g_plus(m, 1.0, 1.0, w + h) - g_plus(m, 1.0, 1.0, w - h)) / (2 * h)
            ana = g_plus_derivative(m, 1.0, 1.0, w)
            assert abs(ana - num) < 1e-6

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dissipativity_property(self, g, wd, w):
        # Im of the susceptibility boundary value is nonnegative
        gp = g_plus(Drude(g, wd), 1.0, 1.0, w)
        assert gp.imag >= 0.0


class TestClassification:
    def test_table(self):
        cases = [
            (Ohmic(1.0), StatusTag.VALID),
            (Drude(1.0, 1.0), StatusTag.VALID),
            (Exponential(1.0, 1.0), StatusTag.VALID),
            (ExtendedOhmic(1.0, 0), StatusTag.VALID),
            (ExtendedOhmic(1.0, 1), StatusTag.INVALID_KERNEL),
            (ExtendedOhmic(1.0, 2), StatusTag.VALID_BUT_K_DIVERGENT),
            (ExtendedOhmic(1.0, 3), StatusTag.INVALID_KERNEL),
            (ExtendedDrude(1.0, 1.0, 0), StatusTag.VALID),
            (ExtendedDrude(1.0, 1.0, 1), StatusTag.VALID),
            (ExtendedDrude(1.0, 1.0, 2), StatusTag.VALID),
            (ExtendedDrude(1.0, 1.0, 3), StatusTag.INVALID_KERNEL),
            (ExtendedDrude(1.0, 1.0, 4), StatusTag.VALID_BUT_K_DIVERGENT),
            (ExtendedDrude(1.0, 1.0, 5), StatusTag.INVALID_KERNEL),
            (ExtendedDrude(1.0, 1.0, 6), StatusTag.VALID_BUT_K_DIVERGENT),
        ]
        for model, tag in cases:
            assert classify_model(model).tag is tag, model

    def test_divergent_sign(self):
        assert classify_model(ExtendedOhmic(1.0, 2)).sign == "-"
        assert classify_model(ExtendedDrude(1.0, 1.0, 4)).sign == "-"

    def test_tail_classes_of_every_member(self):
        # E_s(0), F(0), K by the large-omega law; tests/test_thermo.py checks
        # the rows against panel ratios of the integrands
        converge, linear, cubic = (None, None, None), ("+", "+", None), ("+", "-", "-")
        cases = [
            (Exponential(1.0, 1.0), converge),
            (Drude(1.0, 1.0), converge),
            (ExtendedDrude(1.0, 1.0, 1), converge),
            (Ohmic(1.0), ("+", "+", 0.0)),
            (ExtendedOhmic(1.0, 0), ("+", "+", 0.0)),
            (ExtendedDrude(1.0, 1.0, 2), linear),
            (ExtendedOhmic(1.0, 2), cubic),
            (ExtendedDrude(1.0, 1.0, 4), cubic),
            (ExtendedDrude(1.0, 1.0, 6), cubic),
            (ExtendedDrude(1.0, 1.0, 8), cubic),
        ]
        for model, row in cases:
            assert _tail_signs(model) == row, model
        for model in (ExtendedOhmic(1.0, 1), ExtendedDrude(1.0, 1.0, 3)):
            with pytest.raises(InvalidModel):
                _tail_signs(model)
        for p in (4, 6):
            with pytest.raises(UnsupportedKernel, match=f"p={p}"):
                _tail_signs(ExtendedOhmic(1.0, p))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Drude(-1.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(1.0, 0.0)
        with pytest.raises(ValueError):
            ExtendedDrude(1.0, 1.0, -1)


class TestParseModel:
    def test_round_trips(self):
        assert parse_model("ohmic g=1.5") == Ohmic(1.5)
        assert parse_model("drude g=1 wd=5") == Drude(1.0, 5.0)
        assert parse_model("exp g=2 we=3") == Exponential(2.0, 3.0)
        assert parse_model("xohmic g=1 p=2") == ExtendedOhmic(1.0, 2)
        assert parse_model("xdrude g=1 wd=2 n=1") == ExtendedDrude(1.0, 2.0, 1)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            parse_model("lorentz g=1")

    def test_unknown_key_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_model("drude g=1 zz=2")

    def test_bad_number_reports_position(self):
        with pytest.raises(ValueError, match="position 1"):
            parse_model("drude g=abc wd=1")

    def test_missing_parameters(self):
        with pytest.raises(ValueError, match="missing"):
            parse_model("drude g=1")

    def test_duplicate_key_reports_position(self):
        with pytest.raises(ValueError, match="duplicate parameter 'wd' at position 3"):
            parse_model("drude g=1 wd=5 wd=7")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_model("   ")
