"""Exponential integrals and the branch-unifying inverse-trig helpers."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbath import specfun

mp.mp.dps = 30


def oracle_exp_e1(x: float) -> float:
    return float(mp.exp(x) * mp.e1(x))


def oracle_exp_neg_ei(x: float) -> float:
    return float(mp.exp(-x) * mp.ei(x))


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    r = math.log(hi / lo)
    return [lo * math.exp(r * i / (n - 1)) for i in range(n)]


# the series, Chebyshev and asymptotic pieces meet at 1, 2, 4, ..., 64
PIECE_EDGES = [
    y for b in (2.0 ** k for k in range(7))
    for y in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))
]


class TestScaledExponentialIntegrals:
    def test_exp_e1_at_one(self):
        assert specfun.exp_e1(1.0) == pytest.approx(0.596347, abs=1e-6)

    def test_exp_neg_ei_at_one(self):
        assert specfun.exp_neg_ei(1.0) == pytest.approx(0.697175, abs=1e-6)

    def test_exp_e1_oracle_sweep(self):
        for x in log_grid(1e-3, 700.0, 160) + PIECE_EDGES:
            assert specfun.exp_e1(x) == pytest.approx(
                oracle_exp_e1(x), rel=1e-10
            ), f"x={x}"

    def test_exp_neg_ei_oracle_sweep(self):
        for x in log_grid(1e-3, 700.0, 160) + PIECE_EDGES:
            assert specfun.exp_neg_ei(x) == pytest.approx(
                oracle_exp_neg_ei(x), rel=1e-10
            ), f"x={x}"

    def test_ndarray_equals_scalar_calls(self):
        # one piece selection and one stacked recurrence per array, with the
        # scalar functions' operations in their order: equal bit for bit
        xs = log_grid(1e-3, 700.0, 400) + PIECE_EDGES
        x = np.array(xs)
        e1s, eis = specfun.exp_e1_ei(x)
        assert np.array_equal(specfun.exp_e1(x), e1s)
        assert np.array_equal(specfun.exp_neg_ei(x), eis)
        assert e1s.tolist() == [specfun.exp_e1(v) for v in xs]
        assert eis.tolist() == [specfun.exp_neg_ei(v) for v in xs]
        with pytest.raises(ValueError):
            specfun.exp_e1_ei(np.array([1.0, 0.0]))

    def test_large_x_asymptotics(self):
        x = 100.0
        assert specfun.exp_e1(x) == pytest.approx(1 / x - 1 / x**2, rel=0.02)
        assert specfun.exp_neg_ei(x) == pytest.approx(1 / x + 1 / x**2, rel=0.02)

    def test_difference_asymptote(self):
        # e^x E1 - e^-x Ei = -2/x^2 + O(1/x^3); drives the integrand tails
        for x in (50.0, 200.0, 500.0):
            diff = specfun.exp_e1(x) - specfun.exp_neg_ei(x)
            assert diff == pytest.approx(-2.0 / x**2, rel=0.1)

    def test_small_x_logarithmic(self):
        x = 1e-6
        assert specfun.exp_e1(x) == pytest.approx(
            -specfun.EULER_GAMMA - math.log(x), rel=1e-5
        )

    def test_unscaled_wrappers(self):
        assert specfun.e1(2.0) == pytest.approx(float(mp.e1(2)), rel=1e-12)
        assert specfun.ei(2.0) == pytest.approx(float(mp.ei(2)), rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                specfun.exp_e1(bad)
            with pytest.raises(ValueError):
                specfun.exp_neg_ei(bad)

    def test_finite_at_500(self):
        # scaled values stay representable far beyond the overflow point of
        # the unscaled integrals
        assert 0.0 < specfun.exp_e1(500.0) < 1.0
        assert 0.0 < specfun.exp_neg_ei(500.0) < 1.0

    @given(st.floats(min_value=1e-3, max_value=700.0))
    @settings(max_examples=60, deadline=None)
    def test_exp_e1_positive_and_below_inverse(self, x):
        v = specfun.exp_e1(x)
        assert 0.0 < v
        # e^x E1(x) < ln(1 + 1/x) for all x > 0
        assert v < math.log1p(1.0 / x) + 1e-15


class TestNegativeAxisContinuation:
    def test_above(self):
        v = specfun.e1_negative_continuation(1.0, "above")
        assert v.real == pytest.approx(-1.895117, abs=1e-6)
        assert v.imag == -math.pi

    def test_below_is_conjugate(self):
        a = specfun.e1_negative_continuation(1.0, "above")
        b = specfun.e1_negative_continuation(1.0, "below")
        assert b == a.conjugate()

    def test_side_rule(self):
        assert specfun.e1_negative_continuation(2.0, "above").imag == -math.pi

    def test_errors(self):
        with pytest.raises(ValueError):
            specfun.e1_negative_continuation(-1.0, "above")
        with pytest.raises(ValueError):
            specfun.e1_negative_continuation(1.0, "sideways")


class TestArccosContinuation:
    def test_real_branch(self):
        assert specfun.arccos_c(0.0) == complex(math.pi / 2, 0.0)
        assert specfun.arccos_c(1.0) == complex(0.0, 0.0)

    def test_beyond_one(self):
        v = specfun.arccos_c(2.0)
        assert v.real == 0.0
        assert v.imag == pytest.approx(-math.log(2.0 + math.sqrt(3.0)), rel=1e-12)
        assert v.imag == pytest.approx(-1.316958, abs=1e-6)

    def test_continuity_across_one(self):
        for eps in (1e-4, 1e-6, 1e-8):
            gap = abs(specfun.arccos_c(1.0 - eps) - specfun.arccos_c(1.0 + eps))
            assert gap < 3.0 * math.sqrt(2.0 * eps)

    def test_negative_axis(self):
        v = specfun.arccos_c(-2.0)
        assert v.real == math.pi
        assert v.imag == pytest.approx(math.acosh(2.0), rel=1e-12)


class TestArctanRatio:
    def test_matches_complex_reference(self):
        for w0, g in [(1.0, 0.5), (1.0, 1.9), (1.0, 2.1), (0.3, 2.0), (5.0, 1.0)]:
            ref = specfun._arctan_ratio_complex(w0, g)
            assert abs(ref.imag) < 1e-12
            assert specfun.arctan_ratio(w0, g) == pytest.approx(ref.real, rel=1e-12)

    def test_branch_identity(self):
        # (1/w1) arctan(2w1/g) continues to (1/2wb1) ln((g+2wb1)/(g-2wb1))
        w0 = 1.0
        for eps in (1e-3, 1e-5):
            under = specfun.arctan_ratio(w0, 2.0 * w0 * (1.0 - eps))
            over = specfun.arctan_ratio(w0, 2.0 * w0 * (1.0 + eps))
            mid = 2.0 / (2.0 * w0)
            assert under == pytest.approx(mid, rel=5.0 * eps)
            assert over == pytest.approx(mid, rel=5.0 * eps)

    def test_overdamped_log_form(self):
        w0, g = 1.0, 3.0
        wb1 = math.sqrt(0.25 * g * g - w0 * w0)
        expected = math.log((g + 2 * wb1) / (g - 2 * wb1)) / (2 * wb1)
        assert specfun.arctan_ratio(w0, g) == pytest.approx(expected, rel=1e-14)

    def test_gamma_zero(self):
        # arctan(inf)/w1 = pi/(2 w1)
        assert specfun.arctan_ratio(2.0, 0.0) == pytest.approx(
            math.pi / 4.0, rel=1e-14
        )

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_positive_and_continuous(self, w0, g):
        v = specfun.arctan_ratio(w0, g)
        assert v > 0.0
        ref = specfun._arctan_ratio_complex(w0, max(g, 1e-12))
        assert v == pytest.approx(ref.real, rel=1e-9)
