"""Exponential integrals and the branch-unifying arctan ratio."""

import cmath
import math
import re
import subprocess
import sys
from pathlib import Path

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

    def test_octave_pieces_to_about_one_ulp(self):
        # Horner's rule on the well-conditioned power basis of each octave
        xs = log_grid(1.0, 64.0, 2001)[1:-1] + [y for y in PIECE_EDGES if 1.0 < y < 64.0]
        e1s, eis = specfun.exp_e1_ei(np.array(xs))
        for got, f in ((e1s, lambda x: mp.exp(x) * mp.e1(x)),
                       (eis, lambda x: mp.exp(-x) * mp.ei(x))):
            worst = max(abs(mp.mpf(float(v)) / f(x) - 1) for v, x in zip(got, xs))
            assert worst < 2.5e-16

    def test_ndarray_equals_scalar_calls(self):
        # a float is evaluated as a one-node array, and each node's value
        # does not depend on the other nodes: equal bit for bit
        xs = log_grid(1e-3, 700.0, 400) + PIECE_EDGES
        x = np.array(xs)
        e1s, eis = specfun.exp_e1_ei(x)
        assert np.array_equal(specfun.exp_e1(x), e1s)
        assert np.array_equal(specfun.exp_neg_ei(x), eis)
        assert e1s.tolist() == [specfun.exp_e1(v) for v in xs]
        assert eis.tolist() == [specfun.exp_neg_ei(v) for v in xs]
        with pytest.raises(ValueError):
            specfun.exp_e1_ei(np.array([1.0, 0.0]))

    def test_zero_d_array_is_a_float(self):
        for v in (1e-3, 0.5, 3.0, 700.0):
            got = specfun.exp_e1_ei(np.array(v))
            assert got == specfun.exp_e1_ei(v)
            assert all(type(g) is float for g in got)
        with pytest.raises(ValueError):
            specfun.exp_e1_ei(np.array(0.0))

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

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                specfun.exp_e1(bad)
            with pytest.raises(ValueError):
                specfun.exp_neg_ei(bad)
            with pytest.raises(ValueError):
                specfun.exp_e1_ei(np.array([1.0, bad]))

    def test_exp_neg_ei_relative_accuracy_at_the_zero_of_ei(self):
        # Ei vanishes at x0; its Taylor series about x0 keeps e^-x Ei(x)
        # accurate relative to its own small size, up to x0 itself
        x0 = 0.3725074107813666
        xs = [x0 * (1.0 + s * 10.0 ** -k) for k in range(3, 17) for s in (-1, 1)]
        for x in xs:
            ref = oracle_exp_neg_ei(x)
            assert abs(specfun.exp_neg_ei(x) / ref - 1.0) < 1e-13, f"x={x!r}"
        assert specfun.exp_neg_ei(np.array(xs)).tolist() == [specfun.exp_neg_ei(x) for x in xs]

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


def test_fit_script_prints_the_shipped_literals():
    # every literal scripts/fit_expint.py prints is in specfun.py as printed
    script = Path(__file__).resolve().parents[1] / "scripts" / "fit_expint.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True).stdout
    literals = re.split(r"\n(?=_)", out.strip())
    assert [b.split(" = ", 1)[0] for b in literals] == [
        "_E1_OCTAVES", "_EI_OCTAVES", "_EI_ZERO", "_EI_TAYLOR"]
    source = Path(specfun.__file__).read_text()
    for block in literals:
        assert block in source, block.splitlines()[0]


def arctan_ratio_complex(w0: float, gamma: float) -> complex:
    # reference evaluation of arctan_ratio through the complex plane
    w1 = cmath.sqrt(complex(w0 * w0 - 0.25 * gamma * gamma))
    if abs(w1) == 0.0:
        return complex(2.0 / gamma)
    return cmath.atan(2.0 * w1 / gamma) / w1


class TestArctanRatio:
    def test_matches_complex_reference(self):
        for w0, g in [(1.0, 0.5), (1.0, 1.9), (1.0, 2.1), (0.3, 2.0), (5.0, 1.0)]:
            ref = arctan_ratio_complex(w0, g)
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

    def test_relative_accuracy_over_damping_ratios(self):
        # against arccos(gamma/2w0)/w1, or arccosh(gamma/2w0)/wb1 when
        # overdamped, at 40 digits: gamma/w0 from 1e-8 to 1e9 and close to
        # the critical value 2
        ratios = [10.0 ** (k / 8) for k in range(-64, 73)]
        ratios += [2.0 * (1.0 + s * e) for s in (-1, 1) for e in (1e-3, 1e-7, 1e-10, 1e-13)]
        with mp.workdps(40):
            for w0 in (0.37, 1.0, 300.0):
                for r in ratios:
                    g = r * w0
                    x = mp.mpf(g) / (2 * mp.mpf(w0))
                    d = mp.mpf(w0) ** 2 - mp.mpf(g) ** 2 / 4
                    ref = mp.acos(x) / mp.sqrt(d) if d > 0 else mp.acosh(x) / mp.sqrt(-d)
                    v = specfun.arctan_ratio(w0, g)
                    assert v == pytest.approx(float(ref), rel=1e-14), (w0, g)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_positive_and_continuous(self, w0, g):
        v = specfun.arctan_ratio(w0, g)
        assert v > 0.0
        ref = arctan_ratio_complex(w0, max(g, 1e-12))
        assert v == pytest.approx(ref.real, rel=1e-9)
