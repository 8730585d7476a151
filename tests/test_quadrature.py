"""Adaptive quadrature, principal values, and tail classification."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SingularityMisdeclared, principal_value_integral
from oscbath.quadrature import (
    MAX_BATCH,
    TAIL_PANELS,
    DivergenceTag,
    Inconclusive,
    NonConvergence,
    classify_tail,
    integrate_interval,
    integrate_semi_infinite,
)

mp.mp.dps = 30


class TestSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_lorentzian(self):
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x), tol=1e-10)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_peaked_with_split_points(self):
        # narrow Lorentzian at x = 3; splits seed the refinement
        w = 1e-4
        f = lambda x: w / ((x - 3.0) ** 2 + w * w)
        res = integrate_semi_infinite(f, tol=1e-9, split_points=[3.0])
        expected = math.pi / 2.0 + math.atan(3.0 / w)
        assert res.value == pytest.approx(expected, abs=1e-8)

    def test_split_point_invariance(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        a = integrate_semi_infinite(f, tol=1e-11)
        b = integrate_semi_infinite(f, tol=1e-11, split_points=[0.5, 1.0, 2.0, 7.0])
        assert a.value == pytest.approx(b.value, abs=2e-11)
        assert a.value == pytest.approx(0.1, abs=1e-11)  # 1/(1+9)

    def test_error_estimate_bound(self):
        res = integrate_semi_infinite(lambda x: x * np.exp(-x), tol=1e-9)
        assert res.converged
        assert res.abs_error_estimate <= 1e-9
        assert abs(res.value - 1.0) <= 1e-9
        assert res.evaluations == 135  # a (n,) integrand keeps its panel sequence

    def test_shared_panels_per_entry_bound(self):
        fs = (
            lambda x: np.exp(-x),
            lambda x: x * np.exp(-x),
            lambda x: 1.0 / (1.0 + x * x),
        )
        rows = lambda x: np.stack([f(x) for f in fs], axis=1)
        tol = 1e-9
        res = integrate_semi_infinite(rows, tol=tol, split_points=[1.0])
        assert res.converged
        assert res.value.shape == (3,)
        assert np.all(res.abs_error_estimate <= tol)
        for f, value in zip(fs, res.value):
            alone = integrate_semi_infinite(f, tol=tol, split_points=[1.0])
            assert abs(value - alone.value) <= tol

    def test_vectorized_scalar_entries(self):
        # a (n,) integrand gives float results
        res = integrate_semi_infinite(lambda x: x * np.exp(-x), tol=1e-9)
        assert type(res.value) is float and type(res.abs_error_estimate) is float
        assert res.abs_error_estimate <= 1e-9
        assert abs(res.value - 1.0) <= 1e-9
        assert res.evaluations % 15 == 0

    def test_vectorized_calls_bounded(self):
        # once the first call shows 200 entries, a call takes at most
        # MAX_BATCH node-entries; each entry still meets tol
        a = np.linspace(0.5, 3.0, 200)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-np.outer(x, a)) * np.cos(np.outer(x, a))

        res = integrate_semi_infinite(f, tol=1e-12, split_points=[0.5, 1.0, 2.0, 4.0])
        assert max(sizes[1:]) * len(a) <= MAX_BATCH
        assert np.all(res.abs_error_estimate <= 1e-12)
        assert np.abs(res.value - 0.5 / a).max() <= 1e-12

    def test_nonconvergence_carries_partial(self):
        f = lambda x: np.sin(x * x) / (1.0 + x)
        rows = lambda x: np.stack([f(x), np.exp(-x)], axis=1)
        for integrand in (f, rows):
            with pytest.raises(NonConvergence) as exc:
                integrate_semi_infinite(integrand, tol=1e-14, max_evals=600)
            partial = exc.value.partial
            assert not partial.converged
            assert partial.evaluations <= 600

    def test_panel_at_machine_width_raises(self):
        # int_0^inf (1+x)^-1.05 dx = 20: the tail beyond x ~ 1e16 cannot be
        # resolved in t = x/(1+x), whose panels next to t = 1 reach machine
        # width; that must raise, not return 16.8 as converged
        cases = (
            lambda x: (1.0 + x) ** -1.05,
            lambda x: ((1.0 + x) ** -1.05)[:, None],
        )
        for f in cases:
            with pytest.raises(NonConvergence, match="machine width") as exc:
                integrate_semi_infinite(f)
            partial = exc.value.partial
            assert not partial.converged
            assert np.all(partial.value < 17.0)
            assert np.all(partial.abs_error_estimate > 1e-9)
            assert partial.evaluations < 100_000

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaled_exponential(self, a, b):
        res = integrate_semi_infinite(lambda x: a * np.exp(-b * x), tol=1e-10)
        assert res.value == pytest.approx(a / b, rel=1e-9)


class TestInterval:
    def test_polynomial_exact(self):
        res = integrate_interval(lambda x: x * x, 0.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("a, b", [(2.0, 0.0), (1.0, 1.0), (0.0, math.inf),
                                      (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_bad_interval(self, a, b):
        # reversed, empty or unbounded intervals raise instead of returning
        # the integral over the sorted ends or spending the whole budget
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x * x, a, b)


class TestPrincipalValue:
    def test_exponential_over_simple_pole(self):
        # P int_0^inf e^{-x}/(x-1) dx = -Ei(1)/e
        res = principal_value_integral(lambda x: np.exp(-x) / (x - 1.0), 1.0, tol=1e-10)
        expected = float(-mp.ei(1) * mp.exp(-1))
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(-0.697175, abs=1e-6)

    def test_odd_part_cancels(self):
        # P int_0^inf e^{-(x-1)^2}/(x-1) dx: the symmetric window about the
        # pole cancels exactly, leaving int_1^inf e^{-u^2}/u du = E1(1)/2
        f = lambda x: np.exp(-((x - 1.0) ** 2)) / (x - 1.0)
        res = principal_value_integral(f, 1.0, tol=1e-10)
        assert res.value == pytest.approx(float(mp.e1(1)) / 2.0, abs=1e-9)

    def test_pole_offset_by_smooth_part(self):
        # adding a smooth function changes the PV by its ordinary integral
        base = principal_value_integral(lambda x: np.exp(-x) / (x - 1.0), 1.0, tol=1e-10)
        combo = principal_value_integral(
            lambda x: np.exp(-x) / (x - 1.0) + np.exp(-2.0 * x), 1.0, tol=1e-10
        )
        assert combo.value - base.value == pytest.approx(0.5, abs=1e-8)

    def test_second_order_pole_detected(self):
        with pytest.raises(SingularityMisdeclared):
            principal_value_integral(
                lambda x: np.exp(-x) / (x - 1.0) ** 2, 1.0, tol=1e-8
            )

    def test_evaluations_count_nodes_of_f(self):
        nodes = []

        def f(x):
            nodes.append(x.size)
            return np.exp(-x) / (x - 1.0)

        res = principal_value_integral(f, 1.0, tol=1e-10)
        assert res.evaluations == sum(nodes)

    def test_requires_positive_singularity(self):
        with pytest.raises(ValueError):
            principal_value_integral(lambda x: 1.0 / x, 0.0)


class TestClassifyTail:
    def test_canonical_log(self):
        c = classify_tail(lambda x: 1.0 / x, window=(10.0, 1e6))
        assert c.tag is DivergenceTag.LOG_DIVERGENT
        assert c.sign_of_tail == "+"

    def test_negative_log(self):
        c = classify_tail(lambda x: -1.0 / x, window=(10.0, 1e6))
        assert c.tag is DivergenceTag.LOG_DIVERGENT
        assert c.sign_of_tail == "-"

    def test_power_laws(self):
        for p, tag in [
            (0.5, DivergenceTag.POWER_DIVERGENT),
            (1.0, DivergenceTag.LOG_DIVERGENT),
            (1.5, DivergenceTag.CONVERGENT),
            (2.0, DivergenceTag.CONVERGENT),
            # panel ratios 1.259, 1.211, 0.810 and 0.779: just outside the
            # 1.25 and 0.8 thresholds, so each panel must be accurate
            (0.76, DivergenceTag.POWER_DIVERGENT),
            (0.8, DivergenceTag.LOG_DIVERGENT),
            (1.22, DivergenceTag.LOG_DIVERGENT),
            (1.26, DivergenceTag.CONVERGENT),
        ]:
            c = classify_tail(lambda x, p=p: x ** (-p), window=(10.0, 1e6))
            assert c.tag is tag, f"p={p}"

    def test_exponential_tail(self):
        c = classify_tail(lambda x: np.exp(-x), window=(10.0, 1e4))
        assert c.tag is DivergenceTag.CONVERGENT

    def test_oscillatory_inconclusive(self):
        with pytest.raises(Inconclusive):
            classify_tail(lambda x: np.sin(x) / np.log(x), window=(10.0, 1e3))

    def test_window_validation(self):
        for window in ((5.0, 1.0), (10.0, math.inf)):
            with pytest.raises(ValueError):
                classify_tail(lambda x: 1.0 / x, window=window)

    def test_vectorized_matches_scalar(self):
        # one (n, m) call classifies each entry as the one-entry (n,) calls do
        fs = [lambda x: 1.0 / x, lambda x: -1.0 / x, lambda x: np.exp(-x)]
        fs += [lambda x, p=p: x ** (-p) for p in (0.5, 1.0, 1.5, 2.0)]
        rows = lambda x: np.stack([f(x) for f in fs], axis=1)
        window = (10.0, 1e4)
        one_by_one = [classify_tail(f, window=window) for f in fs]
        assert classify_tail(rows, window=window) == tuple(one_by_one)

    def test_one_call_for_exact_panels(self):
        # 1/x is constant in s on every panel: one call of f, 15 nodes each
        sizes = []

        def f(x):
            sizes.append(x.size)
            return 1.0 / x

        assert classify_tail(f, window=(10.0, 1e6)).tag is DivergenceTag.LOG_DIVERGENT
        assert sizes == [TAIL_PANELS * 15]

    def test_vectorized_calls_bounded(self):
        # cos(x)^2/x needs thousands of panels in s; every call of an (n, 3)
        # tail takes at most MAX_BATCH node-entries
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.stack([np.cos(x) ** 2 / x, 1.0 / x, x ** -2.0], axis=1)

        classes = classify_tail(f, window=(10.0, 1e4))
        assert [c.tag for c in classes] == [DivergenceTag.LOG_DIVERGENT,
                                            DivergenceTag.LOG_DIVERGENT,
                                            DivergenceTag.CONVERGENT]
        assert len(sizes) > 2 and max(sizes) * 3 <= MAX_BATCH

    def test_noise_exhausts_budget(self):
        # no refinement settles seeded noise: NonConvergence within 2.4M
        # nodes of f, its partial holding the panel integrals
        rng = np.random.default_rng(0)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return rng.standard_normal(x.size)

        with pytest.raises(NonConvergence) as exc:
            classify_tail(f, window=(10.0, 1e6))
        partial = exc.value.partial
        assert not partial.converged
        assert partial.value.shape == partial.abs_error_estimate.shape == (TAIL_PANELS,)
        assert TAIL_PANELS * partial.evaluations == sum(sizes) <= 2_400_000
