"""The exponential-integral values behind theta and omega.

theta seeds its fold with exp(b) E1(b), and omega fills its columns from
the ladder T_t(mu) = exp(mu) E_{t+1}(mu) = exp(mu) mu^t Gamma(-t, mu) of
``closed_form._exp_e1_ladder``. These tests read E1 and the
nonpositive-order upper incomplete gamma off that ladder and pin them
against quadrature of the defining integrals, series values and known
bounds, never against the ladder itself.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anmimo import DomainError, theta
from anmimo.closed_form import _exp_e1_ladder


def e1(b: float) -> float:
    """E1(b) as the ladder's first rung gives it."""
    with mp.workdps(15):
        return float(_exp_e1_ladder(mp.mpf(b), 0)[0] * mp.exp(-b))


def upper_gamma(a: int, b: float) -> float:
    """Gamma(a, b) for an order a <= 0, from rung -a of the ladder.

    Runs at double-like precision: the digits the forward ladder loses
    must come from its own guard, not from the caller's context.
    """
    with mp.workdps(15):
        mu = mp.mpf(b)
        return float(_exp_e1_ladder(mu, -a)[-a] * mp.exp(-mu) / mu ** (-a))


def quad_upper_gamma(a: int, b: float) -> float:
    """Quadrature of the definition: the integral of t^(a-1) e^(-t) over [b, inf)."""
    with mp.workdps(50):
        return float(mp.quad(lambda t: t ** (a - 1) * mp.exp(-t), [b, mp.inf]))


class TestExpIntegralE1:
    def test_value_at_one(self):
        assert e1(1.0) == pytest.approx(0.2193839344, abs=1e-9)

    def test_small_argument(self):
        # series regime
        assert e1(0.01) == pytest.approx(4.03793, abs=1e-4)

    def test_large_argument_asymptotic(self):
        # leading asymptotic term: E1(b) ~ e^{-b}/b
        assert e1(50.0) * 50.0 * math.exp(50.0) == pytest.approx(1.0, rel=0.03)

    def test_against_quadrature(self):
        for b in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            assert e1(b) == pytest.approx(quad_upper_gamma(0, b), rel=1e-10, abs=0)

    def test_rejects_nonpositive(self):
        # theta's E1 argument is b = 1/x: x = inf gives b = 0, x < 0 gives b < 0
        with pytest.raises(DomainError):
            theta(1, 1, math.inf)
        with pytest.raises(DomainError):
            theta(1, 1, -1.0)

    @given(st.floats(min_value=1e-6, max_value=500.0))
    def test_positive_and_below_log_bound(self, b):
        v = e1(b)
        assert v > 0.0
        # E1(b) < e^{-b} ln(1 + 1/b) for all b > 0
        assert v < math.exp(-b) * math.log1p(1.0 / b) * (1.0 + 1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=100.0),
        st.floats(min_value=1.001, max_value=4.0),
    )
    def test_strictly_decreasing(self, b, factor):
        assert e1(b * factor) < e1(b)


class TestUpperIncompleteGamma:
    def test_orders_match_high_precision_oracle(self):
        for a in (-20, -6, -3, -2, -1, 0):
            for b in (0.25, 0.5, 1.0, 2.0, 4.0, 10.0, 30.0):
                # abs=0: at b = 30 the values are far below approx's
                # default absolute tolerance of 1e-12
                assert upper_gamma(a, b) == pytest.approx(
                    quad_upper_gamma(a, b), rel=1e-10, abs=0
                )

    @given(
        st.integers(min_value=-20, max_value=-1),
        st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=60)
    def test_negative_orders_positive(self, a, b):
        # the forward ladder cancels: too little working precision would
        # show up here as a zero or negative value
        assert upper_gamma(a, b) > 0.0
