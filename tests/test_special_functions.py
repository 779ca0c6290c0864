"""The exponential-integral values behind theta and omega.

Both closed forms are weighted sums over the ladder
T_t(b) = exp(b) E_{t+1}(b) = exp(b) b^t Gamma(-t, b), folded exactly to
one transcendental T_0 and rounded by ``closed_form._ladder_sums``. These
tests read E1 and the nonpositive-order upper incomplete gamma off that
evaluator, with a unit weight on one rung, and pin them against
quadrature of the defining integrals, series values and known bounds,
never against the ladder itself.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anmimo import DomainError, theta
from anmimo.closed_form import _euler, _exp_e1, _ladder_sums, _ln, _ln2


def rung(t: int, b: float) -> float:
    """T_t(b) from the evaluator, with weight 1 on rung t and 0 below it.

    Called at double-like precision: the digits the forward ladder
    cancels must come from the evaluator's own guard, not from the
    caller's context.
    """
    with mp.workdps(15):
        return _ladder_sums(f"T_{t}({b!r})", [[(1, b.as_integer_ratio(), [0] * t + [1], 1)]])[0]


def e1(b: float) -> float:
    """E1(b) as the ladder's first rung gives it."""
    with mp.workdps(15):
        return float(rung(0, b) * mp.exp(-b))


def upper_gamma(a: int, b: float) -> float:
    """Gamma(a, b) for an order a <= 0, from rung -a of the ladder."""
    with mp.workdps(15):
        mu = mp.mpf(b)
        return float(rung(-a, b) * mp.exp(-mu) / mu ** (-a))


def t0_error(b: tuple[int, int], prec: int):
    """|T~ - T| / T in units of 2^-prec, T = exp(b) E1(b) at b = num / den.

    T~ is _exp_e1's value; T is mpmath's exp times E1 at twice the bits
    plus 64, which shares no code with the integer evaluator.
    """
    man, exp = _exp_e1(*b, prec)
    with mp.workprec(2 * prec + 64):
        level = mp.mpf(b[0]) / b[1]
        want = mp.exp(level) * mp.e1(level)
        return abs(mp.ldexp(man, exp) - want) / want * mp.mpf(2) ** prec


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


class TestIntegerExpE1:
    """_exp_e1, the only transcendental of the closed forms, against its bound."""

    LEVELS = {
        # integer pairs, named by b itself or by the double scale x whose
        # level b = 1/x is: from b = 2^-1074 up to b = 2^1074
        "b=2^-1074": (5e-324).as_integer_ratio(),
        "x=max": (1.7976931348623157e308).as_integer_ratio()[::-1],
        "b=1e-300": (1e-300).as_integer_ratio(),
        "b=1e-6": (1e-6).as_integer_ratio(),
        "b=0.018": (0.018).as_integer_ratio(),
        "b=1": (1, 1),
        "b=3": (3, 1),
        "b=10": (10, 1),
        "b=1e3": (1000, 1),
        "b=1e200": (1e200).as_integer_ratio(),
        "b=max": (1.7976931348623157e308).as_integer_ratio(),
        "x=2^-1074": (5e-324).as_integer_ratio()[::-1],
    }

    @pytest.mark.parametrize("prec", [60, 111, 151, 400, 2000])
    @pytest.mark.parametrize("level", LEVELS)
    def test_within_the_claimed_bound(self, level, prec):
        assert t0_error(self.LEVELS[level], prec) <= 0.25

    @pytest.mark.parametrize("level", ["b=2^-1074", "b=0.018", "b=10", "b=1e3", "x=2^-1074"])
    def test_within_the_claimed_bound_at_9000_bits(self, level):
        assert t0_error(self.LEVELS[level], 9000) <= 0.25

    @pytest.mark.parametrize("prec", [60, 151, 2000])
    def test_both_sides_of_the_series_switch(self, prec):
        # the power series up to b = split, the asymptotic series past it;
        # split mirrors _exp_e1's test on its working bits w
        w = prec + 2 * prec.bit_length() + 8
        split = (w * 710 >> 10) + 10
        for b in [(split - 1, 1), (split, 1), (split * 2**40 + 1, 2**40), (split + 1, 1)]:
            assert t0_error(b, prec) <= 0.25, b

    @pytest.mark.parametrize("w", [60, 200, 1000, 5000])
    def test_constants_and_log_within_their_bounds(self, w):
        # Euler's gamma within 2 ulps, ln 2 within 4, ln(p / q) within
        # 5 |e| + 2 w, e its binary exponent, all at w fractional bits
        with mp.workprec(w + 64):
            one = mp.mpf(2) ** w
            assert abs(_euler(w) - mp.euler * one) <= 2
            assert abs(_ln2(w) - mp.ln2 * one) <= 4
            for b in ((1, 3), (3, 2), (7, 5), (5e-324).as_integer_ratio(), (10**300, 7)):
                e = b[0].bit_length() - b[1].bit_length()
                want = mp.log(mp.mpf(b[0]) / b[1]) * one
                assert abs(_ln(*b, w) - want) <= 5 * (abs(e) + 1) + 2 * w, b
