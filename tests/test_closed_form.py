"""Closed-form ergodic rate layer.

Heavy oracle agreement (10^6-trial Monte Carlo) lives in the acceptance
suite; here the same cross-checks run at reduced trial counts plus the
exact identities, degeneracy routing, and validation behavior.
"""

import math
import random
import struct
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations, pairwise

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anmimo import (
    AsymptoticRatios,
    DomainError,
    NumericError,
    SystemConfig,
    average_rate_bounds,
    average_secrecy_rate,
    bob_capacity,
    critical_eve_antennas,
    delta_highsnr,
    eve_leakage_upper_bound,
    f_func,
    mc_average_secrecy_rate,
    mc_logdet_oracle,
    omega,
    phi_func,
    rate_report,
    run_point,
    theta,
)
from anmimo import closed_form
from closed_form_reference import (
    cramer_matrices,
    eve_levels,
    frullani_points,
    ladder_weights_reference,
    omega_by_cramer,
    omega_by_frullani,
    omega_sum,
    published_coeffs,
    rate_reference,
    theta_by_published_sum,
    theta_by_telatar,
)


def cfg(n_a, n_b, n_e, alpha, beta, gamma):
    return SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)


def theta_enclosure(m, n, x, terms=40):
    """Exact bounds (lo, hi) on theta(m, n, x) at low SNR, as Fractions.

    For b = 1/x > 0, T_t(b) = exp(b) E_{t+1}(b) lies between consecutive
    partial sums of its asymptotic series sum_k (-1)^k (t+1)_k / b^(k+1)
    (DLMF 8.11(i)); the published A_j dot those brackets. It shares no
    code with theta's weights, fold or precision rule, nor with mpmath.
    """
    p, q = x.as_integer_ratio()
    lo = hi = Fraction(0)
    for t, a in enumerate(published_coeffs(m, n)):
        # partial sums of `terms` and of terms + 1 terms, times q^(terms + 1)
        partial, term = 0, p * q**terms
        for k in range(terms):
            partial += term
            term = -(t + 1 + k) * p * term // q
        ends = sorted((a * partial, a * (partial + term)))
        lo += ends[0]
        hi += ends[1]
    scale = q ** (terms + 1)
    return lo / scale, hi / scale


def counting(monkeypatch, name):
    """Replace closed_form.<name> by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(closed_form, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closed_form, name, wrapper)
    return calls


def integer_levels(n_a, n_b, alpha, beta):
    """eve_levels as _ladder_weights takes them, each level an integer pair (numerator, denominator)."""
    return [(mu.as_integer_ratio(), m) for mu, m in eve_levels(n_a, n_b, alpha, beta)]


def reference_configs(seed, count):
    """Seeded configs over every shape up to n = 16 and alpha, beta over decades."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n_a = rng.randint(2, 16)
        beta = 10 ** rng.uniform(-6, 6)
        if rng.random() < 0.2:
            # near beta = 1, where the two-level sum cancels most
            beta = 1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-5.9, -2)
        out.append((n_a, rng.randint(1, n_a - 1), rng.randint(1, 16), 10 ** rng.uniform(-6, 6), beta))
    return out


def evaluate(quantity, args):
    """theta(*args), or omega of the config args at gamma 1."""
    return theta(*args) if quantity == "theta" else omega(cfg(*args, 1.0))


PRECISION_CASES = [
    pytest.param("theta", (16, 16, 0.05), id="theta"),
    pytest.param("omega", (16, 8, 16, 2.0, 0.5), id="omega"),
]


class TestTheta:
    def test_zero_snr(self):
        assert theta(3, 6, 0.0) == 0.0

    def test_single_antenna_is_exponential_integral(self):
        # E[ln(1 + x|g|^2)] = e^(1/x) E1(1/x) for unit-mean |g|^2; the
        # reference integrates the definition instead of calling E1
        for x in (0.3, 1.0, 2.0, 7.5):
            expect = float(mp.quad(lambda s: mp.log1p(x * s) * mp.exp(-s), [0, mp.inf]))
            assert theta(1, 1, x) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 4), (3, 6), (4, 4), (4, 8), (8, 8)])
    def test_equals_telatar_integral(self, m, n):
        # a reference with no E1 ladder: the eigenvalue density's integral
        for x in (1e-3, 0.5, 4.0, 1e3):
            assert theta(m, n, x) == theta_by_telatar(m, n, x), x

    def test_against_mc_oracle_small(self):
        for m, n, x in ((1, 1, 2.0), (2, 3, 4.0)):
            est = mc_logdet_oracle(m, n, x, 100_000, seed=42)
            assert abs(theta(m, n, x) - est.mean) <= 3.0 * est.stderr

    def test_regression_values(self):
        # frozen against the 10^6-trial oracle runs
        assert theta(4, 6, 2.0) == pytest.approx(8.932187495166415, rel=1e-12)
        assert theta(3, 6, 1000.0) == pytest.approx(25.19261846768807, rel=1e-12)
        assert theta(3, 3, 1e6) == pytest.approx(42.21492489413397, rel=1e-12)

    @pytest.mark.parametrize(
        "x, shapes",
        [
            # every shape m <= n <= 16 that 20 guard digits past the
            # cancelled ones rounded one ulp off at these x
            (1e-100, [(6, 7), (6, 9), (5, 10), (7, 10), (6, 11), (7, 12), (9, 12), (11, 12), (3, 14)]),
            (3e-100, [(3, 6), (2, 7), (4, 7), (7, 8), (2, 9), (4, 9), (8, 9), (2, 11), (4, 11),
                      (8, 11), (3, 12), (1, 14), (7, 16), (9, 16), (11, 16)]),
            (3e-200, [(2, 3), (3, 4), (1, 6), (3, 8), (1, 12), (3, 16)]),
            (3e-300, [(2, 3), (3, 4), (1, 6), (3, 8), (1, 12), (4, 12), (3, 16)]),
        ],
    )
    def test_low_snr_correctly_rounded(self, x, shapes):
        # theta ~ m n x here, which often lies near a rounding tie: the
        # value is the one both ends of an exact enclosure round to
        for m, n in shapes:
            lo, hi = theta_enclosure(m, n, x)
            assert float(lo) == float(hi) == theta(m, n, x), (m, n)

    def test_domain_errors(self):
        # m > n is the same log-det by Sylvester's identity, not an error
        assert theta(3, 2, 1.0) == theta(2, 3, 1.0)
        with pytest.raises(DomainError):
            theta(0, 2, 1.0)
        with pytest.raises(DomainError):
            theta(2, 0, 1.0)
        with pytest.raises(DomainError):
            theta(2, 3, -0.5)
        # n has no upper limit
        assert theta(2, 17, 1.0) == theta_by_published_sum(2, 17, 1.0, dps=1200)

    def test_symmetric_in_m_and_n(self):
        # det(I_m + x G G^H) = det(I_n + x G^H G): omega's single-level
        # weights are the same integers, over denominator 1, either way
        # round, so ordering the shape changes no bit of theta
        for m in range(1, 17):
            for n in range(1, 17):
                weights = closed_form._ladder_weights(m, n, (((1, 1), m),))[0]
                assert weights == closed_form._ladder_weights(n, m, (((1, 1), n),))[0]
                assert weights[1] == 1
        for m, n in [*combinations(range(1, 17), 2), (17, 48)]:
            for x in (1e-6, 1e-3, 0.05, 1.0, 37.5, 1e6):
                assert theta(m, n, x).hex() == theta(n, m, x).hex(), (m, n, x)

    @pytest.mark.parametrize("rows, cols, x", [(5, 2, 2.0), (8, 3, 0.5), (17, 1, 4.0)])
    def test_more_rows_than_columns_against_mc_oracle(self, rows, cols, x):
        est = mc_logdet_oracle(rows, cols, x, 20_000, seed=29)
        assert abs(theta(rows, cols, x) - est.mean) <= 3.0 * est.stderr

    @pytest.mark.parametrize("n", range(1, 17))
    def test_polynomial_fold_matches_recursion(self, n):
        # the exact fold of the cached integer weights gives the published
        # sum's double at 600 digits, bit for bit
        for m in range(1, n + 1):
            for x in (1e-6, 1e-3, 0.05, 0.3, 1.0, 2.0, 37.5, 1e3, 1e6):
                assert theta(m, n, x).hex() == theta_by_published_sum(m, n, x).hex()
        # only integers stay cached
        coeffs, den = closed_form._theta_coeffs(n, n)
        assert all(type(c) is int for c in coeffs + [den])

    @pytest.mark.parametrize("n", [*range(17, 33), 48])
    def test_published_sum_past_16(self, n):
        # no cap on n: the same fold gives the published sum's double past
        # 16, where the reference's ladder needs 1200 digits
        for m in sorted({1, n // 3, n // 2, n}):
            for x in (1e-6, 1e-3, 0.05, 1.0, 37.5, 1e6):
                want = theta_by_published_sum(m, n, x, dps=1200)
                assert theta(m, n, x).hex() == want.hex(), (m, n, x)

    def test_published_sum_past_16_at_twice_the_digits(self):
        # the reference's 1200 digits suffice where its ladder amplifies
        # T_0's rounding most: 2400 give the same double
        for args in ((32, 32, 1e-6), (48, 48, 1e-6)):
            want = theta_by_published_sum(*args, dps=1200)
            assert theta_by_published_sum(*args, dps=2400) == want == theta(*args), args

    @pytest.mark.parametrize("m, n, x", [(17, 17, 1.0), (20, 24, 0.5), (8, 40, 2.0)])
    def test_against_mc_oracle_past_16(self, m, n, x):
        est = mc_logdet_oracle(m, n, x, 20_000, seed=28)
        assert abs(theta(m, n, x) - est.mean) <= 3.0 * est.stderr

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_polynomial_fold_matches_recursion_at_drawn_x(self, m, extra, log_x):
        n = min(16, m + extra)
        x = 10.0**log_x
        assert theta(m, n, x).hex() == theta_by_published_sum(m, n, x).hex()

    def test_weights_are_the_published_coefficients(self):
        # theta is omega at one level: the rung weights of that level,
        # over their denominator, are the published A_j exactly, on every
        # shape up to n = 16
        for n in range(1, 17):
            for m in range(1, n + 1):
                coeffs, den = closed_form._theta_coeffs(m, n)
                assert [Fraction(c, den) for c in coeffs] == published_coeffs(m, n), (m, n)

    def test_envelope_boundary_finite(self):
        # (16, 16), stressed both at tiny and large scale
        assert math.isfinite(theta(16, 16, 0.05))
        assert math.isfinite(theta(16, 16, 100.0))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_m_n_x(self, m, extra, x):
        n = m + extra
        base = theta(m, n, x)
        assert theta(m, n, 1.5 * x) > base  # more SNR
        assert theta(m, n + 1, x) > base  # more transmit diversity
        if m + 1 <= n:
            assert theta(m + 1, n, x) > base  # more receive antennas


class TestOmega:
    def test_equal_ratio_branch_reduces_to_theta(self):
        c = cfg(4, 2, 2, alpha=1.0, beta=1.0, gamma=1.0)
        assert omega(c) == theta(2, 4, 1.0)

    def test_one_eve_antenna_equals_frullani_integral(self):
        # a reference with no E1 ladder and no determinant expansion
        for n_a, n_b, alpha, beta in frullani_points(5, 20):
            c = cfg(n_a, n_b, 1, alpha, beta, gamma=1.0)
            assert omega(c) == omega_by_frullani(n_a, n_b, alpha, beta), c

    def test_against_two_level_oracle(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=1.0)
        profile = [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
        est = mc_logdet_oracle(4, 6, profile, 200_000, seed=9)
        assert abs(omega(c) - est.mean) <= 3.0 * est.stderr

    def test_continuity_at_equal_ratio(self):
        c1 = cfg(6, 3, 4, alpha=2.0, beta=1.0, gamma=1.0)
        center = omega(c1)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            lo = omega(cfg(6, 3, 4, alpha=2.0, beta=1.0 - eps, gamma=1.0))
            hi = omega(cfg(6, 3, 4, alpha=2.0, beta=1.0 + eps, gamma=1.0))
            gaps.append(max(abs(lo - center), abs(hi - center)))
        assert gaps[2] <= 1e-3
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha",
        [(6, 3, 4, 2.0), (16, 8, 16, 2.0), (4, 1, 12, 0.5), (16, 15, 16, 1e3)],
    )
    def test_near_equal_levels_match_cramer_reference(self, n_a, n_b, n_e, alpha):
        # however close beta is to 1, the two-level sum is the correctly
        # rounded omega; its weights grow like (mu1 / (mu1 - mu2))^(n_a - 1),
        # so the reference needs 1500 digits at a gap of an ulp
        # every beta keeps alpha * beta off alpha, so the two-level sum runs,
        # also at (16, 15, 16), alpha 1e3, beta 1 - 2^-53, where 1.0 / alpha
        # and 1.0 / (alpha * beta) round to one double
        for beta in (1 - 0.999e-6, 1 + 0.999e-6, 1 + 1e-9, 1 + 1e-12,
                     1 + 2**-52, 1 - 2**-52, 1 - 2**-53):
            c = cfg(n_a, n_b, n_e, alpha, beta, 1.0)
            assert c.alpha * c.beta != c.alpha
            assert omega(c) == omega_by_cramer(n_a, n_b, n_e, alpha, beta, dps=1500), c

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            # alpha beta overflows to inf, or underflows to 0 (once a
            # ZeroDivisionError)
            (1e200, 1e200, "alpha * beta must be finite and > 0, got inf"),
            (1e-200, 1e-200, "alpha * beta must be finite and > 0, got 0.0"),
            (5e-324, 0.5, "alpha * beta must be finite and > 0, got 0.0"),
        ],
        ids=["1e+200-1e+200", "1e-200-1e-200", "5e-324-0.5"],
    )
    def test_levels_outside_float_range(self, alpha, beta, message):
        with pytest.raises(DomainError) as exc:
            omega(cfg(6, 3, 4, alpha, beta, 1.0))
        assert str(exc.value) == message

    @pytest.mark.parametrize("alpha, beta", [(1e-310, 2.0), (1e-300, 1e-10)])
    def test_levels_beyond_the_largest_double(self, alpha, beta):
        # 1/alpha, and at (1e-310, 2) 1/(alpha beta), exceed the largest
        # double but are exact levels: omega is its leading term
        # alpha n_e (n_b + beta (n_a - n_b)), rounded once (neither is a
        # rounding tie)
        lead = Fraction(alpha) * 4 * (3 + Fraction(beta) * 3)
        assert omega(cfg(6, 3, 4, alpha, beta, 1.0)) == float(lead)

    def test_regression_values(self):
        assert omega(cfg(6, 3, 12, alpha=2.0, beta=0.5, gamma=1.0)) == pytest.approx(
            15.824114271741264, rel=1e-9
        )
        assert omega(cfg(6, 3, 3, alpha=1e3, beta=1e3, gamma=1.0)) == pytest.approx(
            42.26231413801759, rel=1e-9
        )

    def test_zero_snr(self):
        assert omega(cfg(6, 3, 4, alpha=0.0, beta=0.5, gamma=1.0)) == 0.0

    def test_one_elimination_matches_per_column_determinants(self):
        # the reference's tr(R0^-1 C) is the expansion sum_k det(R_k) / det R0,
        # R_k = R0 with column k replaced by column k of C, and omega is it;
        # p = n_e < n_a, then p = n_a < n_e
        for n_a, n_b, n_e in ((6, 3, 4), (5, 2, 9)):
            with mp.workdps(50):
                r0, c, _ = cramer_matrices(n_a, n_b, n_e, 2.0, 0.5)
                dets = []
                for k in range(c.cols):
                    r_k = r0.copy()
                    for i in range(r0.rows):
                        r_k[i, k] = c[i, k]
                    dets.append(mp.det(r_k))
                want = mp.fsum(dets) / mp.det(r0)
                inv = mp.inverse(r0)
                got = mp.fsum(inv[k, j] * c[j, k] for k in range(c.cols) for j in range(c.rows))
                assert abs(got - want) <= mp.mpf(10) ** -40 * abs(want)
            assert omega(cfg(n_a, n_b, n_e, 2.0, 0.5, 1.0)) == float(want)

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta",
        [
            # p = n_e < n_a and p = n_a <= n_e, each with the data level
            # 1/alpha above the noise level (beta > 1) and below it
            (6, 3, 4, 2.0, 3.0),
            (9, 2, 5, 0.3, 40.0),
            (16, 8, 5, 2.0, 0.3),
            (12, 7, 3, 50.0, 0.01),
            (6, 3, 12, 2.0, 1.7),
            (4, 1, 4, 1e3, 1e3),
            (8, 5, 16, 0.7, 0.25),
            (10, 9, 13, 1e-2, 1e-3),
        ],
    )
    def test_closed_form_det_r0(self, n_a, n_b, n_e, alpha, beta):
        # R0 is the two-node confluent Vandermonde matrix whose inverse the
        # residue form takes as Hermite interpolation: its determinant is
        # factorials, level powers and the gap (mu1 - mu2)^(m1 m2), with the
        # shape's sign (-1)^(n_e (n_a - p)); -1 at (16, 8, 5) and (12, 7, 3)
        (mu1, m1), (mu2, m2) = eve_levels(n_a, n_b, alpha, beta)
        assert (mu1 == 1 / Fraction(alpha)) == (beta > 1.0)
        p = min(n_e, n_a)
        want = (
            sum(math.lgamma(n_e - p + c + 1) for c in range(p))
            - n_e * (m1 * math.log(mu1) + m2 * math.log(mu2))
            + sum(math.lgamma(d + 1) for m in (m1, m2) for d in range(m))
            + m1 * m2 * math.log(mu1 - mu2)
        )
        with mp.workdps(600):
            det = mp.det(cramer_matrices(n_a, n_b, n_e, alpha, beta)[0])
            assert float(mp.log(abs(det))) == pytest.approx(want, rel=1e-12, abs=1e-10)
            assert mp.sign(det) == (-1) ** (n_e * (n_a - p))

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta",
        [(6, 3, 4, 2.0, 3.0), (9, 2, 5, 0.3, 40.0), (6, 3, 12, 2.0, 1.7), (10, 9, 13, 1e-2, 1e-3)],
    )
    def test_weights_are_the_cramer_diagonal(self, n_a, n_b, n_e, alpha, beta):
        # w_{l,phi} = sum of (R0^-1)_kj (R0)_jk over the k < p and the rows j
        # of level l and shift d with n_e - p + k + d = phi
        weights = closed_form._ladder_weights(n_a, n_e, integer_levels(n_a, n_b, alpha, beta))
        base = n_e - min(n_e, n_a)
        with mp.workdps(600):
            r0, c, labels = cramer_matrices(n_a, n_b, n_e, alpha, beta)
            inv = mp.inverse(r0)
            got = {}
            for k in range(c.cols):
                for j, (level, d) in enumerate(labels):
                    key = (level, base + k + d)
                    got[key] = got.get(key, 0) + inv[k, j] * r0[j, k]
            # the tail weights are the differences of the rung weights
            want = {
                (level, phi): mp.mpf(c - c_next) / den
                for level, (coeffs, den) in enumerate(weights)
                for phi, (c, c_next) in enumerate(pairwise(coeffs + [0]))
                if phi >= base
            }
            assert got.keys() == want.keys()
            scale = max(abs(v) for v in want.values())
            for key, value in want.items():
                assert abs(got[key] - value) <= mp.mpf(10) ** -100 * scale, key

    def test_weights_sum_to_p(self):
        # one per diagonal entry of R0^-1 R0, exactly, on every shape up to
        # n_a = 16 and n_e = 16 at levels drawn over twelve decades; rung
        # 0's weight is the sum of the tail weights
        rng = random.Random(2)
        for n_a in range(2, 17):
            for n_b in range(1, n_a):
                for n_e in range(1, 17):
                    levels = integer_levels(
                        n_a, n_b, 10 ** rng.uniform(-6, 6), 10 ** rng.uniform(-6, 6)
                    )
                    (c1, den1), (c2, den2) = closed_form._ladder_weights(n_a, n_e, levels)
                    total = c1[0] * den2 + c2[0] * den1
                    assert total == min(n_e, n_a) * den1 * den2, (n_a, n_b, n_e)

    def test_weights_equal_the_product_form(self):
        # the diagonal sums give the product form's integers exactly, on
        # every shape up to n_a = n_e = 24: one level at 1 and at a drawn
        # level, and two levels drawn over twelve decades, once apart and
        # once nearly merged
        rng = random.Random(33)

        def level():
            return (10 ** rng.uniform(-6, 6)).as_integer_ratio()[::-1]

        for n_a in range(1, 25):
            for n_e in range(1, 25):
                cases = [(((1, 1), n_a),), ((level(), n_a),)]
                if n_a > 1:
                    n_b = rng.randint(1, n_a - 1)
                    x = 10 ** rng.uniform(-6, 6)
                    for y in (10 ** rng.uniform(-6, 6), x * (1 + 10 ** rng.uniform(-12, -3))):
                        levels = (x.as_integer_ratio()[::-1], n_b), (y.as_integer_ratio()[::-1], n_a - n_b)
                        cases.append(levels)
                for levels in cases:
                    want = ladder_weights_reference(n_a, n_e, levels)
                    assert closed_form._ladder_weights(n_a, n_e, levels) == want, (n_a, n_e, levels)
        levels = ((2.0 ** 0.5).as_integer_ratio()[::-1], 24), ((10 ** 0.4).as_integer_ratio()[::-1], 24)
        assert closed_form._ladder_weights(48, 60, levels) == ladder_weights_reference(48, 60, levels)

    def test_matches_cramer_reference_bitwise(self):
        for n_a, n_b, n_e, alpha, beta in reference_configs(16, 60):
            c = cfg(n_a, n_b, n_e, alpha, beta, 1.0)
            assert omega(c) == omega_by_cramer(n_a, n_b, n_e, alpha, beta), c

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta",
        [
            # 15 guard digits once rounded this one ulp off
            (5, 4, 9, 0.6089089015057949, 35842.306809073016),
            # an elimination at an audited precision once returned this
            # 921 ulp off
            (5, 4, 6, 0.04732917054040971, 996882.9950898642),
        ],
    )
    def test_guard_digits_fix_the_last_bit(self, n_a, n_b, n_e, alpha, beta):
        assert omega(cfg(n_a, n_b, n_e, alpha, beta, 1.0)) == omega_by_cramer(
            n_a, n_b, n_e, alpha, beta
        )

    @pytest.mark.parametrize("n_a, n_b, n_e", [(24, 12, 24), (32, 16, 32)])
    def test_beyond_the_theta_envelope(self, n_a, n_b, n_e):
        # omega has no cap, and an elimination took seconds here
        c = cfg(n_a, n_b, n_e, 1e3, 1e3, 1.0)
        start = time.perf_counter()
        value = omega(c)
        assert time.perf_counter() - start < 1.0
        assert value == omega_by_cramer(n_a, n_b, n_e, 1e3, 1e3)

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta, attempts",
        [
            # the configs of test_regression_values and test_pinned_values
            (6, 3, 12, 2.0, 0.5, 1),
            (6, 3, 3, 1e3, 1e3, 1),
            (16, 8, 16, 1.0, 1 + 1.5e-6, 1),
            (16, 1, 16, 1e6, 1e-6, 1),
            (12, 6, 12, 3.0, 0.7, 1),
            (16, 8, 5, 2.0, 3.0, 1),
            (6, 2, 16, 12875.740403196525, 7.538442576337261e-06, 1),
            (8, 7, 8, 0.01901708027304142, 679156.6916577134, 1),
            # high and low SNR, where one det R_k once lost more digits
            # than det R0 showed; the largest weight sizes the sum's loss
            (16, 8, 16, 1e6, 1e6, 1),
            (16, 15, 16, 1e-3, 1e3, 1),
        ],
    )
    def test_first_precision_settles(self, monkeypatch, n_a, n_b, n_e, alpha, beta, attempts):
        calls = counting(monkeypatch, "_fold_sums")
        omega(cfg(n_a, n_b, n_e, alpha, beta, 1.0))
        assert len(calls) == attempts

    # theta is omega at one level and shares its precision loop
    # (_ladder_sums), so the loop's tests run on both; the first case of each
    # cancels about 66 bits (theta) and 17 (omega)
    @pytest.mark.parametrize("quantity, args", PRECISION_CASES)
    def test_short_first_precision_retries(self, monkeypatch, quantity, args):
        # 70 bits cannot hold the bits the sum cancels: the attempt's
        # error bound straddles a rounding boundary, and the retry at twice
        # the precision gives the usual value
        want = evaluate(quantity, args)
        calls = counting(monkeypatch, "_fold_sums")
        monkeypatch.setattr(closed_form, "_first_prec", lambda folds: 70)
        assert evaluate(quantity, args) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("quantity, args", PRECISION_CASES)
    def test_zero_sum_retries(self, monkeypatch, quantity, args):
        # a zero sum holds no correct digit: the attempt fails and the retry
        # at twice the precision gives the usual value
        want = evaluate(quantity, args)
        calls = []
        real = closed_form._fold_sums

        def zeroing(sums, prec):
            calls.append(prec)
            return [
                (0 if len(calls) == 1 else num, size, den) for num, size, den in real(sums, prec)
            ]

        monkeypatch.setattr(closed_form, "_fold_sums", zeroing)
        assert evaluate(quantity, args) == want
        assert calls[1] == 2 * calls[0]

    @pytest.mark.parametrize(
        "quantity, args, what",
        [
            ("theta", (16, 16, 0.05), "theta(16, 16, 0.05)"),
            ("omega", (16, 8, 16, 2.0, 0.5), "omega(n_a=16, n_b=8, n_e=16, alpha=2.0, beta=0.5)"),
        ],
        ids=["theta", "omega"],
    )
    def test_precision_that_never_settles_is_a_numeric_error(
        self, monkeypatch, quantity, args, what
    ):
        # the error names the quantity and its arguments
        monkeypatch.setattr(closed_form, "_fold_sums", lambda sums, prec: [(0, 1, 1)] * len(sums))
        with pytest.raises(NumericError) as exc:
            evaluate(quantity, args)
        assert str(exc.value) == f"adaptive precision for {what} did not settle"

    def test_threads_get_the_serial_values(self):
        # each attempt carries its own precision: with two threads switching
        # every microsecond, no attempt runs at the other thread's
        # precision, and a caller's mpmath precision is left alone
        rng = random.Random(7)
        configs = []
        for _ in range(300):
            n_a = rng.randint(2, 16)
            configs.append(
                cfg(n_a, rng.randint(1, n_a - 1), rng.randint(1, 16),
                    10 ** rng.uniform(-6, 6), 10 ** rng.uniform(-6, 6), 1.0)
            )
        want = [omega(c).hex() for c in configs]
        got = [None, None]

        def run(slot):
            got[slot] = [omega(c).hex() for c in configs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want, want]
        with mp.workdps(15):
            theta(16, 16, 0.05)
            omega(cfg(16, 8, 16, 2.0, 0.5, 1.0))
            assert mp.mp.prec == 53

    @pytest.mark.parametrize(
        "quantity, args, pinned",
        [
            pytest.param(quantity, args, pinned, id="-".join(map(str, args)))
            for quantity, args, pinned in [
                ("omega", (6, 3, 12, 2.0, 0.5), None),
                ("omega", (16, 8, 16, 1e6, 1e6), None),
                ("omega", (16, 15, 16, 1e-3, 1e3), None),
                ("omega", (16, 1, 16, 1e6, 1e-6), None),
                ("omega", (8, 7, 8, 0.01901708027304142, 679156.6916577134), None),
                ("omega", (4, 1, 12, 4.58036e-5, 0.2536), None),
                ("omega", (15, 7, 14, 2.5, 3.3), None),
                ("theta", (16, 16, 0.05), None),
                ("theta", (8, 16, 1e-6), None),
                ("theta", (16, 16, 1e6), None),
                ("theta", (1, 1, 1.0), None),
                # extreme low SNR, where T_0 ~ 1 / b is tiny: T_0 must keep
                # its own exponent, a fixed-point T_0 loses every digit
                ("theta", (16, 16, 1e-300), "0x1.56e1fc2f8f359p-989"),
                # m n x to leading order, 16 times the (16, 16) value; both
                # ends of an exact enclosure round to this pin
                ("theta", (64, 64, 1e-300), "0x1.56e1fc2f8f359p-985"),
                ("omega", (6, 3, 12, 1e-200, 2.0), "0x1.4aacb41faa0f9p-658"),
                ("omega", (4, 1, 3, 1e-300, 3.0), "0x1.4173dc6c96424p-992"),
            ]
        ],
    )
    def test_doubled_first_precision_agrees(self, monkeypatch, quantity, args, pinned):
        # the precision rule's claim: what passes at P bits is what 2P bits give
        at_p = evaluate(quantity, args)
        assert pinned is None or at_p.hex() == pinned
        real = closed_form._first_prec
        monkeypatch.setattr(closed_form, "_first_prec", lambda folds: 2 * real(folds))
        assert evaluate(quantity, args) == at_p

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta, expect",
        [
            # regression values, recorded with one mp.det per determinant
            (16, 8, 16, 1.0, 1 + 1.5e-6, 35.89327985940053),
            (16, 8, 16, 1e6, 1e6, 360.42856680837974),
            (16, 15, 16, 1e-3, 1e3, 3.028040468252614),
            (16, 1, 16, 1e6, 1e-6, 49.456003963990895),
            (12, 6, 12, 3.0, 0.7, 33.09089288524727),
            (16, 8, 5, 2.0, 3.0, 19.83216375288103),
            # a back substitution loses more digits here than det R0 shows
            (6, 2, 16, 12875.740403196525, 7.538442576337261e-06, 27.588690507696622),
            (8, 7, 8, 0.01901708027304142, 679156.6916577134, 12.311342791644662),
        ],
    )
    def test_pinned_values(self, n_a, n_b, n_e, alpha, beta, expect):
        c = cfg(n_a, n_b, n_e, alpha=alpha, beta=beta, gamma=1.0)
        assert omega(c) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta, expect",
        [
            # low SNR: the E1 ladder's forward recursion amplifies its
            # rounding error by mu^t / t!, mu = 1/alpha; pinned values are
            # the same expansion at a fixed 600 digits in every stage
            (4, 1, 12, 4.58036e-5, 0.2536, 0.0009675926106779395),
            (3, 2, 13, 6.3375e-6, 1.5947e-6, 0.00016476729997582656),
            (3, 1, 8, 0.0010882990232664524, 0.11508514164019013, 0.010664602543290257),
        ],
    )
    def test_low_snr(self, n_a, n_b, n_e, alpha, beta, expect):
        c = cfg(n_a, n_b, n_e, alpha=alpha, beta=beta, gamma=1.0)
        value = omega(c)
        assert value == pytest.approx(expect, rel=1e-13)
        profile = [alpha] * n_b + [alpha * beta] * (n_a - n_b)
        est = mc_logdet_oracle(n_e, n_a, profile, 200_000, seed=11)
        assert abs(value - est.mean) <= 3.0 * est.stderr
        lower, upper = average_rate_bounds(c)
        assert lower <= average_secrecy_rate(c) <= upper


class TestAverageSecrecyRate:
    def test_equal_ratio_identity(self):
        # at beta = 1 omega is theta(n_e, n_a, alpha), so the rate
        # is the three published sums bob + AN - that theta, added at 600
        # digits and rounded once
        c = cfg(6, 3, 4, alpha=2.0, beta=1.0, gamma=3.0)
        assert average_secrecy_rate(c) == rate_reference(c)[0]

    def test_matches_mc_unclamped(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        est = mc_average_secrecy_rate(c, 100_000, seed=17, clamp=False)
        assert abs(average_secrecy_rate(c) - est.mean) <= 3.0 * est.stderr

    def test_nonincreasing_in_eavesdropper_size(self):
        vals = [
            average_secrecy_rate(cfg(6, 3, n_e, alpha=2.0, beta=0.5, gamma=2.0))
            for n_e in (1, 2, 4, 6, 8, 10, 12)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_snr(self):
        assert average_secrecy_rate(cfg(6, 3, 4, alpha=0.0, beta=0.5, gamma=2.0)) == 0.0


class TestBounds:
    def test_sandwich_on_fig3_style_sweep(self):
        for n_e in range(1, 9):
            c = cfg(4, 3, n_e, alpha=2.0, beta=10 ** 0.1, gamma=10 ** 0.6)
            lower, upper = average_rate_bounds(c)
            exact = average_secrecy_rate(c)
            assert lower <= exact <= upper
            assert upper - lower >= 0.0

    def test_equal_ratio_collapse(self):
        c = cfg(5, 2, 3, alpha=1.5, beta=1.0, gamma=2.0)
        lower, upper = average_rate_bounds(c)
        exact = average_secrecy_rate(c)
        assert upper - lower <= 1e-9
        assert lower == pytest.approx(exact, abs=1e-9)

    def test_zero_snr(self):
        assert average_rate_bounds(cfg(4, 2, 2, alpha=0.0, beta=2.0, gamma=1.0)) == (
            0.0,
            0.0,
        )

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.5, max_value=8.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_sandwich_random(self, n_a, n_b, n_e, alpha, beta, gamma):
        if n_b >= n_a:
            n_b = n_a - 1
        c = cfg(n_a, n_b, n_e, alpha, beta, gamma)
        lower, upper = average_rate_bounds(c)
        exact = average_secrecy_rate(c)
        tol = 1e-9 * max(1.0, abs(exact))
        assert lower <= exact + tol
        assert exact <= upper + tol

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sandwich_across_decades(self, n_a, n_b, n_e, log_alpha, log_beta):
        # every shape up to n = 16, alpha and beta log-uniform over
        # 1e-6..1e6, low SNR included
        c = cfg(n_a, min(n_b, n_a - 1), n_e, 10.0**log_alpha, 10.0**log_beta, 1.0)
        lower, upper = average_rate_bounds(c)
        exact = average_secrecy_rate(c)
        assert lower <= exact + 1e-12
        assert exact <= upper + 1e-12

    def test_order_holds_without_slack_near_beta_one(self):
        # omega reads its levels as theta reads its scale, so it lies between
        # the single-group values at the two scales; the rate and each bound
        # are one correctly rounded sum, and rounding is monotone, so the
        # order is exact. 400 shapes, beta = 1 +- k 2^-52
        rng = random.Random(3)
        for _ in range(400):
            n_a = rng.randint(2, 16)
            n_b, n_e = rng.randint(1, n_a - 1), rng.randint(1, 16)
            alpha = 10 ** rng.uniform(-1, 2)
            for k in (1, 2, 3, 8, 64, 1024):
                for beta in (1 + k * 2**-52, 1 - k * 2**-52):
                    rep = rate_report(cfg(n_a, n_b, n_e, alpha, beta, 1.0))
                    assert rep.lower <= rep.exact <= rep.upper, (n_a, n_b, n_e, alpha, beta)
        # when omega read 1/alpha and 1/(alpha beta) as rounded doubles,
        # this config's exact rate fell 32 ulps below both bounds; each
        # value is the 600-digit sum rounded once
        c = cfg(16, 1, 15, 54.03541800078337, 1 + 3 * 2**-52, 1.0)
        exact, lower, upper, _ = rate_reference(c)
        assert lower < exact < upper
        assert average_secrecy_rate(c) == exact
        assert average_rate_bounds(c) == (lower, upper)


class TestBobCapacityAndLeakage:
    def test_bob_zero_snr(self):
        assert bob_capacity(cfg(6, 3, 4, alpha=0.0, beta=1.0, gamma=5.0)) == 0.0

    def test_bob_matches_oracle(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=1.0, gamma=2.0)
        est = mc_logdet_oracle(3, 6, 4.0, 100_000, seed=23)
        assert abs(bob_capacity(c) - est.mean) <= 3.0 * est.stderr

    def test_bob_dominates_secrecy_rate(self):
        for beta in (0.4, 1.0, 2.5):
            c = cfg(6, 3, 5, alpha=3.0, beta=beta, gamma=1.7)
            assert bob_capacity(c) >= average_secrecy_rate(c)

    def test_leakage_zero_snr(self):
        assert eve_leakage_upper_bound(cfg(6, 3, 3, alpha=0.0, beta=2.0, gamma=1.0)) == 0.0

    def test_leakage_nonnegative_grid(self):
        for n_e in (1, 2, 3, 5, 8):
            for alpha in (0.3, 2.0, 30.0):
                for beta in (0.3, 1.0, 4.0):
                    c = cfg(6, 3, n_e, alpha=alpha, beta=beta, gamma=1.0)
                    assert eve_leakage_upper_bound(c) >= 0.0

    def test_leakage_damping_that_overflows_is_a_domain_error(self):
        # 1 + alpha n_b past the largest double would make the bound inf
        # for a finite true value
        with pytest.raises(DomainError) as exc:
            eve_leakage_upper_bound(cfg(6, 3, 4, alpha=1e308, beta=1e-10, gamma=1.0))
        assert str(exc.value) == "1 + alpha * n_b must be finite, got inf"

    def test_leakage_vanishes_with_strong_noise(self):
        c = cfg(6, 3, 3, alpha=1e3, beta=1e3, gamma=1.0)
        assert eve_leakage_upper_bound(c) <= 0.05

    @pytest.mark.parametrize("alpha", [1e-6, 1e-10, 1e-14, 1e-200])
    def test_leakage_at_low_snr_within_an_ulp(self, alpha):
        # n_e ln(1 + alpha n_b) by log1p: 1 + alpha n_b as a double lost
        # the digits of alpha n_b (relative errors 8e-12 to 8e-4, and 0.0
        # at 1e-200). The log is mpmath's, the drop in theta an exact
        # enclosure at the program's two scales
        c = cfg(6, 3, 4, alpha=alpha, beta=2.0, gamma=1.0)
        ab = c.alpha * c.beta
        # the published A_j are stated for m <= n: (n_e, n_a - n_b) ordered
        shape = sorted((c.n_e, c.n_a - c.n_b))
        lo_damped, hi_damped = theta_enclosure(*shape, ab / (1.0 + alpha * c.n_b))
        lo, hi = theta_enclosure(*shape, ab)
        assert float(lo_damped - hi) == float(hi_damped - lo)
        drop = (lo_damped - hi + hi_damped - lo) / 2
        with mp.workdps(60):
            want = c.n_e * mp.log1p(mp.mpf(alpha) * c.n_b)
            want += mp.mpf(drop.numerator) / drop.denominator
            got = eve_leakage_upper_bound(c)
            assert abs(got - want) <= 2**-52 * want


@pytest.mark.parametrize(
    "call, scales, product",
    [
        pytest.param(call, scales, product, id=f"{call.__name__}-{product.replace(' * ', '-')}")
        for scales, product, calls in [
            # bob_capacity reads no beta, the leakage bound no gamma
            ((1e200, 1e200, 1.0), "alpha * beta", (eve_leakage_upper_bound,)),
            ((1e200, 1.0, 1e200), "alpha * gamma", (bob_capacity,)),
        ]
        for call in (average_secrecy_rate, average_rate_bounds, rate_report, *calls)
    ],
)
def test_overflowing_product_is_named(call, scales, product):
    # the message names the product that overflows, not an argument the
    # caller never passed
    with pytest.raises(DomainError) as exc:
        call(cfg(6, 3, 4, *scales))
    assert str(exc.value) == f"{product} must be finite and >= 0, got inf"


def crossing_gammas(n_a, n_b, n_e, alpha, beta):
    """The adjacent doubles gamma_lo < gamma_hi between which the exact rate turns positive.

    The rate grows with gamma, and each value is correctly rounded, so
    its sign is monotone in gamma too: bisection on the bit patterns of
    the positive doubles from 2^-100 to 2^400.
    """
    def bits(g):
        return struct.unpack("<q", struct.pack("<d", g))[0]

    def double(i):
        return struct.unpack("<d", struct.pack("<q", i))[0]

    lo, hi = bits(2.0**-100), bits(2.0**400)
    assert average_secrecy_rate(cfg(n_a, n_b, n_e, alpha, beta, double(lo))) < 0.0
    assert average_secrecy_rate(cfg(n_a, n_b, n_e, alpha, beta, double(hi))) > 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if average_secrecy_rate(cfg(n_a, n_b, n_e, alpha, beta, double(mid))) > 0.0:
            hi = mid
        else:
            lo = mid
    return double(lo), double(hi)


class TestZeroCrossing:
    # (12,4,12), alpha 10, beta 3: the rate turns positive just below this
    # gamma. The three terms, each rounded to a double and then subtracted,
    # gave -7.105e-15 here, so the clamped rate read 0
    CROSSING = cfg(12, 4, 12, 10.0, 3.0, 0.20814001408996496)

    def test_sign_at_the_crossing(self):
        want = rate_reference(self.CROSSING)
        assert want[0] > 0.0
        row = run_point(self.CROSSING, ["exact", "lower", "upper"])
        assert (row["exact"], row["lower"], row["upper"]) == want[:3]
        assert row["exact_clamped"] == row["exact"] > 0.0

    def test_drawn_crossings_match_the_reference(self):
        # about 20 seeded shapes: at the crossing gamma and its float
        # neighbours, the rate and its bounds are each the 600-digit sum
        # rounded once, so the rate's sign is the true sign
        rng = random.Random(11)
        for _ in range(20):
            n_a = rng.randint(2, 16)
            n_b, n_e = rng.randint(1, n_a - 1), rng.randint(1, 16)
            alpha, beta = 10 ** rng.uniform(-1, 2), 10 ** rng.uniform(-1, 1)
            lo, hi = crossing_gammas(n_a, n_b, n_e, alpha, beta)
            eve = omega_sum(cfg(n_a, n_b, n_e, alpha, beta, 1.0))
            for gamma in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, math.inf)):
                c = cfg(n_a, n_b, n_e, alpha, beta, gamma)
                rep = rate_report(c)
                got = (rep.exact, rep.lower, rep.upper, rep.bob_capacity)
                assert got == rate_reference(c, omega=eve), c
            assert rate_report(cfg(n_a, n_b, n_e, alpha, beta, lo)).exact <= 0.0


class TestRateReport:
    def test_fields_consistent(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        rep = rate_report(c)
        assert rep.lower <= rep.exact <= rep.upper
        assert rep.exact == average_secrecy_rate(c)
        assert rep.bob_capacity == bob_capacity(c)
        assert rep.bob_capacity >= rep.exact

    def test_each_theta_term_computed_once(self, monkeypatch):
        # the record's four sums hold six distinct terms (bob, AN, omega's
        # two levels, theta_hat at each scale) on three levels, 1/(alpha
        # gamma), 1/alpha and 1/(alpha beta): each level folds once, each
        # term in its level's pass once, and the one attempt rounds T_0
        # once per level
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        folds = counting(monkeypatch, "_fold")
        t0s = counting(monkeypatch, "_exp_e1")
        attempts = counting(monkeypatch, "_fold_sums")
        rep = rate_report(c)
        assert (len(folds), len(attempts)) == (3, 1)
        # bob alone at 1/4; omega's data level and theta_hat at 1/2; AN,
        # omega's noise level and theta_hat at 1
        assert sorted((b, len(vectors)) for b, vectors in folds) == [((1, 1), 3), ((1, 2), 2), ((1, 4), 1)]
        assert sorted(args[:2] for args in t0s) == [(1, 1), (1, 2), (1, 4)]
        assert (rep.exact, rep.lower, rep.upper, rep.bob_capacity) == rate_reference(c)

    def test_bounds_share_theta_at_beta_one(self, monkeypatch):
        # at beta = 1 omega's two levels are one, so the rate and both
        # bounds are the one sum bob + AN - theta(n_e, n_a, alpha): three
        # terms on two levels, one fold pass per level, and three equal
        # values
        c = cfg(6, 3, 4, alpha=2.0, beta=1.0, gamma=2.0)
        want = rate_reference(c)
        assert want[0] == want[1] == want[2]
        folds = counting(monkeypatch, "_fold")
        t0s = counting(monkeypatch, "_exp_e1")
        rep = rate_report(c)
        assert (len(folds), sum(len(vectors) for _, vectors in folds), len(t0s)) == (2, 3, 2)
        assert (rep.exact, rep.lower, rep.upper, rep.bob_capacity) == want
        row = run_point(c, ["exact", "lower", "upper"])
        assert (len(folds), sum(len(vectors) for _, vectors in folds), len(t0s)) == (4, 6, 4)
        assert (row["exact"], row["lower"], row["upper"]) == want[:3]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.0 + 1e-7])
    def test_memo_is_invisible(self, monkeypatch, beta):
        # the memos left are theta's weights per shape, built on first use
        # by the same diagonal sums as omega's, and the constants of T_0:
        # cold, warm, or warmed through the mirrored shapes they give the
        # 600-digit reference's bits, and the argument checks run before
        # them, so a bad argument raises either way. (6,3,9) has n_e > n_a,
        # where the rungs below n_e - n_a share one weight, and in (8,6,2)
        # n_e < m - 1, where no power of A is common to a level's e_j
        for shape in ((6, 3, 4), (6, 3, 9), (8, 6, 2)):
            c = cfg(*shape, alpha=2.0, beta=beta, gamma=2.0)
            want = [v.hex() for v in rate_reference(c)]

            def report():
                rep = rate_report(c)
                return [v.hex() for v in (rep.exact, rep.lower, rep.upper, rep.bob_capacity)]

            def row():
                got = run_point(c, ["exact", "lower", "upper", "asymptotic"])
                return [got[k].hex() for k in ("exact", "lower", "upper")] + want[3:]

            for call in (report, row):
                closed_form._theta_coeffs.cache_clear()
                monkeypatch.setattr(closed_form, "_CONSTANTS", {})
                assert call() == want, shape
                assert call() == want, shape
                closed_form._theta_coeffs.cache_clear()
                for m, n in ((c.n_a, c.n_b), (c.n_a - c.n_b, c.n_e), (c.n_a, c.n_e)):
                    theta(m, n, 1.0)
                assert closed_form._theta_coeffs.cache_info().currsize == 3
                assert call() == want, shape
        theta(2, 3, 1.0)
        theta(3, 3, 1.0)
        with pytest.raises(DomainError):
            theta(0, 3, 1.0)
        with pytest.raises(DomainError):
            theta(2, 3, -1.0)

    def test_fields_equal_the_separate_calls(self):
        # one evaluation of the record gives, bit for bit, what each
        # function gives on its own, at beta = 1, at alpha = 0 and across
        # decades
        configs = [cfg(6, 3, 4, 2.0, 1.0, 2.0), cfg(6, 3, 4, 0.0, 0.5, 2.0)]
        rng = random.Random(5)
        for n_a, n_b, n_e, alpha, beta in reference_configs(27, 40):
            configs.append(cfg(n_a, n_b, n_e, alpha, beta, 10 ** rng.uniform(-3, 3)))
        for c in configs:
            rep = rate_report(c)
            want = (average_secrecy_rate(c), *average_rate_bounds(c), bob_capacity(c))
            assert [v.hex() for v in (rep.exact, rep.lower, rep.upper, rep.bob_capacity)] == [
                v.hex() for v in want
            ], c

    @pytest.mark.parametrize("alpha, beta", [(2.0, 1.0 + 1e-7), (2.0, 1.0 - 1e-7), (0.0, 1.0)])
    def test_near_beta_one_matches_separate_terms(self, alpha, beta):
        # near but off beta = 1 the bounds take other scales and omega its
        # two-level sum, so each rate is computed on its own
        c = cfg(6, 3, 4, alpha=alpha, beta=beta, gamma=2.0)
        want = (average_secrecy_rate(c), *average_rate_bounds(c))
        rep = rate_report(c)
        row = run_point(c, ["exact", "lower", "upper"])
        assert (rep.exact, rep.lower, rep.upper) == want
        assert (row["exact"], row["lower"], row["upper"]) == want

    @pytest.mark.parametrize(
        "outputs, folds, two_level",
        [
            (["exact"], 4, 1),
            (["lower"], 4, 0),
            (["upper", "lower"], 4, 0),
            (["exact", "upper", "asymptotic"], 6, 1),
        ],
    )
    def test_run_point_builds_only_what_is_asked(self, monkeypatch, outputs, folds, two_level):
        # the exact rate alone folds bob, AN and omega's two levels; the
        # bounds alone fold bob, AN and theta_hat at both scales, and build
        # no two-level weights; each asks for all three levels, 1/4, 1/2
        # and 1, one fold pass each
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        want = dict(zip(("exact", "lower", "upper"), rate_reference(c)))
        fold_calls = counting(monkeypatch, "_fold")
        weights = counting(monkeypatch, "_ladder_weights")
        row = run_point(c, outputs)
        assert len(fold_calls) == 3
        assert sum(len(vectors) for _, vectors in fold_calls) == folds
        assert sum(len(args[2]) == 2 for args in weights) == two_level
        assert [row[name] for name in outputs if name in want] == [
            want[name] for name in outputs if name in want
        ]

    @pytest.mark.parametrize("n_a, n_b, n_e", [(24, 12, 24), (32, 8, 40)])
    def test_past_16(self, n_a, n_b, n_e):
        # the rate and its bounds take any antenna count: each field is the
        # reference's sum at 1200 digits rounded once, the order holds, and
        # the unclamped MC mean agrees
        c = cfg(n_a, n_b, n_e, alpha=2.0, beta=0.5, gamma=2.0)
        rep = rate_report(c)
        assert rep.lower <= rep.exact <= rep.upper
        assert (rep.exact, rep.lower, rep.upper, rep.bob_capacity) == rate_reference(c, dps=1200)
        est = mc_average_secrecy_rate(c, 20_000, seed=28, clamp=False)
        assert abs(rep.exact - est.mean) <= 3.0 * est.stderr

    def test_bounds_alone_need_no_omega(self):
        # alpha * beta underflows to 0 with alpha > 0: omega has no second
        # level and raises, while the bounds, which never use it, have
        # their values
        c = cfg(6, 3, 4, alpha=1e-200, beta=1e-200, gamma=1.0)
        lower, upper = average_rate_bounds(c)
        assert lower <= upper
        row = run_point(c, ["lower", "upper"])
        assert (row["lower"], row["upper"]) == (lower, upper)
        for call in (average_secrecy_rate, rate_report, lambda c: run_point(c, ["exact"])):
            with pytest.raises(DomainError, match=r"^alpha \* beta must be finite and > 0"):
                call(c)

    def test_a_retry_doubles_every_level_precision(self, monkeypatch):
        # only the lower bound retries; at 1/alpha omega's weights, which
        # grow as beta nears 1, set the first attempt's precision, and the
        # retry still rounds each of the bound's levels at twice its bits
        c = cfg(16, 8, 16, alpha=2.0, beta=0.9, gamma=2.0)
        t0s = counting(monkeypatch, "_exp_e1")
        real, starts = closed_form._fold_sums, []

        def zeroing(sums, scale):
            starts.append(len(t0s))
            out = list(real(sums, scale))
            if scale == 1:
                out[1] = (0, *out[1][1:])  # the lower bound
            return out

        monkeypatch.setattr(closed_form, "_fold_sums", zeroing)
        rep = rate_report(c)
        assert len(starts) == 2
        first = {args[:2]: args[2] for args in t0s[: starts[1]]}
        second = {args[:2]: args[2] for args in t0s[starts[1] :]}
        assert second == {b: 2 * first[b] for b in second}
        assert (rep.exact, rep.lower, rep.upper, rep.bob_capacity) == rate_reference(c)


class TestSystemConfigValidation:
    def test_accepts_valid(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        assert c.p_u == pytest.approx(2.0 * 2.0 * 3)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            cfg(3, 3, 2, alpha=1.0, beta=1.0, gamma=1.0)  # needs n_b < n_a
        with pytest.raises(ValueError):
            cfg(3, 0, 2, alpha=1.0, beta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            cfg(3, 2, 0, alpha=1.0, beta=1.0, gamma=1.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            cfg(4, 2, 2, alpha=-1.0, beta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            cfg(4, 2, 2, alpha=1.0, beta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            cfg(4, 2, 2, alpha=1.0, beta=1.0, gamma=math.inf)


RATIOS = AsymptoticRatios(beta1=1.5, beta2=2.0, beta3=0.75, p_u=6.0, p_v=6.0, gamma=1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cfg(4, 2, 2, -1.0, 1.0, 1.0), "alpha must be finite and >= 0, got -1.0"),
        (lambda: cfg(4, 2, 2, 1.0, 0.0, 1.0), "beta must be finite and > 0, got 0.0"),
        (lambda: cfg(4, 2, 2, 1.0, 1.0, math.inf), "gamma must be finite and > 0, got inf"),
        (lambda: theta(2, 3, math.nan), "x must be finite and >= 0, got nan"),
        (lambda: f_func(-1, 2.0), "x must be finite and >= 0, got -1.0"),
        (lambda: f_func(1.0, 0), "y must be finite and > 0, got 0.0"),
        (lambda: phi_func(math.inf, 2.0), "x must be finite and >= 0, got inf"),
        (lambda: phi_func(1.0, -0.0), "y must be finite and > 0, got -0.0"),
        (lambda: delta_highsnr(0.0, RATIOS), "x must be finite and > 0, got 0.0"),
        (
            lambda: critical_eve_antennas(6, 3, math.nan, 1.0, 1.0),
            "alpha must be finite and > 0, got nan",
        ),
        (
            lambda: critical_eve_antennas(6, 3, 1.0, -2, 1.0),
            "beta must be finite and > 0, got -2.0",
        ),
        (
            lambda: critical_eve_antennas(6, 3, 1.0, 1.0, -math.inf),
            "gamma must be finite and > 0, got -inf",
        ),
        (lambda: cfg(4, 2, 2, 10**400, 1.0, 1.0), "alpha must be finite and >= 0, got inf"),
    ],
)
def test_finite_argument_messages(call, message):
    # the twelve checks of a finite nonnegative (or positive) argument, and
    # an int past the double range, which rounds to inf
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
