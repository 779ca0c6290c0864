"""Closed-form ergodic rate layer.

Heavy oracle agreement (10^6-trial Monte Carlo) lives in the acceptance
suite; here the same cross-checks run at reduced trial counts plus the
exact identities, degeneracy routing, and validation behavior.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anmimo import (
    AsymptoticRatios,
    DomainError,
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
from anmimo.closed_form import _det_and_cramer_diagonal


def cfg(n_a, n_b, n_e, alpha, beta, gamma):
    return SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)


def theta_by_recursion(m, n, x):
    """theta folded by the P_j, Q_j ladder recursion in Fractions, call by call.

    The reference for the cached polynomial fold: S_P and S_Q as sums of
    A_j p_j(b) and A_j q_j(b), with p_j, q_j rebuilt from their recursion.
    """
    if x == 0.0:
        return 0.0
    coeffs = closed_form._ladder_coeffs(m, n)
    b = 1 / Fraction(x)
    jmax = max(coeffs)
    p = [Fraction(0)] * (jmax + 1)
    q = [Fraction(0)] * (jmax + 1)
    q[0] = Fraction(1)
    for j in range(1, jmax + 1):
        p[j] = (1 - b * p[j - 1]) / j
        q[j] = -b * q[j - 1] / j
    s_p = sum(coeffs[j] * p[j] for j in coeffs)
    s_q = sum(coeffs[j] * q[j] for j in coeffs)
    if s_p == 0 and s_q == 0:
        return 0.0
    dps = 30 + max(closed_form._fraction_digits(s_p), closed_form._fraction_digits(s_q))
    with mp.workdps(dps):
        bm = mp.mpf(b.numerator) / mp.mpf(b.denominator)
        t0 = mp.exp(bm) * mp.e1(bm)
        val = (
            mp.mpf(s_p.numerator) / mp.mpf(s_p.denominator)
            + (mp.mpf(s_q.numerator) / mp.mpf(s_q.denominator)) * t0
        )
        return float(val)


def counting(monkeypatch, name):
    """Replace closed_form.<name> by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(closed_form, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closed_form, name, wrapper)
    return calls


def recording_dets(monkeypatch):
    """Record det R0 from each elimination of the determinant sum."""
    dets = []
    real = closed_form._det_and_cramer_diagonal

    def recording(*args):
        det, xkk = real(*args)
        dets.append(det)
        return det, xkk

    monkeypatch.setattr(closed_form, "_det_and_cramer_diagonal", recording)
    return dets


class TestTheta:
    def test_zero_snr(self):
        assert theta(3, 6, 0.0) == 0.0

    def test_single_antenna_is_exponential_integral(self):
        # E[ln(1 + x|g|^2)] = e^(1/x) E1(1/x) for unit-mean |g|^2; the
        # reference integrates the definition instead of calling E1
        for x in (0.3, 1.0, 2.0, 7.5):
            expect = float(mp.quad(lambda s: mp.log1p(x * s) * mp.exp(-s), [0, mp.inf]))
            assert theta(1, 1, x) == pytest.approx(expect, rel=1e-10)

    def test_against_mc_oracle_small(self):
        for m, n, x in ((1, 1, 2.0), (2, 3, 4.0)):
            est = mc_logdet_oracle(m, n, x, 100_000, seed=42)
            assert abs(theta(m, n, x) - est.mean) <= 3.0 * est.stderr

    def test_regression_values(self):
        # frozen against the 10^6-trial oracle runs
        assert theta(4, 6, 2.0) == pytest.approx(8.932187495166415, rel=1e-12)
        assert theta(3, 6, 1000.0) == pytest.approx(25.19261846768807, rel=1e-12)
        assert theta(3, 3, 1e6) == pytest.approx(42.21492489413397, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(3, 2, 1.0)  # m > n: caller must order the pair
        with pytest.raises(DomainError):
            theta(0, 2, 1.0)
        with pytest.raises(DomainError):
            theta(2, 17, 1.0)  # beyond the validated envelope
        with pytest.raises(DomainError):
            theta(2, 3, -0.5)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_polynomial_fold_matches_recursion(self, n):
        # the cached integer polynomials give the recursion's S_P and S_Q,
        # hence its working precision and its double, bit for bit
        for m in range(1, n + 1):
            for x in (1e-3, 0.05, 1.0, 37.5, 1e3):
                assert theta(m, n, x).hex() == theta_by_recursion(m, n, x).hex()
        # only integers stay cached
        assert not hasattr(closed_form._ladder_coeffs, "cache_info")
        for coeffs, den in closed_form._theta_coeffs(n, n):
            assert all(type(c) is int for c in coeffs + [den])

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_polynomial_fold_matches_recursion_at_drawn_x(self, m, extra, log_x):
        n = min(16, m + extra)
        x = 10.0**log_x
        assert theta(m, n, x).hex() == theta_by_recursion(m, n, x).hex()

    def test_envelope_boundary_finite(self):
        # largest supported size, stressed both at tiny and large scale
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
        [(6, 3, 4, 2.0), (16, 8, 16, 2.0), (4, 1, 12, 0.5)],
    )
    def test_across_the_equal_ratio_switch(self, n_a, n_b, n_e, alpha):
        # inside |beta - 1| < 1e-6 omega is the single-group theta; just
        # outside, the two-level expansion (each ordering of the levels)
        # must continue it to first order in the offset
        single = theta(min(n_e, n_a), max(n_e, n_a), alpha)
        for eps in (-0.999e-6, 0.999e-6):
            assert omega(cfg(n_a, n_b, n_e, alpha, 1.0 + eps, 1.0)) == single
        h = 1e-4
        slope = (
            omega(cfg(n_a, n_b, n_e, alpha, 1.0 + h, 1.0))
            - omega(cfg(n_a, n_b, n_e, alpha, 1.0 - h, 1.0))
        ) / (2 * h)
        for eps in (-1.001e-6, 1.001e-6):
            value = omega(cfg(n_a, n_b, n_e, alpha, 1.0 + eps, 1.0))
            assert abs(value - single - eps * slope) <= 1e-10

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            # 1/(alpha beta) underflows to 0, 1/alpha overflows to inf, or
            # only 1/(alpha beta) overflows (an infinite level, once a nan)
            (1e200, 1e200, "need mu1 > mu2 > 0, got mu1=1e-200, mu2=0.0"),
            (1e-310, 2.0, "need mu1 > mu2 > 0, got mu1=inf, mu2=inf"),
            (1e-300, 1e-10, "need mu1 > mu2 > 0, got mu1=inf, mu2=9.999999999999999e+299"),
            # alpha beta itself underflows to 0 (once a ZeroDivisionError)
            (1e-200, 1e-200, "need mu1 > mu2 > 0, got mu1=inf, mu2=1e+200"),
            (5e-324, 0.5, "need mu1 > mu2 > 0, got mu1=inf, mu2=inf"),
        ],
    )
    def test_levels_outside_float_range(self, alpha, beta, message):
        with pytest.raises(DomainError) as exc:
            omega(cfg(6, 3, 4, alpha, beta, 1.0))
        assert str(exc.value) == message

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
        # sum_k det(R_k), R_k = R0 with column k replaced by c_k
        rng = random.Random(3)
        n, p = 6, 4
        with mp.workdps(50):
            r0 = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
            cols = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(p)]
            want = mp.mpf(0)
            for k, c in enumerate(cols):
                r = mp.matrix(r0)
                for i in range(n):
                    r[i, k] = c[i]
                want += mp.det(r)
            rows = [row + [c[i] for c in cols] for i, row in enumerate(r0)]
            det, xkk = _det_and_cramer_diagonal(rows, n, p)
            assert abs(det * mp.fsum(xkk) - want) <= mp.mpf(10) ** -40 * abs(want)

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
    def test_closed_form_det_r0(self, monkeypatch, n_a, n_b, n_e, alpha, beta):
        # ln|det R0| before any elimination equals the elimination's det,
        # and its sign is the shape's (-1)^(n_e (n_a - p)): sign -1 at
        # (16, 8, 5) and (12, 7, 3)
        levels = counting(monkeypatch, "_first_dps")
        dets = recording_dets(monkeypatch)
        omega(cfg(n_a, n_b, n_e, alpha, beta, 1.0))
        (_, _, mu1, m1, mu2, m2), = levels
        assert (mu1 == 1.0 / alpha) == (beta > 1.0)
        want = float(mp.log(abs(dets[-1])))
        got = closed_form._log_det_r0(n_e, min(n_e, n_a), mu1, m1, mu2, m2)
        assert abs(got - want) <= 1e-10
        assert mp.sign(dets[-1]) == (-1) ** (n_e * (n_a - min(n_e, n_a)))

    def test_det_r0_sign_depends_only_on_shape(self, monkeypatch):
        # omega is sum_k x_kk because the expansion's prefactor is exactly
        # 1 / det R0, sign included. det R0 is continuous in (mu1, mu2) and,
        # by its closed form (_log_det_r0), never zero on mu1 > mu2 > 0, so
        # its sign is fixed per shape and one level pair per level order
        # checks it
        dets = recording_dets(monkeypatch)
        for n_a in range(2, 9):
            for n_b in range(1, n_a):
                for n_e in range(1, 9):
                    want = (-1) ** (n_e * (n_a - min(n_e, n_a)))
                    for beta in (0.5, 2.0):
                        dets.clear()
                        omega(cfg(n_a, n_b, n_e, 1.0, beta, 1.0))
                        assert dets and mp.sign(dets[-1]) == want, (n_a, n_b, n_e, beta)

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta, eliminations",
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
            # the first precision sees only det R0. Here one det R_k loses
            # more: by 20 digits at high SNR (column p-1 carries the E1
            # tail sums in every row) and by 30 at low SNR (x_11 ~ 1e-30)
            (16, 8, 16, 1e6, 1e6, 2),
            (16, 15, 16, 1e-3, 1e3, 2),
        ],
    )
    def test_first_precision_settles(self, monkeypatch, n_a, n_b, n_e, alpha, beta, eliminations):
        calls = counting(monkeypatch, "_det_and_cramer_diagonal")
        omega(cfg(n_a, n_b, n_e, alpha, beta, 1.0))
        assert len(calls) == eliminations

    @pytest.mark.parametrize(
        "value",
        ["1e5000", "-1e5000", "1e-5000", "-1e-5000", "1", "-3.5", "0.1", "7e300", "2e-310"],
    )
    def test_log10_abs_matches_mpmath(self, value):
        # from the mantissa and exponent alone, also past double range
        with mp.workdps(50):
            v = mp.mpf(value)
            assert closed_form._log10_abs(v) == pytest.approx(
                float(mp.log10(abs(v))), rel=1e-15, abs=1e-15
            )
        assert closed_form._log10_abs(mp.mpf(0)) == -math.inf

    def test_float_audit_matches_working_precision(self):
        # the audit's float log10 losses against the same losses at working
        # precision: log10 of the product of squared row norms of R0 and of
        # each R_k (column k of R0 replaced by c_k), halved, minus
        # log10|det R_k|, with det R_k = det R0 x_kk
        rng = random.Random(14)
        shapes = []
        for _ in range(8):
            n_a = rng.randint(2, 16)
            shapes.append((n_a, rng.randint(1, n_a - 1), rng.randint(1, 16),
                           10 ** rng.uniform(-6, 6), 10 ** rng.uniform(-6, 6)))
        # levels 1e4 and 1e8: entries phi! / mu^(phi+1) reach 1e-376
        shapes.append((32, 16, 32, 1e-4, 1e-4))
        # levels 1e200 and 5e199: rows of R_k hundreds of digits below
        # the largest entry of their row in [R0 | C]
        shapes.append((6, 3, 12, 1e-200, 2.0))
        for n_a, n_b, n_e, alpha, beta in shapes:
            data, noise = (1.0 / alpha, n_b), (1.0 / (alpha * beta), n_a - n_b)
            (mu1, m1), (mu2, m2) = sorted((data, noise), reverse=True)
            p = min(n_e, n_a)
            with mp.workdps(40):
                a = closed_form._augmented_rows(n_a, n_e, mu1, m1, mu2, m2)
                det, xkk = _det_and_cramer_diagonal(a, n_a, p)
                got = closed_form._digit_losses(a, n_a, det, xkk)
                assert len(got) == p + 1
                if n_a == 32:
                    assert any(v and not 1e-308 < abs(v) < 1e308 for row in a for v in row)
                matrices = [[row[:n_a] for row in a]] + [
                    [row[:k] + [row[n_a + k]] + row[k + 1 : n_a] for row in a] for k in range(p)
                ]
                dets = [det] + [det * x for x in xkk]
                for k, (matrix, d_k) in enumerate(zip(matrices, dets)):
                    norms2 = [mp.fsum(v * v for v in row) for row in matrix]
                    want = mp.log(mp.fprod(norms2), 10) / 2 - mp.log(abs(d_k), 10)
                    assert abs(got[k] - float(want)) <= 1e-9, (n_a, n_b, n_e, alpha, beta, k)

    def test_zero_cramer_entry_retries(self, monkeypatch):
        # a zero x_kk makes det R_k zero: no correct digit, so the attempt
        # fails and the retry at higher precision gives the usual value
        c = cfg(6, 3, 12, 2.0, 0.5, 1.0)
        want = omega(c)
        calls = []
        real = closed_form._det_and_cramer_diagonal

        def zeroing(*args):
            det, xkk = real(*args)
            if not calls:
                xkk[1] = mp.mpf(0)
            calls.append(args)
            return det, xkk

        monkeypatch.setattr(closed_form, "_det_and_cramer_diagonal", zeroing)
        assert omega(c) == want
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "n_a, n_b, n_e, alpha, beta",
        [
            (6, 3, 12, 2.0, 0.5),
            (16, 8, 16, 1e6, 1e6),
            (16, 15, 16, 1e-3, 1e3),
            (16, 1, 16, 1e6, 1e-6),
            (8, 7, 8, 0.01901708027304142, 679156.6916577134),
            (4, 1, 12, 4.58036e-5, 0.2536),
            (15, 7, 14, 2.5, 3.3),
        ],
    )
    def test_doubled_first_precision_agrees(self, monkeypatch, n_a, n_b, n_e, alpha, beta):
        # the audit's claim: what passes at D digits is what 2D digits give
        c = cfg(n_a, n_b, n_e, alpha, beta, 1.0)
        at_d = omega(c)
        real = closed_form._first_dps
        monkeypatch.setattr(closed_form, "_first_dps", lambda *args: 2 * real(*args))
        assert omega(c) == pytest.approx(at_d, rel=1e-15, abs=0)

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
        c = cfg(6, 3, 4, alpha=2.0, beta=1.0, gamma=3.0)
        expect = (
            theta(c.n_b, c.n_a, c.alpha * c.gamma)
            + theta(c.n_min, c.n_max, c.alpha)
            - theta(c.n_hat_min, c.n_hat_max, c.alpha)
        )
        assert average_secrecy_rate(c) == expect

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
        # the whole theta envelope (n <= 16), alpha and beta log-uniform
        # over 1e-6..1e6, low SNR included
        c = cfg(n_a, min(n_b, n_a - 1), n_e, 10.0**log_alpha, 10.0**log_beta, 1.0)
        lower, upper = average_rate_bounds(c)
        exact = average_secrecy_rate(c)
        assert lower <= exact + 1e-12
        assert exact <= upper + 1e-12


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

    def test_leakage_vanishes_with_strong_noise(self):
        c = cfg(6, 3, 3, alpha=1e3, beta=1e3, gamma=1.0)
        assert eve_leakage_upper_bound(c) <= 0.05


class TestRateReport:
    def test_fields_consistent(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        rep = rate_report(c)
        assert rep.lower <= rep.exact <= rep.upper
        assert rep.exact == average_secrecy_rate(c)
        assert rep.bob_capacity == bob_capacity(c)
        assert rep.bob_capacity >= rep.exact

    def test_each_theta_term_computed_once(self):
        # bob_capacity is the legitimate-link term the exact rate and the
        # bounds share, so the record needs four distinct theta values; the
        # memo computes each once
        memo = closed_form._theta_value
        memo.cache_clear()
        rep = rate_report(cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0))
        assert memo.cache_info().misses == 4
        # and they are these four: asking for them again computes nothing
        for args in [(3, 6, 4.0), (3, 4, 1.0), (4, 6, 2.0), (4, 6, 1.0)]:
            theta(*args)
        assert memo.cache_info().misses == 4
        # the record is bitwise the one each term computed on its own gave
        assert rep.exact == float.fromhex("0x1.43af8dd439066p+2")
        assert rep.lower == float.fromhex("0x1.0089c72ab1fbap+2")
        assert rep.upper == float.fromhex("0x1.8e66ebd1e8c04p+2")
        assert rep.bob_capacity == float.fromhex("0x1.1b7592653e20ap+3")

    def test_bounds_share_theta_at_beta_one(self):
        # at beta = 1 both bounds are common - theta(n_hat_min, n_hat_max,
        # alpha), and omega's single-group branch takes the same value, so
        # the record's three rates are equal and need three theta values
        c = cfg(6, 3, 4, alpha=2.0, beta=1.0, gamma=2.0)
        memo = closed_form._theta_value
        memo.cache_clear()
        rep = rate_report(c)
        assert memo.cache_info().misses == 3
        for args in [(3, 6, 4.0), (3, 4, 2.0), (4, 6, 2.0)]:
            theta(*args)
        assert memo.cache_info().misses == 3
        assert rep.exact == rep.lower == rep.upper
        assert rep.exact == float.fromhex("0x1.611203aa81dc2p+2")
        assert rep.bob_capacity == float.fromhex("0x1.1b7592653e20ap+3")
        memo.cache_clear()
        row = run_point(c, ["exact", "lower", "upper"])
        assert memo.cache_info().misses == 3
        assert row["exact"] == row["lower"] == row["upper"] == rep.exact

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.0 + 1e-7])
    def test_memo_is_invisible(self, beta):
        # cold or warm, the memo gives the same bits, and the argument
        # checks run before it, so a bad argument raises either way
        c = cfg(6, 3, 4, alpha=2.0, beta=beta, gamma=2.0)
        outputs = ["exact", "lower", "upper", "asymptotic"]

        def report():
            rep = rate_report(c)
            return [v.hex() for v in (rep.exact, rep.lower, rep.upper, rep.bob_capacity)]

        def row():
            return [(k, v.hex()) for k, v in run_point(c, outputs).items()]

        for call in (report, row):
            closed_form._theta_value.cache_clear()
            cold = call()
            assert call() == cold
        theta(2, 3, 1.0)
        theta(3, 3, 1.0)
        with pytest.raises(DomainError):
            theta(3, 2, 1.0)
        with pytest.raises(DomainError):
            theta(2, 3, -1.0)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 1.0 + 1e-7), (2.0, 1.0 - 1e-7), (0.0, 1.0)])
    def test_near_beta_one_matches_separate_terms(self, alpha, beta):
        # inside omega's single-group band but off beta = 1 the bounds take
        # other scales, so each rate is computed on its own
        c = cfg(6, 3, 4, alpha=alpha, beta=beta, gamma=2.0)
        want = (average_secrecy_rate(c), *average_rate_bounds(c))
        rep = rate_report(c)
        row = run_point(c, ["exact", "lower", "upper"])
        assert (rep.exact, rep.lower, rep.upper) == want
        assert (row["exact"], row["lower"], row["upper"]) == want


class TestSystemConfigValidation:
    def test_accepts_valid(self):
        c = cfg(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        assert c.p_u == pytest.approx(2.0 * 2.0 * 3)
        assert c.n_min == 3 and c.n_max == 4
        assert c.n_hat_min == 4 and c.n_hat_max == 6

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
    ],
)
def test_finite_argument_messages(call, message):
    # the twelve checks of a finite nonnegative (or positive) argument
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
