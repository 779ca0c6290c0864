"""High-precision references for the closed forms, shared by the test modules.

Each reference shares neither the weights nor the fold nor the precision
rule with ``anmimo.closed_form``: theta is the paper's published sum
dotted with the E1 ladder by forward recursion from ``mp.e1``, and omega
is the Cramer sum tr(R0^-1 C) of its determinant expansion. A rate or a
bound is the difference of these terms summed at dps digits (600 unless
the caller raises it; the tests use 1200 past n = 16) and rounded to a
double once.
"""

import functools
import math
from fractions import Fraction
from itertools import accumulate

import mpmath as mp


@functools.lru_cache(maxsize=None)
def published_coeffs(m, n):
    """The A_j of theta(m, n, x) = sum_j A_j exp(b) E_{j+1}(b), b = 1/x, as Fractions.

    The paper's triple sum, term by term. Each term weights the tail sum
    sum_{j <= n - m + i} exp(b) E_{j+1}(b), so the terms are gathered by
    their last rung and A_j is the suffix sum over last rungs >= j. The
    A_j alternate in sign and reach ~1e20 by (16, 16).
    """
    tails = [Fraction(0)] * (n + m - 1)
    for k in range(m):
        for ell in range(k + 1):
            for i in range(2 * ell + 1):
                num = (
                    (-1) ** i
                    * math.factorial(2 * ell)
                    * math.factorial(n - m + i)
                    * math.comb(2 * (k - ell), k - ell)
                    * math.comb(2 * (ell + n - m), 2 * ell - i)
                )
                den = (
                    2 ** (2 * k - i)
                    * math.factorial(ell)
                    * math.factorial(i)
                    * math.factorial(n - m + ell)
                )
                tails[n - m + i] += Fraction(num, den)
    return list(accumulate(reversed(tails)))[::-1]


@functools.lru_cache(maxsize=None)
def exp_e1(x, dps):
    """exp(b) E1(b), b = 1/x, at dps digits from mp.e1, cached for every ladder length."""
    with mp.workdps(dps):
        b = 1 / mp.mpf(x)
        return mp.exp(b) * mp.e1(b)


@functools.lru_cache(maxsize=None)
def exp_e1_ladder(x, count, dps=600):
    """exp(b) E_{j+1}(b), b = 1/x, for j < count at dps digits, by forward recursion from exp_e1.

    The recursion multiplies T_0's rounding error by up to b^j / j!. For
    x >= 1e-6 that is under 150 digits up to j = 30 (n <= 16), which 600
    digits absorb, and under 430 up to j = 95 (n <= 48), which needs the
    1200 digits the tests use past n = 16.
    """
    with mp.workdps(dps):
        b = 1 / mp.mpf(x)
        ts = [exp_e1(x, dps)]
        for j in range(1, count):
            ts.append((1 - b * ts[-1]) / j)
        return ts


def theta_sum(m, n, x, dps=600):
    """theta as the published A_j dotted with exp(b) E_{j+1}(b), an mpf at dps digits.

    The ladder is as long as the A_j, and the strict zip raises should the
    two ever differ in length.
    """
    if x == 0.0:
        return mp.mpf(0)
    coeffs = published_coeffs(m, n)
    with mp.workdps(dps):
        return mp.fsum(
            mp.mpf(a.numerator) / a.denominator * t
            for a, t in zip(coeffs, exp_e1_ladder(x, len(coeffs), dps), strict=True)
        )


def theta_by_published_sum(m, n, x, dps=600):
    """theta_sum rounded to a double: the reference for theta's exact fold."""
    return float(theta_sum(m, n, x, dps))


def eve_levels(n_a, n_b, alpha, beta):
    """omega's two levels (mu, multiplicity), the larger first.

    The levels are the exact reciprocals of the doubles alpha and
    alpha * beta, as Fractions.
    """
    data, noise = (1 / Fraction(alpha), n_b), (1 / Fraction(alpha * beta), n_a - n_b)
    return sorted((data, noise), reverse=True)


def cramer_matrices(n_a, n_b, n_e, alpha, beta):
    """R0, C and each row's (level, shift) of omega's expansion, at the current precision.

    A row of level mu and shift d holds the d-th derivatives at mu of the
    column functions phi! mu^-(phi+1), phi = n_e - p + k for k < p, then
    mu^j for j = n_a - p - 1 .. 0. Column k of C is column k of R0 scaled
    entrywise by the E1 tail sums sum_{t <= phi} exp(mu) E_{t+1}(mu), the
    E_{t+1} by their forward recursion from mp.e1. The exact levels are
    rounded to the working precision.
    """
    p = min(n_e, n_a)
    r0, c, labels = [], [], []
    for level, (mu, m) in enumerate(eve_levels(n_a, n_b, alpha, beta)):
        mu = mp.mpf(mu.numerator) / mu.denominator
        ts = [mp.exp(mu) * mp.e1(mu)]
        for t in range(1, n_e + m - 1):
            ts.append((1 - mu * ts[-1]) / t)
        tails = list(accumulate(ts))
        for d in range(m - 1, -1, -1):
            phis = range(n_e - p + d, n_e + d)
            row = [(-1) ** d * math.factorial(phi) / mu ** (phi + 1) for phi in phis]
            c.append([v * tails[phi] for v, phi in zip(row, phis)])
            r0.append(row + [
                math.perm(j, d) * mu ** (j - d) if j >= d else mp.mpf(0)
                for j in range(n_a - p - 1, -1, -1)
            ])
            labels.append((level, d))
    return mp.matrix(r0), mp.matrix(c), labels


def cramer_sum(n_a, n_b, n_e, alpha, beta, dps=600):
    """omega as the Cramer sum tr(R0^-1 C), from one inverse of R0, an mpf at dps digits."""
    with mp.workdps(dps):
        r0, c, _ = cramer_matrices(n_a, n_b, n_e, alpha, beta)
        inv = mp.inverse(r0)
        return mp.fsum(inv[k, j] * c[j, k] for k in range(c.cols) for j in range(c.rows))


def omega_by_cramer(n_a, n_b, n_e, alpha, beta, dps=600):
    """cramer_sum rounded to a double: the reference for omega's residue form.

    On every config it checks here, 600 digits gave the same double as
    1500.
    """
    return float(cramer_sum(n_a, n_b, n_e, alpha, beta, dps))


def omega_sum(cfg, dps=600):
    """omega(cfg) as an mpf: one level when alpha * beta == alpha, else the Cramer sum.

    The published sum is stated for m <= n, so the single level orders
    the eavesdropper's shape (n_e, n_a) itself.
    """
    if cfg.alpha * cfg.beta == cfg.alpha:
        return theta_sum(*sorted((cfg.n_e, cfg.n_a)), cfg.alpha, dps)
    return cramer_sum(cfg.n_a, cfg.n_b, cfg.n_e, cfg.alpha, cfg.beta, dps)


def rate_reference(cfg, dps=600, omega=None):
    """(exact, lower, upper, bob_capacity), each one sum at dps digits rounded once.

    The published sum is stated for m <= n, so the artificial-noise term
    and the bounds order their shapes, (n_e, n_a - n_b) and (n_e, n_a),
    here. omega, an mpf from omega_sum, saves its Cramer sum when only
    gamma changed.
    """
    noise, eve = sorted((cfg.n_e, cfg.n_a - cfg.n_b)), sorted((cfg.n_e, cfg.n_a))
    with mp.workdps(dps):
        if omega is None:
            omega = omega_sum(cfg, dps)
        bob = theta_sum(cfg.n_b, cfg.n_a, cfg.alpha * cfg.gamma, dps)
        shared = bob + theta_sum(*noise, cfg.alpha * cfg.beta, dps)
        scales = (cfg.alpha, cfg.alpha * cfg.beta)
        lower, upper = (
            shared - theta_sum(*eve, scale, dps)
            for scale in (max(scales), min(scales))
        )
        return tuple(float(v) for v in (shared - omega, lower, upper, bob))
