"""Exact finite-antenna average rate formulas.

The central object is ``theta(m, n, x)``, the ergodic log-determinant

    theta(m, n, x) = E[ ln det(I_m + x W) ],   W = G G^H,  G m-by-n
                     standard complex Gaussian, m <= n,

evaluated by a finite sum over incomplete-gamma terms. From it the module
builds the average secrecy rate of null-space artificial-noise beamforming,
its two-sided bounds, the legitimate link's ergodic capacity, and an upper
bound on the eavesdropper leakage.

Numerical notes, since both closed forms are badly alternating:

* theta's coefficients are folded as exact rationals; the only floating
  step is one arbitrary-precision seed T0 = exp(b) E1(b), b = 1/x, at a
  working precision sized to the folded coefficient magnitude. Plain
  compensated double summation was measured losing all 16 digits already
  at m = n = 16, x = 0.05, hence the exact fold. The fold is two
  polynomials in b, cached per (m, n) with integer coefficients over a
  common denominator and evaluated exactly at b. Supported envelope is
  n <= 16 (hard error beyond). The last 64 values are memoized, so the
  exact rate and its bounds, which share theta terms, compute each once.
* The exponential prefactor of the published theta sum appears with a
  negative exponent; the m = n = 1 reduction E[ln(1+x|g|^2)] =
  exp(1/x) E1(1/x) and Monte Carlo both fix the true sign as positive,
  and that is what is implemented.
* omega's determinant sum divides by (mu1 - mu2)^(m1 m2) and cancels
  catastrophically as the two eigenvalue groups merge, so it runs at
  adaptive arbitrary precision with an a-posteriori digit-loss audit,
  retrying at higher precision until the audit passes. Its p determinants
  differ from one base matrix R0 in one column each, so one elimination
  of R0 and p back substitutions give all of them (matrix determinant
  lemma). The audit compares the Hadamard row-norm bound of R0 and of
  each R_k with its value, fails an attempt whose determinant is zero or
  above its own bound, and adds the cancellation across the k-sum. R0 is
  a confluent Vandermonde matrix, so det R0 and its Hadamard bound are
  known in closed form before any elimination; the first precision
  covers the digits det R0 loses against that bound. The expansion's
  prefactor is 1 / det R0, so omega is the Cramer sum sum_k x_kk. The
  audit needs only floats of its logs, so it runs in float log10 space
  from each mpf's mantissa and exponent, which holds far outside double
  range; the matrix entries share each level's powers mu^e.
  Near-degenerate inputs (|beta - 1| < 1e-6) route to the single-group
  branch instead.
* The E1 ladder T_t = exp(mu) E_{t+1}(mu) that fills omega's columns runs
  forward, which multiplies T_0's rounding error by up to mu^t / t!. At
  low SNR (mu = 1/alpha >> 1) that is up to hundreds of digits, which
  the ladder adds to its working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath as mp
from mpmath import libmp

from .errors import DomainError, NumericError, _finite, _integer

_THETA_MAX_N = 16
_BETA_DEGENERATE_TOL = 1e-6
_LOG10_2 = math.log10(2.0)


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts and channel/power parameters of the wiretap link.

    n_a transmit antennas, n_b legitimate receive antennas (n_b < n_a so
    a null space exists), n_e eavesdropper antennas. alpha is the
    eavesdropper-side SNR, beta the artificial-noise to data power ratio
    per dimension, gamma the eavesdropper-to-legitimate noise power
    ratio; all linear. alpha = 0 is the degenerate no-signal case and is
    accepted (every rate is exactly zero there).
    """

    n_a: int
    n_b: int
    n_e: int
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("n_a", "n_b", "n_e"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        if self.n_b >= self.n_a:
            raise DomainError(
                f"need n_b < n_a for a transmit null space, "
                f"got n_b={self.n_b}, n_a={self.n_a}"
            )
        for name in ("alpha", "beta", "gamma"):
            v = _finite(name, getattr(self, name), positive=name != "alpha")
            object.__setattr__(self, name, v)

    @property
    def p_u(self) -> float:
        return self.alpha * self.gamma * self.n_b

    @property
    def p_v(self) -> float:
        return self.alpha * self.beta * self.gamma * (self.n_a - self.n_b)

    @property
    def n_min(self) -> int:
        return min(self.n_e, self.n_a - self.n_b)

    @property
    def n_max(self) -> int:
        return max(self.n_e, self.n_a - self.n_b)

    @property
    def n_hat_min(self) -> int:
        return min(self.n_e, self.n_a)

    @property
    def n_hat_max(self) -> int:
        return max(self.n_e, self.n_a)


@dataclass(frozen=True)
class RateReport:
    """Exact rate with its sandwich bounds and the legitimate capacity.

    All values in nats; lower <= exact <= upper, with equality of all
    three at beta = 1.
    """

    exact: float
    lower: float
    upper: float
    bob_capacity: float


def _ladder_coeffs(m: int, n: int):
    """Exact rational coefficients A_j of the theta ladder sum.

    theta(m, n, x) = sum_j A_j T_j(1/x) with T_j(b) = exp(b) E_{j+1}(b).
    The A_j alternate in sign and reach ~1e20 by (16, 16); they are kept
    as Fractions so the fold below is exact.
    """
    coeffs = {}
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
                c = Fraction(num, den)
                for j in range(n - m + i + 1):
                    coeffs[j] = coeffs.get(j, Fraction(0)) + c
    return coeffs


def _integer_polynomial(coeffs):
    """Rational coefficients as (integer coefficients, common denominator)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@lru_cache(maxsize=None)
def _theta_coeffs(m: int, n: int):
    """S_P(b) and S_Q(b) of theta(m, n, 1/b) as integer polynomials in b.

    The ladder's p_j(b) = sum_{i<j} (-b)^i (j-1-i)! / j! and
    q_j(b) = (-b)^j / j! (see theta) fold against the A_j into
    S_P = sum_j A_j p_j and S_Q = sum_j A_j q_j, each kept as integer
    coefficients of b^0, b^1, .. over one common denominator. Only these
    integers are cached, not the A_j.
    """
    coeffs = _ladder_coeffs(m, n)
    s_p = [Fraction(0)] * (max(coeffs) + 1)
    s_q = [Fraction(0)] * (max(coeffs) + 1)
    for j, a_j in coeffs.items():
        w = a_j / math.factorial(j)
        s_q[j] += (-1) ** j * w
        for i in range(j):
            s_p[i] += (-1) ** i * math.factorial(j - 1 - i) * w
    return _integer_polynomial(s_p), _integer_polynomial(s_q)


def _horner(poly, num: int, den: int) -> Fraction:
    """An integer polynomial (see _integer_polynomial) at b = num / den, exactly."""
    coeffs, poly_den = poly
    acc, scale = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return Fraction(acc, poly_den * scale)


def _fraction_digits(f: Fraction) -> int:
    if f == 0:
        return 0
    return max(0, int((f.numerator.bit_length() - f.denominator.bit_length()) * _LOG10_2))


def theta(m: int, n: int, x: float) -> float:
    """Ergodic E[ln det(I_m + x W)] for an m-by-n complex Wishart W, in nats.

    Requires 1 <= m <= n <= 16 (the coefficient magnitude makes larger n
    meaningless in double output) and x >= 0; theta(m, n, 0) = 0.

    The ladder T_j(b) = exp(b) E_{j+1}(b), b = 1/x, satisfies
    T_j = (1 - b T_{j-1}) / j, so T_j = P_j + Q_j T_0 with exact-rational
    P_j, Q_j. Folding the A_j against P and Q leaves
    theta = S_P + S_Q T_0 with a single transcendental evaluated at a
    precision covering the (huge, cancelling) magnitudes of S_P and S_Q.
    S_P and S_Q are polynomials in b, cached per (m, n) with integer
    coefficients and evaluated exactly at b.
    """
    m = _integer("m", m, 1)
    n = _integer("n", n, 1)
    if m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n > _THETA_MAX_N:
        raise DomainError(
            f"supported envelope is n <= {_THETA_MAX_N}, got n={n}"
        )
    return _theta_value(m, n, _finite("x", x))


@lru_cache(maxsize=64)
def _theta_value(m: int, n: int, x: float) -> float:
    """theta(m, n, x) for checked arguments; one rate point needs at most five."""
    if x == 0.0:
        return 0.0

    b = 1 / Fraction(x)
    poly_p, poly_q = _theta_coeffs(m, n)
    s_p = _horner(poly_p, b.numerator, b.denominator)
    s_q = _horner(poly_q, b.numerator, b.denominator)
    if s_p == 0 and s_q == 0:
        return 0.0

    dps = 30 + max(_fraction_digits(s_p), _fraction_digits(s_q))
    with mp.workdps(dps):
        bm = mp.mpf(b.numerator) / mp.mpf(b.denominator)
        t0 = mp.exp(bm) * mp.e1(bm)
        val = (
            mp.mpf(s_p.numerator) / mp.mpf(s_p.denominator)
            + (mp.mpf(s_q.numerator) / mp.mpf(s_q.denominator)) * t0
        )
        return float(val)


def _exp_e1_ladder(mu, tmax):
    """T_t(mu) = exp(mu) E_{t+1}(mu) for t = 0..tmax, to the current precision.

    The forward recursion T_t = (1 - mu T_{t-1}) / t multiplies the rounding
    error of T_0 by up to mu^t / t!, which at low SNR (mu >> 1) is hundreds
    of digits, so the ladder runs with that many extra digits, plus
    log10(mu + tmax + 1) for the cancellation inside each step and a guard.
    """
    log10_mu = math.log10(mu)
    lost = max(
        t * log10_mu - math.lgamma(t + 1) / math.log(10) for t in range(tmax + 1)
    )
    with mp.workdps(mp.mp.dps + int(lost + math.log10(mu + tmax + 1)) + 10):
        out = [mp.exp(mu) * mp.e1(mu)]
        for t in range(1, tmax + 1):
            out.append((1 - mu * out[-1]) / t)
    return out


def _det_and_cramer_diagonal(a, n, p):
    """det(R0) and x_kk = (R0^{-1} c_k)_k for k < p, from the rows of [R0 | C].

    a holds the n rows of R0 (n columns) followed by the p columns c_k of
    C. One Gaussian elimination with partial pivoting over all n + p
    columns, then each back substitution stops at row k, the only entry
    of x_k the sum needs. A singular R0 gives (0, []).

    The arithmetic runs on the raw libmp values under the mpf objects, at
    the context's precision and rounding: the same calls the mpf
    operators and mp.fsum make, so every intermediate is bitwise the one
    mpf arithmetic gives, without an mpf object per operation. A
    difference is mpf_add with its subtract flag, which is all mpf_sub
    does.
    """
    prec, rnd = mp.mp._prec_rounding
    mpf_abs, mpf_gt, mpf_add, mpf_mul, mpf_div = (
        libmp.mpf_abs, libmp.mpf_gt, libmp.mpf_add, libmp.mpf_mul, libmp.mpf_div
    )
    a = [[v._mpf_ for v in row] for row in a]
    det = libmp.fone
    for col in range(n):
        # the first row of largest |entry|, as max() would pick it
        piv, big = col, mpf_abs(a[col][col], prec, rnd)
        for i in range(col + 1, n):
            v = mpf_abs(a[i][col], prec, rnd)
            if mpf_gt(v, big):
                piv, big = i, v
        if big == libmp.fzero:
            return mp.mpf(0), []
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = libmp.mpf_neg(det, prec, rnd)
        top = a[col]
        pivot = top[col]
        det = mpf_mul(det, pivot, prec, rnd)
        tail = top[col + 1 :]
        for row in a[col + 1 :]:
            f = mpf_div(row[col], pivot, prec, rnd)
            row[col + 1 :] = [
                mpf_add(r, mpf_mul(f, t, prec, rnd), prec, rnd, 1)
                for r, t in zip(row[col + 1 :], tail)
            ]
    xkk = []
    for k in range(p):
        x = [None] * n
        for i in range(n - 1, k - 1, -1):
            row = a[i]
            rest = libmp.mpf_sum(
                [mpf_mul(row[j], x[j], prec, rnd) for j in range(i + 1, n)], prec, rnd
            )
            x[i] = mpf_div(mpf_add(row[n + k], rest, prec, rnd, 1), row[i], prec, rnd)
        xkk.append(mp.make_mpf(x[k]))
    return mp.make_mpf(det), xkk


def _log10_abs(v) -> float:
    """log10|v| of an mpf from its raw (sign, man, exp, bc); -inf at zero.

    v is man * 2^exp exactly, so this holds far outside double range, where
    float(v) overflows or flushes to zero.
    """
    _, man, exp, _ = v._mpf_
    if not man:
        return -math.inf
    return math.log10(int(man)) + exp * _LOG10_2


def _log10_norm(logs) -> float:
    """log10 of the Euclidean norm of a vector given each entry's log10|entry|."""
    top = max(logs)
    return top + math.log10(math.fsum(10.0 ** (2 * (v - top)) for v in logs)) / 2


def _digit_losses(a, n, det, xkk):
    """Digits lost inside det R0 and each det R_k = det R0 x_kk, as floats.

    Each loss is log10 of the determinant's Hadamard row-norm bound over
    its value, in float log10 space from each mpf's mantissa and exponent
    (_log10_abs), so no mpf arithmetic is spent on it. det and every x_kk
    must be nonzero. The row of R_k is the row of R0 with entry k replaced
    by the row's entry of c_k; its sum of squares adds the squares before
    k, after k and of that entry, so nothing cancels.
    """
    p = len(xkk)
    log_hadamard = [0.0] * (p + 1)
    for row in a:
        logs = [_log10_abs(v) for v in row]
        top = max(logs)
        squares = [10.0 ** (2 * (v - top)) for v in logs]
        before = list(accumulate(squares[: p - 1], initial=0.0))
        after = list(accumulate(reversed(squares[:n]), initial=0.0))
        log_hadamard[0] += top + math.log10(after[n]) / 2
        for k in range(p):
            s = before[k] + after[n - 1 - k] + squares[n + k]
            if s < 1e-290:
                # the row of R_k lies hundreds of digits below the row's
                # largest entry: sum its squares on its own scale instead
                log_hadamard[k + 1] += _log10_norm(logs[:k] + [logs[n + k]] + logs[k + 1 : n])
            else:
                log_hadamard[k + 1] += top + math.log10(s) / 2
    log_det = _log10_abs(det)
    log_dets = [log_det] + [log_det + _log10_abs(x) for x in xkk]
    return [h - d for h, d in zip(log_hadamard, log_dets)]


def _augmented_rows(n_a: int, n_e: int, mu1, m1, mu2, m2):
    """The rows of [R0 | c_1 .. c_p] at the current precision.

    Each row belongs to one level and carries a shift d: the order of the
    derivative in that level's confluent block. Its first p entries are
    (-1)^d phi! / mu^(phi+1), then (k)_d mu^(k-d) for k = n_a - j, j > p;
    c_k is R0's column k scaled entrywise by the E1 tail sums. Each level's
    powers mu^e are computed once and shared by its rows.
    """
    p = min(n_e, n_a)
    phi_max = n_e - 1 + max(m1, m2) - 1
    a = []
    for mu, m in ((mu1, m1), (mu2, m2)):
        mu = mp.mpf(mu)
        tails = list(accumulate(_exp_e1_ladder(mu, phi_max)))
        powers = {e: mu ** e for e in {*range(n_a - p), *range(n_e - p + 1, n_e + m)}}
        for d in range(m - 1, -1, -1):
            phis = range(n_e - p + d, n_e + d)
            r0 = [(-1) ** d * math.factorial(phi) / powers[phi + 1] for phi in phis]
            r0 += [
                math.perm(k, d) * powers[k - d] if k >= d else mp.mpf(0)
                for k in range(n_a - p - 1, -1, -1)
            ]
            a.append(r0 + [v * tails[phi] for v, phi in zip(r0, phis)])
    return a


def _log_det_r0(n_e: int, p: int, mu1, m1, mu2, m2) -> float:
    """ln|det R0|, in closed form.

    R0 is a confluent Vandermonde matrix in the functions mu^-n_e mu^k,
    k < n_a, at the two levels, so its determinant is a product of
    factorials, level powers and the gap (mu1 - mu2)^(m1 m2). The
    expansion's prefactor is 1 / det R0; only _first_dps needs this.
    """
    return (
        sum(math.lgamma(n_e - p + c + 1) for c in range(p))
        - n_e * (m1 * math.log(mu1) + m2 * math.log(mu2))
        + sum(math.lgamma(d + 1) for m in (m1, m2) for d in range(m))
        + m1 * m2 * math.log(mu1 - mu2)
    )


def _first_dps(n_a: int, n_e: int, mu1, m1, mu2, m2) -> int:
    """First working precision of the determinant sum, before any elimination.

    The digits det R0 loses, log10 of its Hadamard row-norm bound over
    |det R0| (both in closed form, in log space), sized as the audit's
    retry rule would size them. The gap (mu1 - mu2)^(m1 m2) is part of
    det R0. The audit still guards the result: a short guess retries.
    """
    p = min(n_e, n_a)
    log_hadamard = 0.0
    for mu, m in ((mu1, m1), (mu2, m2)):
        ln_mu = math.log(mu)
        for d in range(m):
            # ln|entry| of the row with shift d: phi! / mu^(phi+1) in the
            # first p columns, then (k)_d mu^(k-d) for k = n_a - j >= d
            logs = [
                math.lgamma(phi + 1) - (phi + 1) * ln_mu for phi in range(n_e - p + d, n_e + d)
            ]
            logs += [
                math.lgamma(k + 1) - math.lgamma(k - d + 1) + (k - d) * ln_mu
                for k in range(d, n_a - p)
            ]
            top = max(logs)
            log_hadamard += top + math.log(math.fsum(math.exp(2 * (v - top)) for v in logs)) / 2
    loss0 = (log_hadamard - _log_det_r0(n_e, p, mu1, m1, mu2, m2)) / math.log(10)
    return max(30, int(loss0 + 15) + 10)


def _omega_determinant_sum(n_a: int, n_e: int, mu1, m1, mu2, m2) -> float:
    """Alternating determinant expansion of the two-level ergodic log-det.

    The levels are mu1 > mu2 > 0 with multiplicities m1 + m2 = n_a. The
    expansion sums p = min(n_e, n_a) determinants det(R_k) times a
    prefactor that is exactly 1 / det R0. R_k equals a base matrix R0
    except in column k, which is R0's column scaled entrywise by the E1
    tail sums; call that column c_k. By the matrix determinant lemma
    (Cramer's rule), det(R_k) = det(R0) x_kk with x_k = R0^{-1} c_k, so
    the sum is sum_k x_kk = tr(R0^{-1} C): one Gaussian elimination of
    [R0 | c_1 .. c_p] with partial pivoting and p back substitutions.

    Evaluated in mpmath at a working precision; det R0 enters only the first
    precision and the audit. The first precision (_first_dps) is the digits
    det R0, in closed form, loses against its Hadamard row-norm bound, which
    include the (mu1 - mu2)^(m1 m2) blow-up. The rows share each level's
    powers mu^e (_augmented_rows). After evaluation the actual digit loss
    is audited and the whole computation retries at the audited precision if
    the first guess was short, as it is where a det R_k loses more than
    det R0 (at high SNR, or with one x_kk far below the others at low SNR).
    The audit adds the worst loss inside the p + 1 determinants det R0 and
    det R_k (each one's Hadamard row-norm bound against its value; R0 alone
    misses digits the solves lose) and the cancellation across the k-sum
    (max_k |x_kk| against |sum_k x_kk|). It only needs a float of these
    logs, so it runs in float log10 space from each mpf's mantissa and
    exponent (_digit_losses), with log10|det R_k| = log10|det R0| +
    log10|x_kk|. A zero det R0, x_kk or sum, or a determinant above its own
    Hadamard bound, holds no correct digit, and the attempt fails.
    """
    p = min(n_e, n_a)
    dps = _first_dps(n_a, n_e, mu1, m1, mu2, m2)
    for _ in range(8):
        with mp.workdps(dps):
            a = _augmented_rows(n_a, n_e, mu1, m1, mu2, m2)
            det, xkk = _det_and_cramer_diagonal(a, n_a, p)
            x_sum = mp.fsum(xkk)
            # a zero det R0, x_kk or sum, or a determinant above its
            # Hadamard bound (a negative loss), holds no correct digit
            losses = _digit_losses(a, n_a, det, xkk) if det and all(xkk) and x_sum else [-1.0]
            if min(losses) >= 0:
                inner = max(losses)
                cross = max(map(_log10_abs, xkk)) - _log10_abs(x_sum)
            else:
                inner, cross = float(dps), 0.0
            needed = inner + cross + 15.0
            if dps >= needed:
                return float(x_sum)
            dps = int(needed) + 10
    raise NumericError(
        "adaptive precision for the determinant sum did not settle "
        f"(n_a={n_a}, n_e={n_e}, mu1={mu1!r}, mu2={mu2!r})"
    )


def omega(cfg: SystemConfig) -> float:
    """Eavesdropper-side ergodic log-det E[ln det(I + alpha W1 + alpha beta W2)].

    Single-group branch theta(n_hat_min, n_hat_max, alpha) whenever
    |beta - 1| < 1e-6 (the general expansion divides by the eigenvalue
    gap and explodes there; continuity across the switch is a tested
    property), the audited determinant expansion otherwise.
    """
    if cfg.alpha == 0.0:
        return 0.0
    if abs(cfg.beta - 1.0) < _BETA_DEGENERATE_TOL:
        return theta(cfg.n_hat_min, cfg.n_hat_max, cfg.alpha)
    # the eavesdropper's two levels: 1/alpha on the n_b data dimensions,
    # 1/(alpha beta) on the n_a - n_b noise dimensions, larger one first;
    # a product that underflows to 0 is an infinite level, refused below
    ab = cfg.alpha * cfg.beta
    data = (1.0 / cfg.alpha, cfg.n_b)
    noise = (1.0 / ab if ab else math.inf, cfg.n_a - cfg.n_b)
    (mu1, m1), (mu2, m2) = (data, noise) if data[0] > noise[0] else (noise, data)
    if not (mu1 > mu2 > 0.0 and math.isfinite(mu1)):
        raise DomainError(f"need mu1 > mu2 > 0, got mu1={mu1!r}, mu2={mu2!r}")
    return _omega_determinant_sum(cfg.n_a, cfg.n_e, mu1, m1, mu2, m2)


def _common_theta(cfg: SystemConfig) -> float:
    """theta(n_b, n_a, alpha gamma) + theta(n_min, n_max, alpha beta).

    The legitimate-link and artificial-noise-only terms, which the exact
    rate and both bounds share.
    """
    return bob_capacity(cfg) + theta(cfg.n_min, cfg.n_max, cfg.alpha * cfg.beta)


def average_secrecy_rate(cfg: SystemConfig) -> float:
    """Unclamped average secrecy rate in nats; may be negative.

    Legitimate-link term theta(n_b, n_a, alpha gamma) plus the
    artificial-noise-only term theta(n_min, n_max, alpha beta), minus the
    full eavesdropper term omega(cfg).
    """
    if cfg.alpha == 0.0:
        return 0.0
    return _common_theta(cfg) - omega(cfg)


def average_rate_bounds(cfg: SystemConfig) -> tuple[float, float]:
    """Two-sided bounds (lower, upper) on the average secrecy rate.

    Replaces omega with the single-group value at the larger (lower
    bound) or smaller (upper bound) of the two power scales alpha and
    alpha beta. The two coincide exactly at beta = 1.
    """
    if cfg.alpha == 0.0:
        return (0.0, 0.0)
    common = _common_theta(cfg)
    scales = (cfg.alpha, cfg.alpha * cfg.beta)
    lower = common - theta(cfg.n_hat_min, cfg.n_hat_max, max(scales))
    upper = common - theta(cfg.n_hat_min, cfg.n_hat_max, min(scales))
    return (lower, upper)


def bob_capacity(cfg: SystemConfig) -> float:
    """Ergodic capacity of the legitimate link, theta(n_b, n_a, alpha gamma)."""
    return theta(cfg.n_b, cfg.n_a, cfg.alpha * cfg.gamma)


def eve_leakage_upper_bound(cfg: SystemConfig) -> float:
    """Upper bound on the information rate leaked to the eavesdropper.

    n_e ln(1 + alpha n_b) plus the drop in the artificial-noise term when
    its scale is divided by (1 + alpha n_b). Nonnegative; tends to zero
    as alpha and beta grow with n_e <= n_a - n_b.
    """
    if cfg.alpha == 0.0:
        return 0.0
    damp = 1.0 + cfg.alpha * cfg.n_b
    return (
        cfg.n_e * math.log(damp)
        + theta(cfg.n_min, cfg.n_max, cfg.alpha * cfg.beta / damp)
        - theta(cfg.n_min, cfg.n_max, cfg.alpha * cfg.beta)
    )


def rate_report(cfg: SystemConfig) -> RateReport:
    """Exact rate, both bounds, and the legitimate capacity in one record."""
    lower, upper = average_rate_bounds(cfg)
    return RateReport(
        exact=average_secrecy_rate(cfg),
        lower=lower,
        upper=upper,
        bob_capacity=bob_capacity(cfg),
    )
