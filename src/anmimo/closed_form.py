"""Exact finite-antenna average rate formulas.

The central object is ``theta(m, n, x)``, the ergodic log-determinant

    theta(m, n, x) = E[ ln det(I_m + x W) ],   W = G G^H,  G m-by-n
                     standard complex Gaussian, m <= n,

evaluated by a finite sum over incomplete-gamma terms. From it the module
builds the average secrecy rate of null-space artificial-noise beamforming,
its two-sided bounds, the legitimate link's ergodic capacity, and an upper
bound on the eavesdropper leakage.

Numerical notes, since both closed forms are badly alternating sums:

* Both are sums of exact weights on the E1 ladder
  T_t(b) = exp(b) E_{t+1}(b). omega, the eavesdropper's two-level
  log-det, is the Cramer sum tr(R0^-1 C) of a determinant expansion. R0
  is a two-node confluent Vandermonde matrix, so R0^-1 is Hermite
  interpolation, and taking the interpolant's coefficients by residues
  gives exact weights on the E1 tail sums of each level. theta is the
  same sum at a single level, where the weights (the published A_j)
  depend on the shape alone and are cached per (m, n). The weights are
  homogeneous of degree 0 in the levels, so they are Python ints over one
  denominator per level, built from the levels scaled to integers.
* The ladder T_t = (1 - b T_{t-1}) / t is folded exactly in integers at
  the exact level b, which leaves one transcendental T_0 = exp(b) E1(b)
  per level. Only T_0 is rounded; the sum is exact and one correctly
  rounded division gives the double. The sum cancels heavily (plain
  compensated double summation of theta loses all 16 digits at
  m = n = 16, x = 0.05; omega's weights grow like
  (mu1 / (mu1 - mu2))^(n_a - 1) as the two eigenvalue groups merge, and
  low SNR, b >> 1, grows the folded terms like b^t / t!). So T_0 is
  first rounded 30 digits beyond the largest folded term, and Ziv's
  rounding test accepts the sum only when both ends of its error bound
  round to the same double, doubling the precision otherwise: the
  result is correctly rounded, with a proven bound on T_0. So omega
  needs no switch near beta = 1.
* T_0 is evaluated in integers at the exact level (_exp_e1): the E1
  power series with Euler's gamma by Brent and McMillan for small b,
  the asymptotic series kept relative to 1/b for large b, each with a
  proven relative error bound.
* Every level is the exact reciprocal of a double scale: 1/x for theta,
  1/alpha and 1/(alpha beta) for omega, held as an integer pair
  (numerator, denominator), float.as_integer_ratio() reversed. Only
  alpha * beta == alpha routes omega to the single-group theta, and
  theta(m, n, 0) = 0 is the one zero-SNR rule. Exact omega lies
  between theta at the two scales, and correct rounding and the shared
  subtraction are monotone, so lower <= exact <= upper holds exactly.
  The last 64 theta values are memoized, so the exact rate and its
  bounds, which share theta terms, compute each once.
* The exponential prefactor of the published theta sum appears with a
  negative exponent; the m = n = 1 reduction E[ln(1+x|g|^2)] =
  exp(1/x) E1(1/x) and Monte Carlo both fix the true sign as positive,
  and that is what is implemented.

Every precision is passed per call and nothing is set process-wide, so
the closed forms are safe in several threads. They need neither mpmath
nor fractions; the tests use mpmath as their reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError, NumericError, _finite, _integer

_THETA_MAX_N = 16
_LOG10_2 = math.log10(2.0)
_BITS_PER_DIGIT = 3.3219280948873626
_GUARD_BITS = 8
_CONSTANTS = {}


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

    All values in nats; lower <= exact <= upper exactly, with equality of
    all three when alpha * beta == alpha (beta = 1).
    """

    exact: float
    lower: float
    upper: float
    bob_capacity: float


def _ladder_weights(n_a: int, n_e: int, levels):
    """Exact rung weights of omega at one or two levels, as integers per level.

    levels holds one or two distinct rational (mu_l, m_l), in any order,
    each mu_l an integer pair (numerator, denominator), with
    multiplicities summing to n_a. For each level returns (coeffs,
    denominator): omega is
    sum_{l,t} coeffs_l[t] / denominator_l T_t(mu_l), t = 0 .. n_e + m_l - 2.
    The weights are homogeneous of degree 0 in the levels, so the A_l are
    the levels scaled to coprime integers by the lcm of their denominators
    (A = 1 for one level) and each denominator is
    A_l^(n_e + m_l - 1) (A_l - A_other)^(n_a - 1). One level is the case
    with an empty other level (m = 0) one unit below, so theta's weights
    come from here too and depend on the shape alone.

    omega is sum_{l,phi} w_{l,phi} tail_l(phi) over the E1 tail sums
    tail_l(phi) = sum_{t <= phi} T_t(mu_l), phi = n_e - p .. n_e + m_l - 2,
    so the weight of rung t is the suffix sum of the w_{l,phi} over
    phi >= t. x_kk is the coefficient of z^q, q = p - 1 - k, of the Hermite
    interpolant of z^q tail_{b_k}(z), b_k = n_e - p + k, on the nodes of
    Q(z) = prod_l (z - A_l)^m_l, which by residues is
    sum_l Res_{A_l} z^q tail_{b_k}(z) R_q(z) / Q(z) with
    R_q = sum_{j > q} Q_j z^(j - q - 1). With w_l the other level's factor
    of Q, K_q = z^n_e R_q / w_l obeys K_{n_a - 1} = z^n_e / w_l and
    K_q = z K_{q+1} + Q_{q+1} z^n_e / w_l, so its Taylor coefficients
    kappa_{q,j} at A_l, j < m_l, follow by a short recurrence, and
    w_{l,phi} = sum_{k,d: b_k + d = phi} (-1)^d C(phi, d) A_l^-(phi+1)
    kappa_{q_k, m_l - 1 - d}.
    """
    p = min(n_e, n_a)
    base = n_e - p
    ratios = [mu for mu, _ in levels]
    scale = math.lcm(*(d for _, d in ratios))
    scaled = [n * (scale // d) for n, d in ratios]
    g = math.gcd(*scaled)
    levels = [(a // g, m) for a, (_, m) in zip(scaled, levels)]
    q_poly = [1]  # coefficients of Q, lowest first
    for a, m in levels:
        for _ in range(m):
            q_poly = [c - a * c_next for c, c_next in zip([0] + q_poly, q_poly + [0])]
    out = []
    for a, m in levels:
        other, m_other = next(((o, mo) for o, mo in levels if o != a), (a - 1, 0))
        top = n_e + m - 2
        a_pow = list(accumulate([a] * (top + 1), operator.mul, initial=1))
        gap_pow = list(accumulate([a - other] * (n_a - 1), operator.mul, initial=1))
        # Taylor coefficients at A of z^n_e (z - A_other)^-m_other, times
        # gap^(n_a - 1); C(n_e, i) vanishes for i > n_e, and
        # C(m_other - 1 + k, k) for k > 0 at an empty level
        e = [
            sum(
                math.comb(n_e, i) * a_pow[n_e - i]
                * (-1) ** (j - i) * (math.comb(m_other - 1 + j - i, j - i) if j > i else 1)
                * gap_pow[m - 1 - j + i]
                for i in range(min(j, n_e) + 1)
            )
            for j in range(m)
        ]
        kappa = e
        nums = [0] * (top + 1 - base)
        for q in range(n_a - 1, -1, -1):
            if q < n_a - 1:
                # z K_{q+1} at z = A + (z - A), plus Q_{q+1} z^n_e / w_l
                kappa = [
                    a * k + k_prev + q_poly[q + 1] * e_j
                    for k, k_prev, e_j in zip(kappa, [0] + kappa, e)
                ]
            if q < p:
                b = n_e - 1 - q
                for d in range(m):
                    nums[b + d - base] += (
                        (-1) ** d * math.comb(b + d, d) * a_pow[top - b - d] * kappa[m - 1 - d]
                    )
        rungs = list(accumulate(reversed(nums)))[::-1]
        out.append(([rungs[0]] * base + rungs, a_pow[top + 1] * gap_pow[n_a - 1]))
    return out


@lru_cache(maxsize=None)
def _theta_coeffs(m: int, n: int):
    """theta(m, n, 1/b) = sum_t coeffs[t] / den T_t(b): omega's weights at one level."""
    return _ladder_weights(m, n, (((1, 1), m),))[0]


def _fold(b, coeffs, den: int):
    """sum_t coeffs[t] / den T_t(b) as integers (S_P, S_Q, D), exactly (S_P + S_Q T_0(b)) / D.

    With b = num / d, an integer pair, T_t = (1 - b T_{t-1}) / t gives
    d^t t! T_t = V_t + (-num)^t T_0, where V_0 = 0 and
    V_t = (t-1)! d^t - num V_{t-1}, so Horner's rule over the common
    denominator D = den d^top top! takes O(top) integer steps.
    """
    num, b_den = b
    s_p, s_q, v, power, lead = 0, coeffs[0], 0, 1, b_den
    for t, c in enumerate(coeffs[1:], 1):
        v = lead - num * v
        power *= -num
        lead *= t * b_den
        den *= t * b_den
        s_p = s_p * t * b_den + c * v
        s_q = s_q * t * b_den + c * power
    return s_p, s_q, den


def _first_dps(folds) -> int:
    """First working precision: 30 digits beyond the largest |S_P| / D or |S_Q| / D."""
    bits = max(s.bit_length() - d.bit_length() for _, s_p, s_q, d in folds for s in (s_p, s_q))
    return 30 + max(0, int(bits * _LOG10_2))


def _constant(fn, w: int) -> int:
    """fn(w), a constant to w fractional bits, cut from one cached value.

    The cache holds the highest precision asked for (at least double the
    last), and flooring it to w bits adds under one ulp.
    """
    have, value = _CONSTANTS.get(fn, (-1, 0))  # one tuple: threads see a matching pair
    if have < w:
        have = max(w, 2 * have)
        value = fn(have)
        _CONSTANTS[fn] = have, value
    return value >> have - w


def _atanh(n: int, d: int, w: int) -> int:
    """atanh(z), z = n / d in [0, 1/3], to w fractional bits, within w ulps.

    Each term z^(2j+1) is the exact floor of the last times z^2, so it
    stays below its value by under 9/8 ulp; with its division by 2j+1 and
    the tail past the first zero term, the J <= w/3 + 1 terms stay within
    1.5 J + 3 ulps.
    """
    n2, d2 = n * n, d * d
    total = term = (n << w) // d
    j = 1
    while term:
        term = term * n2 // d2
        j += 2
        total += term // j
    return total


def _ln2(w: int) -> int:
    """ln 2 = 2 atanh(1/3) to w fractional bits, within 4 ulps."""
    guard = w.bit_length()
    return _atanh(1, 3, w + guard) >> guard - 1


def _euler(w: int) -> int:
    """Euler's gamma to w fractional bits, within 2 ulps, by Brent and McMillan.

    gamma = U / V - ln n within pi exp(-4n) (Math. Comp. 34, 1980, B1),
    V = sum_k B_k with B_k = (n^k / k!)^2 and U = sum_k B_k H_k, for n a
    power of two with 4n > (v + 3) ln 2. Both run on nonnegative fixed
    point at v bits: each floored B_k and A_k = B_k H_k stays within
    (H_k + 2) exp(2n) ulps, the K <= 5n terms sum within K (H_K + 2)
    exp(2n), and V >= 2^v exp(2n) / (e^2 n), so U / V is within
    K (H_K + 12) e^2 n ulps, which the 2 log2(w) + 12 guard bits absorb.
    """
    v = w + 2 * w.bit_length() + 12
    log2_n = ((v + 3) * 710 >> 12).bit_length()
    a = u = 0
    b = total = 1 << v
    k = 1
    while a or b:
        b = (b << 2 * log2_n) // (k * k)
        a = ((a << 2 * log2_n) // k + b) // k
        u += a
        total += b
        k += 1
    return ((u << v) // total - log2_n * _constant(_ln2, v)) >> v - w


def _ln(p: int, q: int, w: int) -> int:
    """ln(p / q) to w fractional bits, within 5 |e| + 2 w ulps.

    p / q = 2^e r with r in [1/sqrt 2, sqrt 2), and ln r = 2 atanh(z),
    z = (r - 1) / (r + 1), |z| < 0.172.
    """
    e = p.bit_length() - q.bit_length()
    p, q = p << max(-e, 0), q << max(e, 0)
    if 2 * p * p < q * q:
        p, e = p << 1, e - 1
    elif p * p >= 2 * q * q:
        q, e = q << 1, e + 1
    z = 2 * _atanh(abs(p - q), p + q, w)
    return e * _constant(_ln2, w) + (z if p >= q else -z)


def _exp_e1(p: int, q: int, prec: int):
    """T_0(b) = exp(b) E1(b) at b = p / q > 0, as (man, exp < 0) within 2^-prec T_0 of man 2^exp.

    For prec >= 20, two branches split at b > 0.6934 w + 10, about where
    mpmath's E1 splits; both stay within 2^-(prec+2) T_0.
    * Large b: the asymptotic series b T_0 = sum_{k<K} (-1)^k k! / b^k + R_K,
      |R_K| below the first omitted term (DLMF 6.12.1). Its terms fall
      while k < b, and past the split the smallest, sqrt(2 pi b) exp(-b),
      is below 2^-w (for w < 10^7), so K < 2w. Each floored term stays
      within k ulps, so the sum, at least 1/2, is within K^2 + 3K + 4
      ulps, and the g guard bits absorb 2 (K^2 + 3K + 5) < 9 w^2. The
      sum is kept relative to 1 / b, never in absolute fixed point, so a
      huge b keeps every digit, and no exp(b) runs.
    * Small b: T_0 = exp(b) (S(b) - gamma - ln b), with
      S(b) = sum_{k>=1} (-1)^(k+1) u_k / k (DLMF 6.6.2) and exp(b) the
      sum of the same u_k = b^k / k!. Each floored u_k stays within
      exp(b) ulps, so it floors to zero only past k = 2b (below,
      u_k >= 2^(w-2b) > exp(b) + 1), where the tail is under twice the
      last term: K <= 3.5 b + w + 3 terms. With exp(-b) / (b + 1) < E1(b)
      (DLMF 6.8.1), gamma within 3 ulps and ln b within 5 |e| + 2w (e
      the binary exponent of b), the product is within
      (10.5 b + 5 w + 5 |e| + 15) (b + 1) exp(2b) 2^-w relative: 3 b + 3
      bits of w pay for exp(2b), and 2 log2(prec + 3 b + |e|) + 16 bring
      the rest below 2^-(prec+9).
    """
    g = 2 * prec.bit_length() + 8
    w = prec + g
    if p > q * ((w * 710 >> 10) + 10):
        term = total = 1 << w
        k = 0
        while term:
            k += 1
            term = term * k * q // p
            total = term - total
        shift = p.bit_length() - q.bit_length() + 1
        return ((-total if k & 1 else total) * q << shift) // p, -w - shift
    big = p // q
    size = prec + 3 * big + abs(p.bit_length() - q.bit_length()) + 1
    w = prec + 3 * big + 2 * size.bit_length() + 16
    u = x = 1 << w
    s = k = 0
    while u:
        k += 1
        u = u * p // (q * k)
        x += u
        s = u // k - s
    man = x * ((s if k & 1 else -s) - _constant(_euler, w) - _ln(p, q, w))
    shift = max(0, man.bit_length() - prec - g)
    return man >> shift, shift - 2 * w


def _fold_sum(folds, dps: int):
    """One attempt at dps digits: integers (N, E, Q) over one denominator Q.

    N / Q is the folds' sum of (S_P + S_Q T_0(b)) / D with only T_0(b) =
    exp(b) E1(b) rounded (_exp_e1), within 2^-prec relative at
    prec = bits + _GUARD_BITS for bits = round((dps + 1) log2(10)), as
    mpmath's dps_to_prec gives, so the exact sum is within
    E / Q = 2^-bits sum |S_Q T_0| / D. T_0 is kept relative as its exact
    man * 2^exp, so a tiny T_0 (~1 / b at low SNR) keeps its digits.
    """
    bits = round((dps + 1) * _BITS_PER_DIGIT)
    num, err, den = 0, 0, 1
    for b, s_p, s_q, d in folds:
        man, exp = _exp_e1(*b, bits + _GUARD_BITS)
        # s_p / d and s_q T_0 / d as p / q and r / q, T_0 = man / 2^-exp
        p, r, q = s_p << -exp, s_q * man, d << -exp
        num, err, den = num * q + (p + r) * den, err * q + abs(r) * den, den * q
    return num << bits, err, den << bits


def _ladder_sum(what: str, levels) -> float:
    """sum over (b, coeffs, den) in levels of sum_t coeffs[t] / den T_t(b), as a double.

    Each level folds exactly to (S_P + S_Q T_0(b)) / D (_fold); an attempt
    (_fold_sum) sums them exactly to N / Q within E / Q of the true sum.
    Ziv's rounding test accepts it when both ends, (N - E) / Q and
    (N + E) / Q, are nonzero of one sign and round to the same double:
    then so does the sum, and that double is its correctly rounded value.
    Otherwise it retries at twice the precision, so a sum near a rounding
    tie or zero costs another attempt, not a wrong last bit. what names
    the quantity in the error raised when no attempt settles.
    """
    folds = [(b, *_fold(b, coeffs, den)) for b, coeffs, den in levels]
    dps = _first_dps(folds)
    for _ in range(8):
        num, err, den = _fold_sum(folds, dps)
        value = (num - err) / den
        if err < abs(num) and value == (num + err) / den:
            return value
        dps *= 2
    raise NumericError(f"adaptive precision for {what} did not settle")


def theta(m: int, n: int, x: float) -> float:
    """Ergodic E[ln det(I_m + x W)] for an m-by-n complex Wishart W, in nats.

    Requires 1 <= m <= n <= 16 and x >= 0; theta(m, n, 0) = 0. n <= 16
    is the envelope the tests validate, bitwise against the published sum
    at 600 digits; it is kept until larger n carries the same evidence
    (an open ROADMAP item), not for lack of digits.

    theta is omega at a single level: sum_j A_j T_j(b), b = 1/x, with
    T_j(b) = exp(b) E_{j+1}(b) and exact rational A_j (_theta_coeffs,
    cached per (m, n)), folded and rounded by _ladder_sum.
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
    level = x.as_integer_ratio()[::-1]
    return _ladder_sum(f"theta({m}, {n}, {x!r})", [(level, *_theta_coeffs(m, n))])


def omega(cfg: SystemConfig) -> float:
    """Eavesdropper-side ergodic log-det E[ln det(I + alpha W1 + alpha beta W2)].

    The exact two-level weights (_ladder_weights) on the E1 ladder of
    each level, correctly rounded by _ladder_sum however close beta is to
    1. The levels are read as theta reads its scale: 1/alpha on the n_b
    data dimensions and 1/(alpha beta) on the n_a - n_b noise dimensions,
    the exact reciprocals of the doubles alpha and alpha * beta. When
    those doubles are equal (beta == 1, a beta so close to 1 that the
    product rounds onto alpha, or alpha == 0) the two groups see one
    level, and omega is theta(n_hat_min, n_hat_max, alpha). So omega lies
    between the single-group values at the two scales, and the bounds
    hold with no slack.
    """
    ab = cfg.alpha * cfg.beta
    if ab == cfg.alpha:
        return theta(cfg.n_hat_min, cfg.n_hat_max, cfg.alpha)
    if ab == 0.0 or ab == math.inf:
        raise DomainError(f"alpha * beta must be finite and > 0, got {ab!r}")
    levels = (
        (cfg.alpha.as_integer_ratio()[::-1], cfg.n_b),
        (ab.as_integer_ratio()[::-1], cfg.n_a - cfg.n_b),
    )
    weights = _ladder_weights(cfg.n_a, cfg.n_e, levels)
    return _ladder_sum(
        f"omega(n_a={cfg.n_a}, n_b={cfg.n_b}, n_e={cfg.n_e}, "
        f"alpha={cfg.alpha!r}, beta={cfg.beta!r})",
        [(mu, *w) for (mu, _), w in zip(levels, weights)],
    )


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
    return _common_theta(cfg) - omega(cfg)


def average_rate_bounds(cfg: SystemConfig) -> tuple[float, float]:
    """Two-sided bounds (lower, upper) on the average secrecy rate.

    Replaces omega with the single-group value at the larger (lower
    bound) or smaller (upper bound) of the two power scales alpha and
    alpha beta. The two coincide exactly at beta = 1.
    """
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
