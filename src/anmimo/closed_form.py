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
  per level. An attempt rounds T_0, and each folded term to a fixed
  point, with a proven bound on both; one correctly rounded division
  gives the double. The sum cancels heavily (plain compensated double
  summation of theta loses all 16 digits at m = n = 16, x = 0.05;
  omega's weights grow like (mu1 / (mu1 - mu2))^(n_a - 1) as the two
  eigenvalue groups merge, and low SNR, b >> 1, grows the folded terms
  like b^t / t!). So each level's T_0 is first rounded 100 bits beyond
  its largest folded term, and Ziv's rounding test accepts the sum only
  when both ends of its error bound round to the same double, doubling
  the precisions otherwise: the result is correctly rounded, with a
  proven bound on T_0. So omega needs no switch near beta = 1.
* T_0 is evaluated in integers at the exact level (_exp_e1): the E1
  power series with Euler's gamma by Brent and McMillan for small b,
  the asymptotic series kept relative to 1/b for large b, each with a
  proven relative error bound.
* Every level is the exact reciprocal of a double scale: 1/x for theta,
  1/alpha and 1/(alpha beta) for omega, held as an integer pair
  (numerator, denominator), float.as_integer_ratio() reversed. Only
  alpha * beta == alpha routes omega to the single-group theta, and
  theta(m, n, 0) = 0 is the one zero-SNR rule. Exact omega lies
  between theta at the two scales, so the true rate lies between the
  true bounds.
* Every public number is one sum of signed terms, correctly rounded
  (_ladder_sums): theta and omega, the exact rate bob + AN - omega, each
  bound bob + AN - theta at one scale, and the leakage bound's drop in
  theta. The rate and its bounds add no doubles, so near zero the rate
  has its true sign, and since rounding is monotone, the three correctly
  rounded sums keep lower <= exact <= upper exactly. The sums of one
  call fold each shared term once and round T_0 once per level and
  attempt.
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


def _first_prec(folds) -> int:
    """A level's first working precision: 100 bits beyond its largest |S_P| / D or |S_Q| / D."""
    bits = [s.bit_length() - d.bit_length() for _, s_p, s_q, d in folds for s in (s_p, s_q)]
    return 100 + max([0, *bits])


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
    """T_0(b) = exp(b) E1(b), b = p / q > 0, as (man, exp < 0) within 2^-(prec+2) T_0 of man 2^exp.

    Two branches, split at b > 0.6934 w + 10 (about where mpmath's E1 splits), for prec >= 20:
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


def _fold_sums(sums, scale: int):
    """One attempt: yields each sum as integers (N, E, 2^W), within E / 2^W of it.

    A sum holds terms (sign, (b, S_P, S_Q, D), first), each exactly
    sign (S_P + S_Q T_0(b)) / D, with first its level's first precision.
    Each level is rounded at scale times that precision, so every
    level's error starts equally small in absolute terms and doubles its
    own bits on a retry, and a small-b level of a rate costs what it costs
    on its own. T~ = man 2^exp, the value _exp_e1(b, p) rounds
    T_0(b) = exp(b) E1(b) to at the level's precision p, once per level
    for all the sums, keeps its own exponent, so a tiny T_0 (~1 / b at
    low SNR) keeps its digits. |T~ - T_0| <= 2^-(p+2) T_0 gives
    T_0 < T~ / (1 - 2^-(p+2)), so a term at T~ errs by under
    2^-p |S_Q T~| / D. Each term at T~ is floored to W fractional bits and
    its bound rounded up, two units per term in all; W makes a unit at
    most half the largest term's bound.
    """
    precs = {b: scale * first for terms in sums for _, (b, *_), first in terms}
    t0 = {b: (*_exp_e1(*b, p), p) for b, p in precs.items()}
    for terms in sums:
        parts = []  # each term at T~ as (n + r) / q, its error bound 2^-p |r| / q
        for sign, (b, s_p, s_q, d), _ in terms:
            man, exp, p = t0[b]
            r = sign * s_q * man
            parts.append(((sign * s_p << -exp) + r, abs(r), d << -exp, p))
        w = max(0, min(p + 2 - r.bit_length() + q.bit_length() for _, r, q, p in parts))
        num = sum((n << w) // q for n, _, q, _ in parts)
        yield num, sum(((r << w) // q >> p) + 2 for _, r, q, p in parts), 1 << w


def _ladder_sums(what: str, sums) -> list:
    """Each sum of signed ladder terms, as its correctly rounded double.

    A term (sign, b, coeffs, den) stands for
    sign * sum_t coeffs[t] / den T_t(b). Each distinct (level, weight
    vector) folds once, exactly, to (S_P + S_Q T_0(b)) / D (_fold); a
    weight vector is one object wherever it recurs (theta's are cached per
    shape, omega's built once per call), so identity finds the repeats.
    Within a sum a repeated term adds its signs, so theta(x) - theta(x)
    is the empty sum, exactly 0. Each level's first precision is
    _first_prec over all its folds, fixed for the call, so every retry
    raises it. An attempt (_fold_sums) gives each open
    sum as N / Q within E / Q of its true value. Ziv's rounding test
    accepts a sum when both ends, (N - E) / Q and (N + E) / Q, are
    nonzero of one sign and round to the same double: then so does the
    sum, and that double is its correctly rounded value. The sums not yet
    accepted retry at twice the precisions, so a sum near a rounding tie
    or zero costs another attempt, not a wrong last bit or sign. what
    names the quantity in the error raised when no attempt settles.
    """
    folds, merged = {}, []
    for terms in sums:
        merged.append({})
        for sign, b, coeffs, den in terms:
            key = b, id(coeffs)
            folds[key] = folds.get(key) or (b, *_fold(b, coeffs, den))
            merged[-1][key] = merged[-1].get(key, 0) + sign
    first = {b: _first_prec([f for f in folds.values() if f[0] == b]) for b in {k[0] for k in folds}}
    signed = [[(sign, folds[k], first[k[0]]) for k, sign in m.items() if sign] for m in merged]
    values = [None if terms else 0.0 for terms in signed]
    scale = 1
    while None in values:
        if scale == 256:  # eight attempts
            raise NumericError(f"adaptive precision for {what} did not settle")
        todo = [i for i, value in enumerate(values) if value is None]
        for i, (num, err, den) in zip(todo, _fold_sums([signed[i] for i in todo], scale)):
            value = (num - err) / den
            if err < abs(num) and value == (num + err) / den:
                values[i] = value
        scale *= 2
    return values


def _theta_terms(sign: int, m: int, n: int, x, name: str = "x"):
    """theta(m, n, x) as signed ladder terms: none at x = 0, else one at the level 1/x.

    Checks the shape and x; name is what an error calls x, so a rate
    names the product it formed (alpha * gamma, alpha * beta).
    """
    m, n = _integer("m", m, 1), _integer("n", n, 1)
    if m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    x = _finite(name, x)
    return [(sign, x.as_integer_ratio()[::-1], *_theta_coeffs(m, n))] if x else []


def theta(m: int, n: int, x: float) -> float:
    """Ergodic E[ln det(I_m + x W)] for an m-by-n complex Wishart W, in nats.

    Requires 1 <= m <= n and x >= 0; theta(m, n, 0) = 0. The tests hold
    it bitwise to the published sum at 600 digits for every shape up to
    n = 16, and at 1200 digits on a grid over n = 17..32 and at n = 48.

    theta is omega at a single level: sum_j A_j T_j(b), b = 1/x, with
    T_j(b) = exp(b) E_{j+1}(b) and exact rational A_j (_theta_coeffs,
    cached per (m, n)), folded and rounded by _ladder_sums.
    """
    return _ladder_sums(f"theta({m}, {n}, {x!r})", [_theta_terms(1, m, n, x)])[0]


def _omega_terms(sign: int, cfg: SystemConfig):
    """omega(cfg) as signed ladder terms, one per level.

    The levels are read as theta reads its scale: 1/alpha on the n_b data
    dimensions and 1/(alpha beta) on the n_a - n_b noise dimensions, the
    exact reciprocals of the doubles alpha and alpha * beta. When those
    doubles are equal (beta == 1, a beta so close to 1 that the product
    rounds onto alpha, or alpha == 0) the two groups see one level, and
    omega is theta(n_hat_min, n_hat_max, alpha).
    """
    ab = cfg.alpha * cfg.beta
    if ab == cfg.alpha:
        return _theta_terms(sign, cfg.n_hat_min, cfg.n_hat_max, cfg.alpha)
    if ab == 0.0 or ab == math.inf:
        raise DomainError(f"alpha * beta must be finite and > 0, got {ab!r}")
    data, noise = cfg.alpha.as_integer_ratio()[::-1], ab.as_integer_ratio()[::-1]
    levels = ((data, cfg.n_b), (noise, cfg.n_a - cfg.n_b))
    return [(sign, b, *w) for (b, _), w in zip(levels, _ladder_weights(cfg.n_a, cfg.n_e, levels))]


def omega(cfg: SystemConfig) -> float:
    """Eavesdropper-side ergodic log-det E[ln det(I + alpha W1 + alpha beta W2)].

    The exact two-level weights (_ladder_weights) on the E1 ladder of
    each level (_omega_terms), correctly rounded by _ladder_sums however
    close beta is to 1. omega lies between the single-group values at the
    two scales, so the bounds hold with no slack.
    """
    what = f"n_a={cfg.n_a}, n_b={cfg.n_b}, n_e={cfg.n_e}, alpha={cfg.alpha!r}, beta={cfg.beta!r}"
    return _ladder_sums(f"omega({what})", [_omega_terms(1, cfg)])[0]


def _rate_values(what: str, cfg: SystemConfig, names) -> dict:
    """The named among exact, lower, upper and bob_capacity, from one _ladder_sums call.

    Each shares bob + AN, theta(n_b, n_a, alpha gamma) +
    theta(n_min, n_max, alpha beta) (bob_capacity is bob alone). The exact
    rate subtracts omega's two levels, each bound theta(n_hat_min,
    n_hat_max) at the larger (lower) or smaller (upper) of alpha and
    alpha beta. Only the named sums are built, so the bounds need no
    omega weights; asked together, the sums fold each shared term once and
    round T_0 once per level and attempt. what names the caller in errors.
    """
    bob = _theta_terms(1, cfg.n_b, cfg.n_a, cfg.alpha * cfg.gamma, "alpha * gamma")
    shared = bob + _theta_terms(1, cfg.n_min, cfg.n_max, cfg.alpha * cfg.beta, "alpha * beta")
    sums = {"exact": shared + _omega_terms(-1, cfg)} if "exact" in names else {}
    if "lower" in names or "upper" in names:
        for name, s in zip(("lower", "upper"), sorted((cfg.alpha, cfg.alpha * cfg.beta))[::-1]):
            sums[name] = shared + _theta_terms(-1, cfg.n_hat_min, cfg.n_hat_max, s)
    if "bob_capacity" in names:
        sums["bob_capacity"] = bob
    return dict(zip(sums, _ladder_sums(f"{what}({cfg})", list(sums.values()))))


def average_secrecy_rate(cfg: SystemConfig) -> float:
    """Unclamped average secrecy rate in nats; may be negative.

    Legitimate-link term theta(n_b, n_a, alpha gamma) plus the
    artificial-noise-only term theta(n_min, n_max, alpha beta), minus the
    full eavesdropper term omega(cfg), as one correctly rounded sum, so
    its sign is right however close it is to zero.
    """
    return _rate_values("average_secrecy_rate", cfg, ("exact",))["exact"]


def average_rate_bounds(cfg: SystemConfig) -> tuple[float, float]:
    """Two-sided bounds (lower, upper) on the average secrecy rate.

    Replaces omega with the single-group value at the larger (lower
    bound) or smaller (upper bound) of the two power scales alpha and
    alpha beta, each bound one correctly rounded sum. The two coincide
    exactly at beta = 1.
    """
    return tuple(_rate_values("average_rate_bounds", cfg, ("lower", "upper")).values())


def bob_capacity(cfg: SystemConfig) -> float:
    """Ergodic capacity of the legitimate link, theta(n_b, n_a, alpha gamma)."""
    bob = _theta_terms(1, cfg.n_b, cfg.n_a, cfg.alpha * cfg.gamma, "alpha * gamma")
    return _ladder_sums(f"bob_capacity({cfg})", [bob])[0]


def eve_leakage_upper_bound(cfg: SystemConfig) -> float:
    """Upper bound on the information rate leaked to the eavesdropper.

    n_e ln(1 + alpha n_b) plus the drop in the artificial-noise term when
    its scale is divided by (1 + alpha n_b), the drop one correctly
    rounded sum. Nonnegative; tends to zero as alpha and beta grow with
    n_e <= n_a - n_b.
    """
    damp = 1.0 + cfg.alpha * cfg.n_b
    if damp == math.inf:
        raise DomainError(f"1 + alpha * n_b must be finite, got {damp!r}")
    drop = _theta_terms(-1, cfg.n_min, cfg.n_max, cfg.alpha * cfg.beta, "alpha * beta")
    drop += _theta_terms(1, cfg.n_min, cfg.n_max, cfg.alpha * cfg.beta / damp)
    value = _ladder_sums(f"eve_leakage_upper_bound({cfg})", [drop])[0]
    return cfg.n_e * math.log1p(cfg.alpha * cfg.n_b) + value


def rate_report(cfg: SystemConfig) -> RateReport:
    """Exact rate, both bounds, and the legitimate capacity in one record.

    The four sums share their levels and terms, so one evaluation folds
    each term once and rounds T_0 once per level and attempt.
    """
    return RateReport(**_rate_values("rate_report", cfg, RateReport.__annotations__))
