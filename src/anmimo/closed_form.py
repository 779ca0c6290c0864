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
* omega, the eavesdropper's two-level log-det, is the Cramer sum
  tr(R0^-1 C) of a determinant expansion. R0 is a two-node confluent
  Vandermonde matrix, so R0^-1 is Hermite interpolation, and taking the
  interpolant's coefficients by residues turns the sum into
  sum_{l,phi} w_{l,phi} tail_l(phi): exact weights on the E1 tail sums
  tail_l(phi) = sum_{t <= phi} T_t(mu_l) of each level. The weights are
  homogeneous of degree 0 in the levels, so they are built from the two
  levels scaled to integers as Python ints over one denominator per
  level, in at most about 2 ms up to n = 16. Only their dot product with
  the tails is rounded. It cancels as the two eigenvalue groups merge
  (the weights grow like (mu1 / (mu1 - mu2))^(n_a - 1)), so it runs at a
  precision sized from the largest weight and is accepted only when that
  covers the digits it cancels plus 20 guard digits, retrying otherwise.
  Near-degenerate inputs (|beta - 1| < 1e-6) route to the single-group
  branch instead.
* The E1 ladder T_t = exp(mu) E_{t+1}(mu) that gives omega's tails runs
  forward, which multiplies T_0's rounding error by up to mu^t / t!. At
  low SNR (mu = 1/alpha >> 1) that is up to hundreds of digits, which
  the ladder adds to its working precision.

mpmath is imported on first use, so the asymptotic layer and the CLI's
design reports never load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError, NumericError, _finite, _integer

_THETA_MAX_N = 16
_BETA_DEGENERATE_TOL = 1e-6
_LOG10_2 = math.log10(2.0)
_OMEGA_GUARD_DIGITS = 20


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

    import mpmath as mp

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
    import mpmath as mp

    log10_mu = math.log10(mu)
    lost = max(
        t * log10_mu - math.lgamma(t + 1) / math.log(10) for t in range(tmax + 1)
    )
    with mp.workdps(mp.mp.dps + int(lost + math.log10(mu + tmax + 1)) + 10):
        out = [mp.exp(mu) * mp.e1(mu)]
        for t in range(1, tmax + 1):
            out.append((1 - mu * out[-1]) / t)
    return out


def _log10_abs(v) -> float:
    """log10|v| of an mpf from its raw (sign, man, exp, bc); -inf at zero.

    v is man * 2^exp exactly, so this holds far outside double range, where
    float(v) overflows or flushes to zero.
    """
    _, man, exp, _ = v._mpf_
    if not man:
        return -math.inf
    return math.log10(int(man)) + exp * _LOG10_2


def _omega_weights(n_a: int, n_e: int, mu1: float, m1: int, mu2: float, m2: int):
    """Exact weights w_{l,phi} of omega's E1 tail sums, as integers per level.

    For each level l (mu1 first) returns (numerators, denominator): the
    integer numerators of w_{l,phi} for phi = n_e - p .. n_e + m_l - 2 and
    their one denominator A_l^(n_e + m_l - 1) (A_l - A_other)^(n_a - 1).
    The weights are homogeneous of degree 0 in (mu1, mu2), and both levels
    are dyadic floats, so the A_l are the levels scaled to coprime integers.

    x_kk is the coefficient of z^q, q = p - 1 - k, of the Hermite
    interpolant of z^q tail_{b_k}(z), b_k = n_e - p + k, on the nodes of
    Q(z) = (z - A1)^m1 (z - A2)^m2, which by residues is
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
    (n1, d1), (n2, d2) = mu1.as_integer_ratio(), mu2.as_integer_ratio()
    a1, a2 = n1 * (max(d1, d2) // d1), n2 * (max(d1, d2) // d2)
    g = math.gcd(a1, a2)
    a1, a2 = a1 // g, a2 // g
    q_poly = [1]  # coefficients of Q, lowest first
    for a in [a1] * m1 + [a2] * m2:
        q_poly = [c - a * c_next for c, c_next in zip([0] + q_poly, q_poly + [0])]
    levels = []
    for a, m, other, m_other in ((a1, m1, a2, m2), (a2, m2, a1, m1)):
        top = n_e + m - 2
        a_pow = list(accumulate([a] * (top + 1), operator.mul, initial=1))
        gap_pow = list(accumulate([a - other] * (n_a - 1), operator.mul, initial=1))
        # Taylor coefficients at A of z^n_e (z - A_other)^-m_other, times
        # gap^(n_a - 1); C(n_e, i) vanishes for i > n_e
        e = [
            sum(
                math.comb(n_e, i) * a_pow[n_e - i]
                * (-1) ** (j - i) * math.comb(m_other - 1 + j - i, j - i)
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
        levels.append((nums, a_pow[top + 1] * gap_pow[n_a - 1]))
    return levels


def _weighted_tail_sum(base: int, mus, weights):
    """sum_{l,phi} w_{l,phi} tail_l(phi) and sum_{l,phi} |w_{l,phi} tail_l(phi)|.

    One mp dot product per level at the current precision, over
    phi = base .. base + len(numerators) - 1, with the E1 tail sums
    tail_l(phi) = sum_{t <= phi} T_t(mu_l) from the ladder.
    """
    import mpmath as mp

    total = size = mp.mpf(0)
    for mu, (nums, den) in zip(mus, weights):
        tails = list(accumulate(_exp_e1_ladder(mp.mpf(mu), base + len(nums) - 1)))
        terms = [mp.mpf(n) * t for n, t in zip(nums, tails[base:])]
        den = mp.mpf(den)
        total += mp.fsum(terms) / den
        size += mp.fsum(terms, absolute=True) / abs(den)
    return total, size


def _tail_sum_first_dps(weights) -> int:
    """First working precision of omega's dot product, from its weights alone.

    The sum cancels about as many digits as its largest weight has (on
    random configs across shapes and decades, never half a digit more), so
    the first attempt covers those and the guard digits, and at least 30.
    """
    bits = max(abs(n).bit_length() - abs(den).bit_length() for nums, den in weights for n in nums)
    return max(30, int(bits * _LOG10_2) + _OMEGA_GUARD_DIGITS + 2)


def _omega_tail_sum(n_a: int, n_e: int, mu1: float, m1: int, mu2: float, m2: int) -> float:
    """omega at two levels mu1 > mu2 > 0 with multiplicities m1 + m2 = n_a.

    omega is the Cramer sum tr(R0^-1 C) of the determinant expansion, and
    by Hermite interpolation on R0's two confluent nodes that is
    sum_{l,phi} w_{l,phi} tail_l(phi) with exact integer weights
    (_omega_weights). Only the dot product with the tails is rounded. An
    attempt is accepted when its working precision covers the digits the
    sum cancels, log10(sum |w tail| / |sum w tail|), plus
    _OMEGA_GUARD_DIGITS, more than the 17 that fix a double's last bit;
    otherwise it retries at the precision so sized. A zero sum holds no
    correct digit and doubles the precision.
    """
    import mpmath as mp

    weights = _omega_weights(n_a, n_e, mu1, m1, mu2, m2)
    dps = _tail_sum_first_dps(weights)
    for _ in range(8):
        with mp.workdps(dps):
            total, size = _weighted_tail_sum(n_e - min(n_e, n_a), (mu1, mu2), weights)
        if not total:
            dps *= 2
            continue
        needed = _log10_abs(size) - _log10_abs(total) + _OMEGA_GUARD_DIGITS
        if dps >= needed:
            return float(total)
        dps = int(needed) + 1
    raise NumericError(
        "adaptive precision for omega's tail sum did not settle "
        f"(n_a={n_a}, n_e={n_e}, mu1={mu1!r}, mu2={mu2!r})"
    )


def omega(cfg: SystemConfig) -> float:
    """Eavesdropper-side ergodic log-det E[ln det(I + alpha W1 + alpha beta W2)].

    Single-group branch theta(n_hat_min, n_hat_max, alpha) whenever
    |beta - 1| < 1e-6 (the general expansion divides by the eigenvalue
    gap and explodes there; continuity across the switch is a tested
    property), the exact tail weights at a sized precision otherwise.
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
    return _omega_tail_sum(cfg.n_a, cfg.n_e, mu1, m1, mu2, m2)


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
