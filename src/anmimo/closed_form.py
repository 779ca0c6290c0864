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
  rounded 30 digits beyond the largest folded term, and the sum is
  accepted only when that covers the digits it cancels plus 20 guard
  digits, retrying otherwise. Near-degenerate omega inputs
  (|beta - 1| < 1e-6) route to the single-group theta instead. The last
  64 theta values are memoized, so the exact rate and its bounds, which
  share theta terms, compute each once.
* The exponential prefactor of the published theta sum appears with a
  negative exponent; the m = n = 1 reduction E[ln(1+x|g|^2)] =
  exp(1/x) E1(1/x) and Monte Carlo both fix the true sign as positive,
  and that is what is implemented.

mpmath is imported on first use, so the asymptotic layer and the CLI's
design reports never load it. Its precision is passed per call, never
set process-wide, so the closed forms are safe in several threads.
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
_GUARD_DIGITS = 20
_GUARD_BITS = 8


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


def _ladder_weights(n_a: int, n_e: int, levels):
    """Exact rung weights of omega at one or two levels, as integers per level.

    levels holds (mu_l, m_l) with multiplicities summing to n_a, mu1 first.
    For each level returns (coeffs, denominator): omega is
    sum_{l,t} coeffs_l[t] / denominator_l T_t(mu_l), t = 0 .. n_e + m_l - 2.
    The weights are homogeneous of degree 0 in the levels, and the levels
    are dyadic floats, so the A_l are the levels scaled to coprime
    integers (A = 1 for one level) and each denominator is
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
    ratios = [mu.as_integer_ratio() for mu, _ in levels]
    scale = max(d for _, d in ratios)
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
    return _ladder_weights(m, n, ((1.0, m),))[0]


def _fold(b: Fraction, coeffs, den: int):
    """sum_t coeffs[t] / den T_t(b) as integers (S_P, S_Q, D), exactly (S_P + S_Q T_0(b)) / D.

    With b = num / d, T_t = (1 - b T_{t-1}) / t gives
    d^t t! T_t = V_t + (-num)^t T_0, where V_0 = 0 and
    V_t = (t-1)! d^t - num V_{t-1}, so Horner's rule over the common
    denominator D = den d^top top! takes O(top) integer steps.
    """
    num, b_den = b.numerator, b.denominator
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


def _fold_sum(folds, dps: int):
    """One attempt at dps digits: integers (N, S, Q) over one denominator Q.

    N / Q is the folds' sum of (S_P + S_Q T_0(b)) / D, S / Q the sum of its
    terms' magnitudes. Only T_0(b) = exp(b) E1(b) is rounded, _GUARD_BITS
    past dps digits, and kept relative as its exact man * 2^exp, so a tiny
    T_0 (~1 / b at low SNR) keeps its digits.
    """
    from mpmath.libmp import dps_to_prec, from_rational, mpf_e1, mpf_exp, mpf_mul

    prec = dps_to_prec(dps) + _GUARD_BITS
    num, size, den = 0, 0, 1
    for b, s_p, s_q, d in folds:
        x = from_rational(b.numerator, b.denominator, prec)
        _, man, exp, _ = mpf_mul(mpf_exp(x, prec), mpf_e1(x, prec), prec)
        # s_p / d and s_q T_0 / d as p / q and r / q; int() as gmpy has its own
        lift = max(0, -exp)
        p, r, q = s_p << lift, s_q * int(man) << exp + lift, d << lift
        num, size, den = num * q + (p + r) * den, size * q + (abs(p) + abs(r)) * den, den * q
    return num, size, den


def _log10_ratio(n: int, d: int) -> float:
    """log10(|n| / |d|) of nonzero integers, also far outside double range."""
    k = n.bit_length() - d.bit_length()  # so that |n| / (|d| 2^k) is in (1/2, 2)
    return math.log10(abs((n << max(0, -k)) / (d << max(0, k)))) + k * _LOG10_2


def _ladder_sum(what: str, levels) -> float:
    """sum over (b, coeffs, den) in levels of sum_t coeffs[t] / den T_t(b), as a double.

    Each level folds exactly to (S_P + S_Q T_0(b)) / D (_fold); an attempt
    (_fold_sum) sums them exactly to N / Q, accepted when its precision
    covers the digits the sum cancels, log10(S / |N|), plus _GUARD_DIGITS,
    more than the 17 that fix a double's last bit, as the correctly
    rounded N / Q. Otherwise it retries at the precision so sized. A zero
    sum holds no correct digit and doubles the precision. what names the
    quantity in the error raised when no attempt settles.
    """
    folds = [(b, *_fold(b, coeffs, den)) for b, coeffs, den in levels]
    dps = _first_dps(folds)
    for _ in range(8):
        num, size, den = _fold_sum(folds, dps)
        if not num:
            dps *= 2
            continue
        needed = _log10_ratio(size, num) + _GUARD_DIGITS
        if dps >= needed:
            return num / den
        dps = int(needed) + 1
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
    return _ladder_sum(f"theta({m}, {n}, {x!r})", [(1 / Fraction(x), *_theta_coeffs(m, n))])


def omega(cfg: SystemConfig) -> float:
    """Eavesdropper-side ergodic log-det E[ln det(I + alpha W1 + alpha beta W2)].

    Single-group branch theta(n_hat_min, n_hat_max, alpha) whenever
    |beta - 1| < 1e-6 (the two-level weights divide by the eigenvalue
    gap and explode there; continuity across the switch is a tested
    property), the exact two-level weights (_ladder_weights) on the E1
    ladder of each level otherwise.
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
    levels = (data, noise) if data[0] > noise[0] else (noise, data)
    (mu1, _), (mu2, _) = levels
    if not (mu1 > mu2 > 0.0 and math.isfinite(mu1)):
        raise DomainError(f"need mu1 > mu2 > 0, got mu1={mu1!r}, mu2={mu2!r}")
    weights = _ladder_weights(cfg.n_a, cfg.n_e, levels)
    return _ladder_sum(
        f"omega(n_a={cfg.n_a}, n_e={cfg.n_e}, mu1={mu1!r}, mu2={mu2!r})",
        [(Fraction(mu), *w) for (mu, _), w in zip(levels, weights)],
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
