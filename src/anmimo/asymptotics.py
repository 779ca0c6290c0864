"""Large-system limits of the artificial-noise secrecy rate.

Antenna counts are replaced by their ratios (transmit over eavesdropper,
transmit over legitimate, legitimate over eavesdropper) and the rate per
legitimate antenna converges to a deterministic value ``psi``. The
eavesdropper side of psi is driven by a scalar fixed point delta: the
classic eta-transform balance for a Gaussian matrix whose columns carry
one of two variance levels (data power and artificial-noise power). The
module also carries the high-SNR positivity margin ``delta_highsnr``,
whose sign at the extreme scale arguments gives a sufficient and a
necessary condition for the rate to stay positive, and a scanner that
turns those margins into critical eavesdropper antenna counts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NoRootError, NumericError, UnboundedRangeError, _finite, _integer

_BISECT_LO = 1e-15
_BISECT_MAX_ITER = 100
_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class AsymptoticRatios:
    """Antenna ratios and power budget of the large-system limit.

    beta1 = n_a/n_e, beta2 = n_a/n_b, beta3 = n_b/n_e, so
    beta1 = beta2 beta3 and rho = beta1 - beta3 = (n_a - n_b)/n_e > 0.
    p_u and p_v are the total data and artificial-noise powers; gamma is
    the noise-power ratio. Zero powers are representable (they make the
    transforms degenerate but well defined); the fixed-point solver
    itself requires both positive.
    """

    beta1: float
    beta2: float
    beta3: float
    p_u: float
    p_v: float
    gamma: float

    def __post_init__(self):
        for name, positive in (
            ("beta1", True), ("beta2", False), ("beta3", True),
            ("p_u", False), ("p_v", False), ("gamma", True),
        ):
            object.__setattr__(self, name, _finite(name, getattr(self, name), positive))
        if self.beta2 <= 1.0:
            raise DomainError(
                f"beta2 must exceed 1 (fewer legitimate than transmit antennas), "
                f"got {self.beta2!r}"
            )
        if abs(self.beta1 - self.beta2 * self.beta3) > 1e-12 * self.beta1:
            raise DomainError(
                f"inconsistent ratios: beta1={self.beta1!r} but "
                f"beta2*beta3={self.beta2 * self.beta3!r}"
            )
        if self.beta1 - self.beta3 <= 0.0:
            raise DomainError("need beta1 > beta3 (a nonempty null space)")

    @property
    def rho(self) -> float:
        return self.beta1 - self.beta3

    @classmethod
    def from_config(cls, cfg) -> "AsymptoticRatios":
        return cls(
            beta1=cfg.n_a / cfg.n_e,
            beta2=cfg.n_a / cfg.n_b,
            beta3=cfg.n_b / cfg.n_e,
            p_u=cfg.p_u,
            p_v=cfg.p_v,
            gamma=cfg.gamma,
        )

    def _scales(self) -> tuple[float, float]:
        return _scale_pair(self.p_u, self.p_v, self.gamma, self.beta3, self.rho)


def _scale_pair(p_u, p_v, gamma, beta3, rho) -> tuple[float, float]:
    # per-dimension powers of the data and the artificial-noise columns;
    # a subnormal gamma can round either divisor to zero
    try:
        return p_u / (gamma * beta3), p_v / (gamma * rho)
    except ZeroDivisionError:
        raise NumericError(
            f"power scales out of float range: gamma * beta3 = {gamma * beta3!r}, "
            f"gamma * rho = {gamma * rho!r} (gamma = {gamma!r})"
        ) from None


@dataclass(frozen=True)
class DeltaSolution:
    """Fixed point of the two-level eta-transform balance."""

    delta: float
    residual: float
    iterations: int

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"delta must lie in (0, 1], got {self.delta!r}")
        if self.residual < 0.0:
            raise DomainError("residual must be nonnegative")


def f_func(x: float, y: float) -> float:
    """(sqrt(x(1+sqrt(y))^2 + 1) - sqrt(x(1-sqrt(y))^2 + 1))^2.

    Symmetric under (x, y) -> (xy, 1/y).
    """
    return _f(_finite("x", x), _finite("y", y, positive=True))


def _f(x: float, y: float) -> float:
    # f_func on arguments already known to be floats in its domain
    sy = math.sqrt(y)
    return (
        math.sqrt(x * (1.0 + sy) ** 2 + 1.0) - math.sqrt(x * (1.0 - sy) ** 2 + 1.0)
    ) ** 2


def phi_func(x: float, y: float) -> float:
    """Almost-sure limit of (1/rows) ln det(I + (x/rows) G G^H), y = cols/rows.

    phi_func(0, y) = 0 by continuous extension, and
    phi_func(x, y) = y phi_func(xy, 1/y) (the two Gram orderings).
    """
    return _phi(_finite("x", x), _finite("y", y, positive=True))


def _phi(x: float, y: float) -> float:
    # phi_func on arguments already known to be floats in its domain
    if x == 0.0:
        return 0.0
    quarter_f = _f(x, y) / 4.0
    data = 1.0 + x - quarter_f
    cross = 1.0 + x * y - quarter_f
    if not (data > 0.0 and cross > 0.0):
        # x (1 + sqrt(y))^2 overflowed, or f cancelled 1 + x or 1 + x y away
        raise NumericError(f"phi_func({x!r}, {y!r}) is out of float range")
    return y * math.log(data) - quarter_f / x + math.log(cross)


def _check_unit_interval(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d < 0.0 or d > 1.0:
        raise DomainError(f"d must lie in [0, 1], got {d!r}")
    return d


def eta_of_delta(d: float, r: AsymptoticRatios) -> float:
    """Two-atom eta transform at depth d: weighted harmonic shrinkage.

    Weight 1/beta2 on the data scale, 1 - 1/beta2 on the noise scale;
    equals 1 at d = 0 and decreases in d.
    """
    d = _check_unit_interval(d)
    a, b = r._scales()
    w = 1.0 / r.beta2
    return w / (1.0 + d * a) + (1.0 - w) / (1.0 + d * b)


def v_of_delta(d: float, r: AsymptoticRatios) -> float:
    """Two-atom Shannon transform at depth d (same weights as eta)."""
    d = _check_unit_interval(d)
    a, b = r._scales()
    w = 1.0 / r.beta2
    return w * math.log1p(d * a) + (1.0 - w) * math.log1p(d * b)


def solve_delta(r: AsymptoticRatios) -> DeltaSolution:
    """Root of beta1 (1 - eta(delta)) = 1 - delta on (0, 1] by bisection.

    The balance function g(delta) = beta1 (1 - eta(delta)) - (1 - delta)
    has derivative >= 1 (eta is decreasing), so the residual bounds the
    delta error directly. Bisection rather than Newton: eta's derivative
    is easy to get wrong across the branch parameters and the bracket is
    guaranteed.
    """
    if r.p_u <= 0.0 or r.p_v <= 0.0:
        raise DomainError("fixed point requires p_u > 0 and p_v > 0")
    a, b = r._scales()
    w = 1.0 / r.beta2
    beta1 = r.beta1

    def g(d: float) -> float:
        # eta_of_delta(d, r); d stays inside [_BISECT_LO, 1]
        eta = w / (1.0 + d * a) + (1.0 - w) / (1.0 + d * b)
        if not math.isfinite(eta):
            raise DomainError(f"eta transform not finite at d={d!r}")
        return beta1 * (1.0 - eta) - (1.0 - d)

    lo, hi = _BISECT_LO, 1.0
    g_lo, g_hi = g(lo), g(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        raise NoRootError(
            f"no sign change on [{_BISECT_LO}, 1]: g(lo)={g_lo!r}, g(hi)={g_hi!r}"
        )
    for iterations in range(1, _BISECT_MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= _RESIDUAL_TOL:
            break
        if g_lo * g_mid <= 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    residual = abs(g_mid)
    if residual > _RESIDUAL_TOL:
        raise NoRootError(
            f"bisection stalled at residual {residual!r} after {iterations} iterations"
        )
    return DeltaSolution(delta=mid, residual=residual, iterations=iterations)


def delta_equal_scales(r: AsymptoticRatios) -> float:
    """Closed-form fixed point when the data and noise scales coincide.

    With a = p_u/(gamma beta3) = p_v/(gamma rho) the balance collapses to
    one atom and delta = 1 - f_func(a, beta1)/(4a). Cross-check path only;
    solve_delta is the production solver for every parameterization.
    """
    a, b = r._scales()
    if a <= 0.0:
        raise DomainError("requires positive power")
    if abs(a - b) > 1e-9 * max(a, b):
        raise DomainError(
            f"scales differ (data {a!r} vs noise {b!r}); "
            "closed form only valid when they coincide"
        )
    return 1.0 - f_func(a, r.beta1) / (4.0 * a)


def psi(r: AsymptoticRatios) -> float:
    """Limit of the secrecy rate per legitimate antenna, in nats.

    Legitimate term phi_func(p_u, beta2), minus the eavesdropper term
    expressed through the fixed point delta, plus the artificial-noise
    correction phi_func at the noise scale.
    """
    sol = solve_delta(r)
    d = sol.delta
    return (
        phi_func(r.p_u, r.beta2)
        - (r.beta1 * v_of_delta(d, r) - math.log(d) + d - 1.0) / r.beta3
        + phi_func(r._scales()[1], r.rho) / r.beta3
    )


def asymptotic_average_rate(cfg) -> float:
    """n_b times psi at the ratios of cfg: the finite-size approximation."""
    if cfg.alpha == 0.0:
        return 0.0
    return cfg.n_b * psi(AsymptoticRatios.from_config(cfg))


def _entropy_gap(y: float) -> float:
    # ((1 - y)/y) ln(1 - y), continuously 0 at y = 1
    if y == 1.0:
        return 0.0
    return (1.0 - y) / y * math.log(1.0 - y)


def _eve_offset(beta1: float) -> float:
    # the part of the high-SNR eavesdropper term that does not depend on
    # the scale; branch on whether the eavesdropper outnumbers the
    # transmitter (beta1 <= 1)
    if beta1 <= 1.0:
        return _entropy_gap(beta1)
    return (beta1 - 1.0) * math.log(1.0 - 1.0 / beta1)


def _residual_noise_term(p_v, gamma, rho, beta2, beta3) -> float:
    # high-SNR expansion of the artificial-noise correction; branch on
    # rho = (n_a - n_b)/n_e relative to 1
    pv_g = p_v / gamma
    if pv_g <= 0.0:
        raise DomainError("requires p_v > 0")
    if rho <= 1.0:
        return (beta2 - 1.0) * (math.log(pv_g / rho) - _entropy_gap(rho) - 1.0)
    return (math.log(pv_g) - (rho - 1.0) * math.log(1.0 - 1.0 / rho) - 1.0) / beta3


def _checked_scale(x, p_u) -> float:
    # delta_highsnr's argument checks, in its order
    x = _finite("x", x, positive=True)
    if p_u <= 0.0:
        raise DomainError("requires p_u > 0")
    return x


def _margin(x, phi, noise, offset, beta1, beta2, beta3) -> float:
    # delta_highsnr at scale x from its terms that do not depend on x:
    # phi_func(p_u, beta2), the residual noise term and the eavesdropper
    # offset. The eavesdropper term, here and in _eve_offset, raises
    # nothing for x finite and > 0: every log argument stays > 0
    if beta1 <= 1.0:
        eve = beta2 * (math.log(x) - offset - 1.0)
    else:
        eve = (math.log(x * beta1) - offset - 1.0) / beta3
    return phi - eve + noise


def delta_highsnr(x: float, r: AsymptoticRatios) -> float:
    """High-SNR positivity margin of the per-antenna rate at scale x.

    Evaluated at the larger of the two power scales this is a lower bound
    on the limiting rate (sign > 0 sufficient for positivity); at the
    smaller scale an upper bound (sign > 0 necessary). The legitimate-link
    term is kept at finite power, phi_func(p_u, beta2), instead of its own
    high-SNR expansion ln(p_u beta2) - (beta2 - 1) ln(1 - 1/beta2) - 1;
    the expansion overshoots by O(1/p_u) and visibly shifts threshold
    antenna counts at moderate power, while the finite-power form
    reproduces direct evaluation of the limit exactly.
    """
    x = _checked_scale(x, r.p_u)
    # AsymptoticRatios holds p_u finite and beta2 > 1, phi_func's domain
    phi = _phi(r.p_u, r.beta2)
    noise = _residual_noise_term(r.p_v, r.gamma, r.rho, r.beta2, r.beta3)
    return _margin(x, phi, noise, _eve_offset(r.beta1), r.beta1, r.beta2, r.beta3)


def a_min_max(r: AsymptoticRatios) -> tuple[float, float]:
    """The two per-dimension power scales, ordered (min, max).

    The scales are p_u/(gamma beta3) and p_v/(gamma rho); they coincide
    exactly when the artificial-noise power ratio is 1.
    """
    a, b = r._scales()
    return (min(a, b), max(a, b))


def _in_trust_region(alpha, beta, gamma, *dims) -> bool:
    """Both link SNRs at least 4 (roughly 6 dB) and every dimension above 2."""
    snr_floor = min(alpha * gamma, alpha * beta * gamma)
    return snr_floor >= 4.0 and min(dims) > 2


def applicability_guard(cfg) -> bool:
    """True when the high-SNR margins are inside their trust region.

    Requires both link SNRs at least 4 (roughly 6 dB) and every antenna
    count dimension above 2.
    """
    return _in_trust_region(
        cfg.alpha, cfg.beta, cfg.gamma, cfg.n_a, cfg.n_b, cfg.n_a - cfg.n_b, cfg.n_e
    )


def positivity_conditions(cfg) -> tuple[bool, bool]:
    """(sufficient, necessary) signs for a positive limiting secrecy rate.

    sufficient = margin at the larger scale > 0; necessary = margin at
    the smaller scale > 0. Outside applicability_guard(cfg) the values
    are still computed; they are then advisory only.
    """
    if cfg.alpha == 0.0:
        return (False, False)
    r = AsymptoticRatios.from_config(cfg)
    lo, hi = a_min_max(r)
    return (delta_highsnr(hi, r) > 0.0, delta_highsnr(lo, r) > 0.0)


def _roomy(*values) -> bool:
    # each value a normal float at least a factor 2 away from underflow and
    # from overflow; False for inf and nan
    return all(2.0 * sys.float_info.min <= v <= 0.5 * sys.float_info.max for v in values)


def _stop_slack(n_a, n_b, alpha, beta, gamma, p_u, p_v, beta2, phi, cap) -> float:
    """How far below 0 both float margins of critical_eve_antennas' scan
    at a step N >= n_a must lie to prove no later one up to cap positive;
    inf when a step up to cap may raise (phi None: the first one does).

    For n_e >= n_a (so beta1, rho <= 1) the margin at scale alpha c n_e,
    c = max(1, beta) sufficient and min(1, beta) necessary, is
      M(n_e) = K_c - ln n_e + beta2 E(n_a/n_e) - (beta2 - 1) E((n_a - n_b)/n_e),
      K_c = phi - beta2 ln(alpha c) + (beta2 - 1) ln(alpha beta) + 1,
    with E = _entropy_gap. h(y) = y E'(y) = sum_{k>=1} y^k/(k + 1) is >= 0
    and increases on (0, 1], so
      dM/dn_e = (-1 - beta2 h(n_a/n_e) + (beta2 - 1) h((n_a - n_b)/n_e))/n_e <= -1/n_e.
    If every float margin up to cap lies within slack/2 of its M, one
    below -slack at N puts M(N) and every later M below -slack/2, and so
    every later float margin below 0.
    """
    if phi is None or n_a >= (n_a - n_b) << 40:
        return math.inf
    # The steps raise nothing and stay close to M when every product and
    # quotient they round is a normal float with room to spare. gamma beta3
    # and the data scale are monotone in n_e; rho = beta1 - beta3 is within
    # 2**-52 n_a/(n_a - n_b) < 2**-12 relative (the check above), so it
    # stays > 0 and its products move less than the room. Checking each at
    # the cap covers every step.
    beta1, beta3 = n_a / cap, n_b / cap
    rho = beta1 - beta3
    if not (
        _roomy(alpha * gamma, alpha * beta * gamma, alpha * min(1.0, beta), alpha * beta)
        and _roomy(gamma * beta3, gamma * rho)
        and _roomy(p_u / (gamma * beta3), p_v / (gamma * rho), p_v / gamma / rho)
    ):
        return math.inf
    # Beside phi a float margin rounds terms of size at most beta2 size
    # (logs of the scales, E and 1): 1e-9 of that covers their few ulps
    # many times over. The 1/y in E at beta1 and rho and the cancellation
    # in rho each cost at most beta2 cap ulps of 1; slack/2, 32 beta2 cap
    # ulps, covers the three with a safety factor of 10.
    size = abs(math.log(alpha)) + abs(math.log(alpha * beta)) + math.log(cap) + 2.0
    return 1e-9 * (abs(phi) + 2.0 * beta2 * size) + 64.0 * beta2 * cap * sys.float_info.epsilon


def critical_eve_antennas(
    n_a: int,
    n_b: int,
    alpha: float,
    beta: float,
    gamma: float,
    max_eve_antennas: int = 4096,
) -> tuple[int, int]:
    """Largest eavesdropper antenna counts keeping each margin positive.

    Returns (n_suff, n_nec): beyond n_suff positivity is no longer
    guaranteed by the sufficient condition, beyond n_nec it is ruled out
    by the necessary one. Either value may be 0 when no antenna count
    satisfies its condition.

    The scan visits every n_e below n_a, where outside applicability_guard
    the margins are not monotone in n_e (a sign can come back after it
    turned). From n_a on both margins fall at least as fast as -ln n_e:
    the scan ends at the first step where both are negative by far more
    than float rounding, unless a step up to max_eve_antennas might raise;
    then it runs to the cap. If a margin is still positive at the cap the
    threshold is unresolved and the scan raises UnboundedRangeError.
    Thresholds and errors are those of delta_highsnr on AsymptoticRatios
    at each n_e up to the cap, but the ratios are validated once and
    phi_func(p_u, beta2) is evaluated once.
    """
    n_a = _integer("n_a", n_a, 1)
    n_b = _integer("n_b", n_b, 1)
    if n_b >= n_a:
        raise DomainError(f"need n_b < n_a, got n_b={n_b}, n_a={n_a}")
    alpha = _finite("alpha", alpha, positive=True)
    beta = _finite("beta", beta, positive=True)
    gamma = _finite("gamma", gamma, positive=True)
    max_eve_antennas = _integer("max_eve_antennas", max_eve_antennas, 1)

    p_u = alpha * gamma * n_b
    p_v = alpha * beta * gamma * (n_a - n_b)
    # the ratios at n_e = 1 carry every check that can fail except
    # rho > 0, which moves with n_e (it fails only beyond 2**52 antennas)
    beta2 = n_a / n_b
    AsymptoticRatios(beta1=n_a / 1, beta2=beta2, beta3=n_b / 1, p_u=p_u, p_v=p_v, gamma=gamma)
    try:
        phi = _phi(p_u, beta2)
    except ArithmeticError:
        phi = None  # raised again after the first step's checks, as delta_highsnr orders them
    floor = -_stop_slack(n_a, n_b, alpha, beta, gamma, p_u, p_v, beta2, phi, max_eve_antennas)
    n_suff = n_nec = 0
    for n_e in range(1, max_eve_antennas + 1):
        beta1 = n_a / n_e
        beta3 = n_b / n_e
        rho = beta1 - beta3
        if rho <= 0.0:
            raise DomainError("need beta1 > beta3 (a nonempty null space)")
        a, b = _scale_pair(p_u, p_v, gamma, beta3, rho)
        hi = _checked_scale(max(a, b), p_u)
        if phi is None:
            phi = _phi(p_u, beta2)
        # the eavesdropper term raises nothing (see _margin), so the noise
        # term both margins share may come before it
        noise = _residual_noise_term(p_v, gamma, rho, beta2, beta3)
        offset = _eve_offset(beta1)
        suff = _margin(hi, phi, noise, offset, beta1, beta2, beta3)
        lo = _checked_scale(min(a, b), p_u)
        nec = _margin(lo, phi, noise, offset, beta1, beta2, beta3)
        if suff > 0.0:
            n_suff = n_e
        if nec > 0.0:
            n_nec = n_e
        if nec < floor and suff < floor and n_e >= n_a:
            break
    if suff > 0.0 or nec > 0.0:
        raise UnboundedRangeError(
            f"positivity margin still positive at the scan cap {max_eve_antennas}"
        )
    return (n_suff, n_nec)
