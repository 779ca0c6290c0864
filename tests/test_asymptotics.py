"""Large-system rate formulas, fixed point, and design thresholds."""

import math
import random
import sys
import time

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anmimo import asymptotics
from anmimo import (
    AsymptoticRatios,
    DeltaSolution,
    DomainError,
    NoRootError,
    NumericError,
    SystemConfig,
    UnboundedRangeError,
    a_min_max,
    applicability_guard,
    asymptotic_average_rate,
    average_secrecy_rate,
    critical_eve_antennas,
    delta_equal_scales,
    delta_highsnr,
    design_report,
    eta_of_delta,
    f_func,
    mc_logdet_oracle,
    mc_normalized_rate_sample,
    phi_func,
    positivity_conditions,
    psi,
    solve_delta,
    v_of_delta,
)

EXAMPLE3 = dict(alpha=10 ** 0.3, beta=10 ** 0.1, gamma=10 ** 0.3)


def ratios(n_a, n_b, n_e, alpha, beta, gamma):
    return AsymptoticRatios.from_config(
        SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)
    )


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def random_configs(seed, count):
    # n_a <= 40; alpha, beta and gamma log-uniform over 1e-3..1e4
    rng = random.Random(seed)
    for _ in range(count):
        n_a = rng.randint(2, 40)
        n_b = rng.randint(1, n_a - 1)
        yield n_a, n_b, *(10.0 ** rng.uniform(-3.0, 4.0) for _ in range(3)), rng


def reference_scan(n_a, n_b, alpha, beta, gamma, max_eve_antennas=4096):
    """critical_eve_antennas on the public API: fresh ratios and both
    delta_highsnr margins at every n_e."""
    p_u = alpha * gamma * n_b
    p_v = alpha * beta * gamma * (n_a - n_b)
    n_suff = n_nec = 0
    suff = nec = False
    for n_e in range(1, max_eve_antennas + 1):
        r = AsymptoticRatios(
            beta1=n_a / n_e, beta2=n_a / n_b, beta3=n_b / n_e, p_u=p_u, p_v=p_v, gamma=gamma
        )
        a_min, a_max = a_min_max(r)
        suff = delta_highsnr(a_max, r) > 0.0
        nec = delta_highsnr(a_min, r) > 0.0
        n_suff = n_e if suff else n_suff
        n_nec = n_e if nec else n_nec
    if suff or nec:
        raise UnboundedRangeError(
            f"positivity margin still positive at the scan cap {max_eve_antennas}"
        )
    return n_suff, n_nec


def spy_stops(monkeypatch, limit=math.inf):
    """The steps at which critical_eve_antennas' scans end, as a list
    that fills as the scans run: a scan calls _residual_noise_term once
    per step, and calls from elsewhere are not counted. A scan that goes
    on past step limit fails."""
    stops = []
    scan = [None]  # the frame of the scan whose steps stops[-1] counts

    def counted(*args):
        caller = sys._getframe(1)
        if caller.f_code is critical_eve_antennas.__code__:
            if scan[0] is not caller:
                scan[0] = caller
                stops.append(0)
            stops[-1] += 1
            assert stops[-1] <= limit, f"the scan runs on past step {limit}"
        return real(*args)

    real = asymptotics._residual_noise_term
    monkeypatch.setattr(asymptotics, "_residual_noise_term", counted)
    return stops


def reference_solve_delta(r):
    """solve_delta's bisection with the balance written through eta_of_delta."""
    if r.p_u <= 0.0 or r.p_v <= 0.0:
        raise DomainError("fixed point requires p_u > 0 and p_v > 0")

    def g(d):
        eta = eta_of_delta(d, r)
        if not math.isfinite(eta):
            raise DomainError(f"eta transform not finite at d={d!r}")
        return r.beta1 * (1.0 - eta) - (1.0 - d)

    lo, hi = 1e-15, 1.0
    g_lo, g_hi = g(lo), g(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        raise NoRootError(f"no sign change on [{lo}, 1]: g(lo)={g_lo!r}, g(hi)={g_hi!r}")
    for iterations in range(1, 101):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= 1e-12:
            break
        if g_lo * g_mid <= 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    residual = abs(g_mid)
    if residual > 1e-12:
        raise NoRootError(
            f"bisection stalled at residual {residual!r} after {iterations} iterations"
        )
    return DeltaSolution(delta=mid, residual=residual, iterations=iterations)


class TestFFunc:
    def test_zero_power(self):
        for y in (0.25, 1.0, 3.0):
            assert f_func(0.0, y) == 0.0

    def test_square_case(self):
        for x in (0.5, 2.0, 10.0):
            expect = (math.sqrt(4.0 * x + 1.0) - 1.0) ** 2
            assert f_func(x, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_aspect_swap_symmetry(self):
        for x in (0.1, 0.7, 2.0, 9.0, 40.0):
            for y in (0.1, 0.5, 1.0, 2.0, 8.0):
                assert f_func(x, y) == pytest.approx(f_func(x * y, 1.0 / y), rel=1e-10)


class TestPhiFunc:
    def test_zero_power(self):
        assert phi_func(0.0, 2.0) == 0.0

    def test_overflow_is_a_numeric_error(self):
        # x (1 + sqrt(y))^2 overflows to inf, which left a log of -inf
        with pytest.raises(NumericError, match="out of float range"):
            phi_func(1.7e308, 2.0)
        with pytest.raises(NumericError, match="out of float range"):
            critical_eve_antennas(6, 3, 1.7e308, 1.05, 0.3)
        # 1 + x - f/4 cancels to zero long before x overflows
        with pytest.raises(NumericError, match="out of float range"):
            phi_func(6191151442875704.0, 2.2663230660250617)

    def test_scaling_identity_grid(self):
        xs = [0.05 * 1.45 ** i for i in range(20)]
        ys = [0.08 * 1.35 ** i for i in range(20)]
        for x in xs:
            for y in ys:
                lhs = phi_func(x, y)
                rhs = y * phi_func(x * y, 1.0 / y)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_high_snr_expansion(self):
        # ln x - phi(x,y)/y approaches (1-y)/y ln(1-y) + 1 for y < 1 at
        # rate O(1/x); the square case y=1 approaches its limit 1 only
        # like 2/sqrt(x), so it is checked against the rate-corrected
        # value (the plain 1e-3 window is unreachable at x=1e6 there)
        x = 1e6
        for y in (0.25, 0.5):
            gap = math.log(x) - phi_func(x, y) / y
            expect = (1.0 - y) / y * math.log(1.0 - y) + 1.0
            assert gap == pytest.approx(expect, abs=1e-3)
        gap = math.log(x) - phi_func(x, 1.0)
        assert gap == pytest.approx(1.0 - 2.0 / math.sqrt(x), abs=1e-3)

    def test_matches_large_matrix_mean(self):
        # per-antenna log-det of a 64x128 system at per-column SNR 4/128:
        # mean/rows = phi(scale*rows, cols/rows), equivalently
        # (1/y)*phi(4, 0.5) through the scaling identity
        est = mc_logdet_oracle(64, 128, 4.0 / 128.0, 50, seed=77)
        assert est.mean / 64.0 == pytest.approx(phi_func(2.0, 2.0), rel=0.01)
        assert phi_func(2.0, 2.0) == pytest.approx(2.0 * phi_func(4.0, 0.5), rel=1e-12)


class TestEtaAndV:
    def setup_method(self):
        self.r = ratios(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)

    def test_eta_at_zero_loading(self):
        assert eta_of_delta(0.0, self.r) == 1.0

    def test_eta_monotone_decreasing(self):
        ds = [i / 20.0 for i in range(21)]
        vals = [eta_of_delta(d, self.r) for d in ds]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_eta_unpowered_is_one(self):
        r0 = AsymptoticRatios(
            beta1=1.5, beta2=2.0, beta3=0.75, p_u=0.0, p_v=0.0, gamma=1.0
        )
        for d in (0.0, 0.3, 1.0):
            assert eta_of_delta(d, r0) == 1.0
            assert v_of_delta(d, r0) == 0.0

    def test_v_at_zero_loading(self):
        assert v_of_delta(0.0, self.r) == 0.0

    def test_v_monotone_increasing(self):
        ds = [i / 20.0 for i in range(21)]
        vals = [v_of_delta(d, self.r) for d in ds]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            eta_of_delta(-0.1, self.r)
        with pytest.raises(DomainError):
            v_of_delta(1.1, self.r)


def wide_ratios(seed, count):
    """Seeded ratios with n_a log-uniform over 2..10**6 and n_e up to n_a
    (in every other draw at most 8, where n_a/n_e gets largest); alpha,
    beta and gamma log-uniform over 1e-4..1e8."""
    rng = random.Random(seed)
    for i in range(count):
        n_a = min(max(round(10.0 ** rng.uniform(0.3, 6.0)), 2), 10**6)
        n_b = rng.randint(1, n_a - 1)
        n_e = rng.randint(1, min(n_a, 8)) if i % 2 else round(n_a ** rng.random())
        yield ratios(n_a, n_b, n_e, *(10.0 ** rng.uniform(-4.0, 8.0) for _ in range(3)))


def balance(r, d):
    """solve_delta's balance g(d) in floats, written through eta_of_delta."""
    return r.beta1 * (1.0 - eta_of_delta(d, r)) - (1.0 - d)


def balance_root(r, dps=50):
    """The root of the same balance at dps digits: the doubles the solver
    forms (the two scales, the weight 1/beta2 and beta1) taken exactly."""
    with mp.workdps(dps):
        a, b = (mp.mpf(s) for s in (r.p_u / (r.gamma * r.beta3), r.p_v / (r.gamma * r.rho)))
        w, beta1 = mp.mpf(1.0 / r.beta2), mp.mpf(r.beta1)

        def g(d):
            return beta1 * (1 - w / (1 + d * a) - (1 - w) / (1 + d * b)) - (1 - d)

        return mp.findroot(g, (mp.mpf(1e-15), mp.mpf(1)), solver="anderson")


def check_solve_delta(seed, count):
    """Hold solve_delta to reference_solve_delta over wide_ratios(seed,
    count): the same value or error wherever the reference does not stall,
    and where it does, delta within 1e-9 relative of balance_root with the
    residual |g(delta)|. Returns the number of stalls."""
    stalls = 0
    for r in wide_ratios(seed, count):
        want = outcome(reference_solve_delta, r)
        got = outcome(solve_delta, r)
        if isinstance(want, tuple) and want[1].startswith("bisection stalled"):
            stalls += 1
            root = balance_root(r)
            assert abs(got.delta - root) <= 1e-9 * root, r
            assert got.residual == abs(balance(r, got.delta)), r
        else:
            assert got == want, r
    return stalls


class TestSolveDelta:
    def test_residual_invariant_random(self):
        rng = random.Random(5)
        for _ in range(30):
            n_e = rng.randint(1, 12)
            n_a = rng.randint(2, 12)
            n_b = rng.randint(1, n_a - 1)
            r = ratios(
                n_a,
                n_b,
                n_e,
                alpha=rng.uniform(0.2, 8.0),
                beta=rng.uniform(0.2, 5.0),
                gamma=rng.uniform(0.2, 8.0),
            )
            sol = solve_delta(r)
            assert 0.0 < sol.delta <= 1.0
            assert sol.residual <= 1e-12

    def test_equal_scale_closed_form_agreement(self):
        # equal data and noise scales admit an explicit root
        for alpha in (0.5, 2.0, 20.0):
            r = ratios(8, 4, 4, alpha=alpha, beta=1.0, gamma=3.0)
            sol = solve_delta(r)
            assert sol.delta == pytest.approx(delta_equal_scales(r), abs=1e-10)

    def test_named_equal_power_tuple(self):
        # beta1=2, beta2=2, beta3=1, gamma=1, equal powers
        r = AsymptoticRatios(beta1=2.0, beta2=2.0, beta3=1.0, p_u=4.0, p_v=4.0, gamma=1.0)
        sol = solve_delta(r)
        assert sol.delta == pytest.approx(delta_equal_scales(r), abs=1e-10)
        assert sol.residual <= 1e-12

    def test_rejects_unpowered(self):
        r0 = AsymptoticRatios(
            beta1=2.0, beta2=2.0, beta3=1.0, p_u=0.0, p_v=1.0, gamma=1.0
        )
        with pytest.raises(DomainError):
            solve_delta(r0)

    def test_matches_balance_through_eta_of_delta(self):
        for n_a, n_b, alpha, beta, gamma, rng in random_configs(7, 300):
            r = ratios(n_a, n_b, rng.randint(1, 40), alpha, beta, gamma)
            assert outcome(solve_delta, r) == outcome(reference_solve_delta, r), r

    def test_matches_reference_up_to_a_million_antennas(self):
        # the reference stalls where g's slope, about beta1 = n_a/n_e,
        # leaves no double within the tolerance; solve_delta then stops on
        # its closed bracket and agrees with it everywhere else
        assert check_solve_delta(17, 2000) >= 100

    def test_equal_scale_helper_rejects_mismatch(self):
        r = ratios(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        with pytest.raises(DomainError):
            delta_equal_scales(r)
        r0 = AsymptoticRatios(beta1=2.0, beta2=2.0, beta3=1.0, p_u=0.0, p_v=0.0, gamma=1.0)
        with pytest.raises(DomainError, match="^requires positive power$"):
            delta_equal_scales(r0)

    def test_solution_checks_its_range(self):
        assert DeltaSolution(delta=1.0, residual=0.0, iterations=0).delta == 1.0
        for delta in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError, match=r"^delta must lie in \(0, 1\]"):
                DeltaSolution(delta=delta, residual=0.0, iterations=1)
        with pytest.raises(DomainError, match="^residual must be nonnegative$"):
            DeltaSolution(delta=0.5, residual=-1e-300, iterations=1)


class TestPsi:
    def test_equal_scale_reduction(self):
        # with beta=1 the fixed-point bracket collapses to a phi difference
        r = ratios(8, 4, 4, alpha=2.0, beta=1.0, gamma=3.0)
        a = r.p_u / (r.gamma * r.beta3)
        expect = (
            phi_func(r.p_u, r.beta2)
            - phi_func(a, r.beta1) / r.beta3
            + phi_func(a, r.beta1 - r.beta3) / r.beta3
        )
        assert psi(r) == pytest.approx(expect, rel=1e-9)

    def test_vanishing_data_power_drops_first_term(self):
        r_small = AsymptoticRatios(
            beta1=2.0, beta2=2.0, beta3=1.0, p_u=1e-9, p_v=4.0, gamma=1.0
        )
        first = phi_func(r_small.p_u, r_small.beta2)
        assert first <= 1e-8
        rest = psi(r_small) - first
        assert math.isfinite(rest)

    def test_finite_size_tracking(self):
        c = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=2.0, beta=0.5, gamma=2.0)
        exact = average_secrecy_rate(c)
        approx = asymptotic_average_rate(c)
        assert abs(approx - exact) / abs(exact) <= 0.02

    def test_doubling_dimensions_tightens(self):
        base = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=2.0, beta=0.5, gamma=2.0)
        doubled = SystemConfig(n_a=12, n_b=6, n_e=8, alpha=2.0, beta=0.5, gamma=2.0)
        dev = [
            abs(asymptotic_average_rate(c) - average_secrecy_rate(c))
            / abs(average_secrecy_rate(c))
            for c in (base, doubled)
        ]
        assert dev[1] < dev[0]

    def test_zero_snr(self):
        c = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=0.0, beta=0.5, gamma=2.0)
        assert asymptotic_average_rate(c) == 0.0

    def test_steep_antenna_ratio_tracks_exact_rate(self):
        # n_a/n_e = 16000, where the fixed point's bisection ends on a
        # closed bracket: the limit still matches the exact rate
        c = SystemConfig(n_a=16000, n_b=1, n_e=1, alpha=100.0, beta=1.0, gamma=1.0)
        with pytest.raises(NoRootError, match="^bisection stalled at residual"):
            reference_solve_delta(AsymptoticRatios.from_config(c))
        exact = average_secrecy_rate(c)
        assert abs(asymptotic_average_rate(c) - exact) <= 1e-9 * abs(exact)

    @pytest.mark.parametrize(
        "alpha, beta, gamma", [(4.0, 2.0, 4.0), (2.0, 0.5, 2.0), (10.0, 1.0, 1.0)]
    )
    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1, 2), (4, 2, 1)])
    def test_per_antenna_gap_shrinks_at_fixed_ratios(self, shape, alpha, beta, gamma):
        # the large-system limit at fixed antenna ratios (Tulino & Verdu
        # 2004): scaling every count by k, the gap per legitimate antenna
        # falls at every step of k up to n = 48
        gaps = []
        for k in range(1, 48 // max(shape[0], shape[2]) + 1):
            n_a, n_b, n_e = (k * s for s in shape)
            c = SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)
            gaps.append(abs(average_secrecy_rate(c) - asymptotic_average_rate(c)) / n_b)
        assert len(gaps) >= 4
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps


class TestHighSnrMargin:
    def test_example_thresholds_sign_pattern(self):
        for n_e in range(3, 20):
            r = ratios(6, 3, n_e, **EXAMPLE3)
            a_min, a_max = a_min_max(r)
            suff = delta_highsnr(a_max, r)
            nec = delta_highsnr(a_min, r)
            assert (suff > 0.0) == (n_e <= 12)
            assert (nec > 0.0) == (n_e <= 16)
            assert suff <= nec

    def test_equal_scale_margins_coincide(self):
        r = ratios(8, 4, 5, alpha=4.0, beta=1.0, gamma=2.0)
        a_min, a_max = a_min_max(r)
        assert a_min == a_max
        assert delta_highsnr(a_min, r) == delta_highsnr(a_max, r)

    def test_margin_matches_its_formula_bitwise(self):
        # the expansion written out in full, in the order of the
        # paper's terms: legitimate, eavesdropper, residual noise
        def gap(y):
            return 0.0 if y == 1.0 else (1.0 - y) / y * math.log(1.0 - y)

        def margin(x, r):
            b1, rho, pv_g = r.beta1, r.rho, r.p_v / r.gamma
            if b1 <= 1.0:
                eve = r.beta2 * (math.log(x) - gap(b1) - 1.0)
            else:
                eve = (math.log(x * b1) - (b1 - 1.0) * math.log(1.0 - 1.0 / b1) - 1.0) / r.beta3
            if rho <= 1.0:
                noise = (r.beta2 - 1.0) * (math.log(pv_g / rho) - gap(rho) - 1.0)
            else:
                noise = (math.log(pv_g) - (rho - 1.0) * math.log(1.0 - 1.0 / rho) - 1.0) / r.beta3
            return phi_func(r.p_u, r.beta2) - eve + noise

        for n_a, n_b, alpha, beta, gamma, rng in random_configs(3, 200):
            r = ratios(n_a, n_b, rng.randint(1, 40), alpha, beta, gamma)
            for x in a_min_max(r):
                assert delta_highsnr(x, r) == margin(x, r), (r, x)

    def test_rejects_nonpositive_argument(self):
        r = ratios(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        with pytest.raises(DomainError):
            delta_highsnr(0.0, r)

    def test_rejects_zero_legitimate_power(self):
        r = AsymptoticRatios(beta1=2.0, beta2=2.0, beta3=1.0, p_u=0.0, p_v=1.0, gamma=1.0)
        with pytest.raises(DomainError) as exc:
            delta_highsnr(1.0, r)
        assert str(exc.value) == "requires p_u > 0"

    def test_desk_scale_sandwich(self):
        c = SystemConfig(n_a=64, n_b=32, n_e=32, alpha=100.0, beta=2.0, gamma=100.0)
        r = AsymptoticRatios.from_config(c)
        a_min, a_max = a_min_max(r)
        lo = delta_highsnr(a_max, r) - 0.1
        hi = delta_highsnr(a_min, r) + 0.1
        sample = mc_normalized_rate_sample(c, 50, seed=13)
        mean = sum(sample) / len(sample)
        assert lo <= mean <= hi


class TestDesignScan:
    def test_named_thresholds(self):
        assert critical_eve_antennas(6, 3, **EXAMPLE3) == (12, 16)

    def test_equal_scale_thresholds_coincide(self):
        n_suff, n_nec = critical_eve_antennas(6, 3, alpha=4.0, beta=1.0, gamma=4.0)
        assert n_suff == n_nec

    def test_more_bob_snr_never_hurts(self):
        # the eavesdropper scales P_u/(gamma*beta3) and P_v/(gamma*rho)
        # do not involve gamma (it cancels), while the data-power term
        # grows with it, so raising gamma can only push thresholds up
        lo = critical_eve_antennas(6, 3, **EXAMPLE3)
        hi = critical_eve_antennas(
            6, 3, alpha=EXAMPLE3["alpha"], beta=EXAMPLE3["beta"], gamma=2.0 * EXAMPLE3["gamma"]
        )
        assert hi[0] >= lo[0] and hi[1] >= lo[1]

    def test_extra_eve_snr_can_cost_a_sufficient_antenna(self):
        # doubling alpha raises the data power and both eavesdropper
        # scales together; with the finite-power data term the net
        # margin slope is slightly negative, so the sufficient count
        # may drop by one while the necessary count holds
        base = critical_eve_antennas(6, 3, **EXAMPLE3)
        more = critical_eve_antennas(
            6, 3, alpha=2.0 * EXAMPLE3["alpha"], beta=EXAMPLE3["beta"], gamma=EXAMPLE3["gamma"]
        )
        assert base == (12, 16)
        assert more == (11, 16)

    def test_scan_matches_public_margins(self, monkeypatch):
        kinds = set()
        for n_a, n_b, alpha, beta, gamma, rng in random_configs(11, 150):
            cap = rng.choice((16, 64, 512))
            want = outcome(reference_scan, n_a, n_b, alpha, beta, gamma, cap)
            got = outcome(critical_eve_antennas, n_a, n_b, alpha, beta, gamma, cap)
            assert got == want, (n_a, n_b, alpha, beta, gamma, cap)
            kinds.add(want[0] if isinstance(want[0], type) else "thresholds")
        assert kinds == {"thresholds", UnboundedRangeError}
        # at the default cap every draw whose thresholds resolve ends at
        # the bound's stop, long before the cap
        stops = spy_stops(monkeypatch)
        resolved = 0
        for n_a, n_b, alpha, beta, gamma, _ in random_configs(12, 25):
            want = outcome(reference_scan, n_a, n_b, alpha, beta, gamma)
            got = outcome(critical_eve_antennas, n_a, n_b, alpha, beta, gamma)
            assert got == want, (n_a, n_b, alpha, beta, gamma)
            resolved += not isinstance(want[0], type)
        assert resolved >= 10
        assert sum(stop < 4096 for stop in stops) == resolved

    @pytest.mark.parametrize(
        "n_a, n_b, point, thresholds",
        [
            (6, 3, EXAMPLE3, (12, 16)),
            # test_non_monotone_margin_scans_to_cap's point
            (7, 3, dict(alpha=3.6587, beta=0.1149, gamma=4.0394), (7, 199)),
            (16, 8, dict(alpha=10 ** 0.9, beta=10 ** -0.6, gamma=10 ** 0.6), None),
            (4, 3, dict(alpha=1.0, beta=10 ** 0.3, gamma=1.0), None),
            (12, 2, dict(alpha=10 ** 0.45, beta=0.25, gamma=10 ** 0.2), None),
        ],
    )
    def test_no_margin_is_positive_past_the_stop(self, monkeypatch, n_a, n_b, point, thresholds):
        stops = spy_stops(monkeypatch)
        got = critical_eve_antennas(n_a, n_b, **point)
        assert thresholds is None or got == thresholds
        (stop,) = stops
        assert max(got) < stop < 4096
        for n_e in range(stop, 4097):
            cfg = SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, **point)
            assert positivity_conditions(cfg) == (False, False), n_e

    def test_large_cap_stops_early(self, monkeypatch):
        # the slack's rounding term is 64 beta2 cap ulps, 0.03 here, well
        # below the margins a few steps past the thresholds
        stops = spy_stops(monkeypatch, limit=1000)
        start = time.perf_counter()
        assert critical_eve_antennas(6, 3, **EXAMPLE3, max_eve_antennas=10**12) == (12, 16)
        assert time.perf_counter() - start < 1.0
        assert stops == [17]

    def test_documented_cap_limit_stops_early(self, monkeypatch):
        # at the largest cap the docstring recommends, 10**14, the
        # rounding term is 2.8 and both margins fall below the slack
        # within a few hundred steps (at 5*10**14 only after 30 s or more)
        stops = spy_stops(monkeypatch, limit=1000)
        assert critical_eve_antennas(6, 3, **EXAMPLE3, max_eve_antennas=10**14) == (12, 16)
        assert stops == [211]

    def test_margins_fall_past_n_a(self):
        # the premise of the scan's early stop: from n_a on each float
        # margin falls between steps by at least ln(n_e/(n_e - 1)), the
        # fall of -ln n_e, less 64 beta2 n_e ulps (the slack's rounding
        # term with the cap at n_e); the sufficient margin never exceeds
        # the necessary one
        for n_a, n_b, alpha, beta, gamma, _ in random_configs(13, 24):
            prev = None
            for n_e in range(n_a, 4096):
                r = ratios(n_a, n_b, n_e, alpha, beta, gamma)
                a_min, a_max = a_min_max(r)
                margins = (delta_highsnr(a_max, r), delta_highsnr(a_min, r))
                where = (n_a, n_b, alpha, beta, gamma, n_e)
                assert margins[0] <= margins[1], where
                if prev is not None:
                    allowance = 64.0 * r.beta2 * n_e * sys.float_info.epsilon
                    least_fall = math.log(n_e / (n_e - 1)) - allowance
                    for before, now in zip(prev, margins):
                        assert now <= before - least_fall, where
                prev = margins

    def test_entropy_gap_slope(self):
        # the stop's proof needs h(y) = y E'(y), E = _entropy_gap, to be
        # >= 0 and increasing on (0, 1]
        def h(y):
            return math.inf if y == 1.0 else -math.log1p(-y) / y - 1.0

        ys = sorted({k / 64 for k in range(1, 65)} | {1.0 - 2.0**-k for k in range(7, 50, 6)})
        hs = [h(y) for y in ys]
        assert hs[0] > 0.0
        assert all(a < b for a, b in zip(hs, hs[1:]))
        for y in ys[:32]:  # y <= 1/2: h is the series and E's slope
            series = math.fsum(y**k / (k + 1) for k in range(1, 80))
            assert h(y) == pytest.approx(series, rel=1e-12)
            d = 1e-6 * y
            slope = (asymptotics._entropy_gap(y + d) - asymptotics._entropy_gap(y - d)) / (2 * d)
            assert y * slope == pytest.approx(h(y), rel=1e-6)

    @pytest.mark.parametrize(
        "args, cap, expected",
        [
            ((6, 3, 5e-324, 1.0, 0.1), 4096, "x must be finite and > 0, got 0.0"),
            ((6, 3, 1e-300, 1e-300, 1.0), 4096, "requires p_v > 0"),
            ((6, 3, 1e306, 1.0, 2.0), 4096, "x must be finite and > 0, got inf"),
            ((6, 3, 1e300, 1e10, 2.0), 4096, "p_v must be finite and >= 0, got inf"),
            # the larger scale overflows at n_e = 1, where phi_func(p_u, beta2)
            # would raise: the scale check comes first
            (
                (6, 3, 7.209213840107708e307, 2.493604954344727, 0.20875656860834363),
                4096,
                "x must be finite and > 0, got inf",
            ),
            # beta1 and beta3 round to the same double at n_e = 51
            (
                (36028797018976318, 36028797018976313, 1.0, 1.0, 2.0),
                64,
                "need beta1 > beta3 (a nonempty null space)",
            ),
            # gamma beta3 and gamma rho round to 0.0 at n_e = 7
            (
                (6, 3, 1e300, 1.0, 5e-324),
                4096,
                "power scales out of float range: gamma * beta3 = 0.0, "
                "gamma * rho = 0.0 (gamma = 5e-324)",
            ),
            # p_u (1 + sqrt(beta2))^2 overflows in phi_func(p_u, beta2)
            (
                (6, 3, 1.7e308, 1.05, 0.3),
                4096,
                "phi_func(1.5299999999999998e+308, 2.0) is out of float range",
            ),
            # the margins' bound is negative from n_e = 6 on, but the
            # scales overflow near n_e = 1800: the scan must not stop early
            ((6, 3, 1e305, 1.0, 1e-300), 4096, "x must be finite and > 0, got inf"),
            ((6, 3, 1e305, 1.0, 1e-300), 1024, (3, 3)),
        ],
    )
    def test_edge_errors_match_public_margins(self, args, cap, expected):
        # expected is the message raised, or the thresholds returned
        want = outcome(reference_scan, *args, max_eve_antennas=cap)
        assert (want if isinstance(expected, tuple) else want[1]) == expected
        assert outcome(critical_eve_antennas, *args, max_eve_antennas=cap) == want

    def test_non_monotone_margin_scans_to_cap(self):
        # outside applicability_guard the sufficient margin turns positive
        # again after it has failed, so the scan cannot stop at the first
        # sign change
        point = dict(alpha=3.6587, beta=0.1149, gamma=4.0394)
        signs = [
            positivity_conditions(SystemConfig(n_a=7, n_b=3, n_e=n_e, **point))[0]
            for n_e in range(1, 9)
        ]
        assert signs == [True, True, True, False, True, False, True, False]
        report = design_report(7, 3, **point)
        assert (report["n_sufficient"], report["n_necessary"]) == (7, 199)
        assert report["advisory"] is True

    def test_cutoff_reported(self):
        with pytest.raises(UnboundedRangeError):
            critical_eve_antennas(6, 3, max_eve_antennas=8, **EXAMPLE3)

    def test_positivity_example_points(self):
        checks = {10: (True, True), 14: (False, True), 20: (False, False)}
        for n_e, expect in checks.items():
            c = SystemConfig(n_a=6, n_b=3, n_e=n_e, **EXAMPLE3)
            assert positivity_conditions(c) == expect

    def test_zero_snr_is_never_positive(self):
        c = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=0.0, beta=1.0, gamma=2.0)
        assert positivity_conditions(c) == (False, False)

    def test_applicability_guard(self):
        good = SystemConfig(n_a=8, n_b=4, n_e=4, alpha=4.0, beta=1.0, gamma=2.0)
        assert applicability_guard(good)
        weak_snr = SystemConfig(n_a=8, n_b=4, n_e=4, alpha=0.5, beta=1.0, gamma=2.0)
        assert not applicability_guard(weak_snr)
        thin = SystemConfig(n_a=8, n_b=6, n_e=4, alpha=4.0, beta=1.0, gamma=2.0)
        assert not applicability_guard(thin)  # n_a - n_b = 2 is not > 2


class TestRatioValidation:
    def test_from_config_consistent(self):
        r = ratios(6, 3, 4, alpha=2.0, beta=0.5, gamma=2.0)
        assert r.beta1 == pytest.approx(6.0 / 4.0)
        assert r.beta2 == pytest.approx(2.0)
        assert r.beta3 == pytest.approx(3.0 / 4.0)
        assert r.rho == pytest.approx(r.beta1 - r.beta3)

    def test_rejects_inconsistent_products(self):
        with pytest.raises(ValueError):
            AsymptoticRatios(beta1=2.0, beta2=2.0, beta3=0.9, p_u=1.0, p_v=1.0, gamma=1.0)

    def test_rejects_thin_receive_array(self):
        with pytest.raises(ValueError):
            AsymptoticRatios(beta1=1.0, beta2=1.0, beta3=1.0, p_u=1.0, p_v=1.0, gamma=1.0)

    def test_subnormal_gamma_scales_are_a_numeric_error(self):
        # gamma beta3 = 5e-324 * 3/7 rounds to 0.0, which divided p_u by zero
        r = ratios(6, 3, 7, alpha=1e300, beta=1.0, gamma=5e-324)
        for fn in (a_min_max, solve_delta, psi):
            with pytest.raises(NumericError, match="gamma \\* beta3 = 0.0"):
                fn(r)

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30)
    def test_margin_ordering_random(self, n_a, n_b, n_e):
        if n_b >= n_a:
            n_b = n_a - 1
        r = ratios(n_a, n_b, n_e, alpha=3.0, beta=1.7, gamma=2.0)
        a_min, a_max = a_min_max(r)
        assert a_min <= a_max
        assert delta_highsnr(a_max, r) <= delta_highsnr(a_min, r) + 1e-12
