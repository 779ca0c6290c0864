"""Simulation engine checks.

Distributional statistics get fixed seeds and 3-sigma gates; structural
facts (null space, unitarity, reproducibility across batching and worker
counts) are exact. The rates, computed from h and g alone, are checked
against rates through an explicit SVD precoding basis.
"""

import io
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from anmimo import (
    ChannelRealization,
    ConfigError,
    DomainError,
    NumericError,
    SystemConfig,
    average_secrecy_rate,
    instantaneous_secrecy_rate,
    mc_average_secrecy_rate,
    mc_logdet_oracle,
    mc_normalized_rate_sample,
    sample_channel,
    theta,
)
from anmimo import _blas_threads
from anmimo import monte_carlo as mc


def cfg(n_a, n_b, n_e, alpha, beta, gamma):
    return SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)


BASE = cfg(6, 3, 4, 2.0, 0.5, 2.0)


def channels(c, n, seed):
    return [sample_channel(c, k, seed) for k in range(n)]


def batch(c, seed, t0, nt):
    # h and g of trials [t0, t0+nt) as the batched estimators draw them
    hg = mc._stacked_batch(c, seed, t0, nt)
    return hg[:, : c.n_b], hg[:, c.n_b :]


def rate_chunks(c, seed, trials):
    # the unclamped rates of each chunk, as the estimators see them: in
    # their one-BLAS-thread scope, so no pool worker runs OpenBLAS at its
    # default thread count
    with _blas_threads._SCOPE:
        return mc._rate_chunks(c, seed, trials, False, lambda vals: vals)


class TestChannelStatistics:
    def test_entries_have_unit_second_moment(self):
        # |entry|^2 is Exp(1): mean 1, variance 1
        c = cfg(12, 6, 12, 1.0, 1.0, 1.0)
        sq = []
        for ch in channels(c, 500, seed=101):
            sq.append(np.abs(ch.h) ** 2)
            sq.append(np.abs(ch.g) ** 2)
        flat = np.concatenate([a.ravel() for a in sq])
        n = flat.size
        assert n == 500 * (72 + 144)
        assert abs(flat.mean() - 1.0) <= 3.0 / math.sqrt(n)

    def test_real_imag_balance(self):
        c = cfg(12, 6, 12, 1.0, 1.0, 1.0)
        parts = []
        for ch in channels(c, 300, seed=55):
            parts.append(ch.h.real.ravel())
            parts.append(ch.h.imag.ravel())
        flat = np.concatenate(parts)
        # each part is N(0, 1/2)
        assert abs(flat.mean()) <= 3.0 * math.sqrt(0.5 / flat.size)
        assert abs((flat**2).mean() - 0.5) <= 3.0 * math.sqrt(0.5 / flat.size)

    def test_noise_basis_annihilates_channel(self):
        for k, ch in enumerate(channels(BASE, 25, seed=7)):
            assert np.linalg.norm(ch.h @ ch.z) <= 1e-10, f"trial {k}"

    def test_precoding_basis_is_unitary(self):
        for ch in channels(BASE, 25, seed=7):
            v = np.concatenate((ch.v1, ch.z), axis=1)
            assert v.shape == (6, 6)
            assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-10

    def test_projected_channels_stay_white(self):
        # G times a unitary basis is again iid standard complex Gaussian,
        # so the data-side and noise-side projections are uncorrelated
        # with unit-power entries
        prods = []
        sq = []
        for ch in channels(BASE, 800, seed=13):
            g1 = ch.g @ ch.v1
            g2 = ch.g @ ch.z
            prods.append((g1 * g2.conj()).ravel())
            sq.append(np.abs(g1) ** 2)
            sq.append(np.abs(g2) ** 2)
        prods = np.concatenate(prods)
        power = np.concatenate([a.ravel() for a in sq])
        # Re/Im of each cross product have variance 1/2
        bound = 3.0 * math.sqrt(0.5 / prods.size)
        assert abs(prods.real.mean()) <= bound
        assert abs(prods.imag.mean()) <= bound
        assert abs(power.mean() - 1.0) <= 3.0 / math.sqrt(power.size)

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampling_is_deterministic(self, trial, seed):
        a = sample_channel(BASE, trial, seed)
        b = sample_channel(BASE, trial, seed)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)
        assert np.array_equal(a.v1, b.v1) and np.array_equal(a.z, b.z)


class TestInstantaneousRate:
    def test_silent_eavesdropper_leaves_full_capacity(self):
        ch = sample_channel(BASE, 0, seed=2)
        mute = ChannelRealization(h=ch.h, g=np.zeros_like(ch.g), v1=ch.v1, z=ch.z)
        rate = instantaneous_secrecy_rate(mute, BASE)
        gram = BASE.alpha * BASE.gamma * (ch.h @ ch.h.conj().T)
        expect = float(np.linalg.slogdet(np.eye(3) + gram)[1])
        assert rate == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        ch = sample_channel(BASE, 0, seed=2)
        other = cfg(6, 3, 5, 2.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            instantaneous_secrecy_rate(ch, other)

    def test_overflowing_rate_is_a_numeric_error(self):
        # alpha 1e308 overflows the Grams; the rate is nan, refused with no
        # numpy warning first
        c = cfg(6, 3, 4, 1e308, 0.5, 1.0)
        with pytest.raises(NumericError, match="^non-finite rate nan$"):
            instantaneous_secrecy_rate(sample_channel(c, 0, 1), c)

    def test_rank_deficient_h_raises(self):
        # the batched estimators refuse such an h; one realization must too,
        # not return a rate for a link whose null space is the wrong size
        ch = sample_channel(BASE, 0, 1)
        twin = ch.h.copy()
        twin[2] = twin[1]
        for h in (twin, np.zeros_like(ch.h)):
            bad = ChannelRealization(h=h, g=ch.g, v1=ch.v1, z=ch.z)
            with pytest.raises(NumericError, match="rank-deficient legitimate channel at trial 0"):
                instantaneous_secrecy_rate(bad, BASE)

    def test_matches_normalized_sample_across_chunk_boundary(self):
        # words/trial = 3072 puts the chunk boundary at 682 trials; the
        # counter-based stream must make trial 690 identical whether it is
        # drawn alone or inside the second chunk of a batch
        c = cfg(32, 16, 32, 1.5, 0.8, 1.2)
        sample = mc_normalized_rate_sample(c, 700, seed=5)
        for k in (0, 681, 682, 690, 699):
            alone = instantaneous_secrecy_rate(sample_channel(c, k, 5), c)
            assert alone / c.n_b == sample[k], f"trial {k}"

    def test_trial_index_validation(self):
        with pytest.raises(DomainError):
            sample_channel(BASE, -1, 0)
        with pytest.raises(DomainError):
            sample_channel(BASE, 1.5, 0)
        with pytest.raises(DomainError):
            sample_channel(BASE, 0, -3)
        with pytest.raises(DomainError):
            sample_channel(BASE, 0, 2**64)

    def test_trial_index_stays_inside_the_philox_counter(self):
        # 21 blocks per trial at (6, 3, 4); 2**256 = 16 mod 21, so trial
        # 2**256 // 21 starts 16 blocks short of the end and would wrap
        # into trial 0's words
        last = 2**256 // 21 - 1
        assert (last + 1) * 21 <= 2**256 < (last + 2) * 21
        for index in (last + 1, 2**256, 10**80):
            with pytest.raises(DomainError, match="trial_index"):
                sample_channel(BASE, index, 3)
        ch = sample_channel(BASE, last, 3)
        assert np.all(np.isfinite(ch.h)) and np.all(np.isfinite(ch.g))
        assert not np.array_equal(ch.h, sample_channel(BASE, 0, 3).h)


class TestAverageEstimator:
    def test_matches_closed_form(self):
        est = mc_average_secrecy_rate(BASE, 100_000, seed=0, clamp=False)
        ref = average_secrecy_rate(BASE)
        assert abs(est.mean - ref) <= 3.0 * est.stderr
        assert est.trials == 100_000 and est.seed == 0 and est.clamped is False

    def test_zero_snr_collapses_exactly(self):
        c = cfg(6, 3, 4, 0.0, 0.5, 2.0)
        est = mc_average_secrecy_rate(c, 500, seed=4)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_clamping_never_lowers_the_mean(self):
        lossy = cfg(6, 3, 16, *(10**0.3, 10**-0.3, 10**0.3))
        for c in (BASE, lossy):
            up = mc_average_secrecy_rate(c, 4000, seed=1, clamp=True)
            raw = mc_average_secrecy_rate(c, 4000, seed=1, clamp=False)
            assert up.mean >= max(raw.mean, 0.0)
            assert up.clamped is True
        # the lossy point really exercises the floor
        assert mc_average_secrecy_rate(lossy, 4000, seed=1, clamp=False).mean < 0.0

    def test_positive_rate_config_is_clamp_insensitive(self):
        up = mc_average_secrecy_rate(BASE, 20_000, seed=1, clamp=True)
        raw = mc_average_secrecy_rate(BASE, 20_000, seed=1, clamp=False)
        assert abs(up.mean - raw.mean) <= raw.stderr

    def test_pinned_regression(self):
        # guards the word stream, Box-Muller convention, and fsum merge
        est = mc_average_secrecy_rate(BASE, 1000, seed=42, clamp=True)
        assert est.mean == pytest.approx(5.076872147424457, rel=1e-14)
        assert est.stderr == pytest.approx(0.032026509227696245, rel=1e-12)

    def test_pinned_regression_of_the_oracle(self):
        # 3 chunks of 2048 trials, each walked in 512-trial slices
        profile = [2.0] * 16 + [0.5] * 16
        est = mc_logdet_oracle(16, 32, profile, 4500, seed=42)
        assert est.mean == pytest.approx(53.35848505924409, rel=1e-14)
        assert est.stderr == pytest.approx(0.012464957442476797, rel=1e-12)

    def test_pinned_regression_of_the_sample(self):
        # 2 chunks (4096 + 404 trials), each walked in 1024-trial slices
        sample = mc_normalized_rate_sample(cfg(16, 8, 8, 2.0, 0.5, 2.0), 4500, seed=42)
        mean = math.fsum(sample) / len(sample)
        squares = math.fsum((v - mean) ** 2 for v in sample)
        assert mean == pytest.approx(2.6895838481758525, rel=1e-14)
        assert math.sqrt(squares / 4499 / 4500) == pytest.approx(
            0.0020909958931242707, rel=1e-12
        )

    def test_stderr_merge_survives_large_mean(self):
        # chunk-centred squares against a two-pass fsum over all values,
        # at mean 1e6 and spread 1e-3, split into unequal chunks. Squares
        # about zero cancel every digit here (sumsq - n mean^2 gave 18x
        # the true stderr). What is left is the rounding of each chunk
        # mean, ulp(1e6) ~ 1e-10 against chunk means ~4e-5 apart, in the
        # between-chunk term, a 1/1000 share of the squares: ~1e-9.
        rng = np.random.default_rng(7)
        vals = 1e6 + 1e-3 * rng.standard_normal(3001)
        spans = [(0, 700), (700, 300), (1000, 1024), (2024, 976), (3000, 1)]
        partials = [mc._chunk_partials(vals[s : s + n]) for s, n in spans]
        mean, stderr = mc._merge_mean_stderr(partials, len(vals))
        # the mean is the exact sum of the chunk sums, as it always was
        assert mean == math.fsum(math.fsum(vals[s : s + n].tolist()) for s, n in spans) / 3001
        exact_mean = math.fsum(vals.tolist()) / 3001
        squares = math.fsum(((vals - exact_mean) ** 2).tolist())
        assert stderr == pytest.approx(math.sqrt(squares / 3000 / 3001), rel=1e-7)

    def test_stderr_is_two_pass_over_chunks(self):
        # three chunks at (16, 8, 8); mean 130 against a spread near 0.9
        c = cfg(16, 8, 8, 1e3, 1e3, 1e3)
        est = mc_average_secrecy_rate(c, 9000, seed=5, clamp=False)
        chunks = rate_chunks(c, 5, 9000)
        vals = np.concatenate(chunks)
        mean = math.fsum(vals.tolist()) / 9000
        squares = math.fsum(((vals - mean) ** 2).tolist())
        assert len(chunks) == 3
        assert est.mean == mean
        assert est.stderr == pytest.approx(math.sqrt(squares / 8999 / 9000), rel=1e-14)

    def test_worker_count_changes_nothing(self, monkeypatch):
        c = cfg(16, 8, 8, 2.0, 0.5, 2.0)
        results = []
        for w in ("1", "4", "7"):
            monkeypatch.setenv("ANMIMO_WORKERS", w)
            results.append(mc_average_secrecy_rate(c, 9000, seed=6))
        monkeypatch.delenv("ANMIMO_WORKERS")
        results.append(mc_average_secrecy_rate(c, 9000, seed=6))
        assert all(r.mean == results[0].mean for r in results)
        assert all(r.stderr == results[0].stderr for r in results)

    def test_worker_env_validation(self, monkeypatch):
        for bad in ("zero", "0", "-2", "1.5"):
            monkeypatch.setenv("ANMIMO_WORKERS", bad)
            with pytest.raises(ConfigError):
                mc_average_secrecy_rate(BASE, 10, seed=0)

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            mc_average_secrecy_rate(BASE, 1)
        with pytest.raises(DomainError):
            mc_average_secrecy_rate(BASE, 100.0)

    def test_clamp_must_be_a_bool(self):
        # "false" is truthy: it clamped silently (mc 0.109 against -0.747
        # unclamped at this point) and reported clamped=True
        lossy = cfg(6, 3, 16, *(10**0.3, 10**-0.3, 10**0.3))
        for bad in ("false", "no", 0, 1, None):
            with pytest.raises(DomainError, match=f"^clamp must be True or False, got {bad!r}$"):
                mc_average_secrecy_rate(lossy, 200, seed=1, clamp=bad)
        raw = mc_average_secrecy_rate(lossy, 200, seed=1, clamp=False)
        assert raw.mean < 0.0
        # numpy's bools are bools
        assert mc_average_secrecy_rate(lossy, 200, seed=1, clamp=np.False_) == raw
        assert mc_average_secrecy_rate(lossy, 200, seed=1, clamp=np.True_).clamped is True

    @pytest.mark.parametrize("workers, chunks", [("1", 1), ("2", 2)])
    def test_overflowing_rate_names_the_first_trial(self, monkeypatch, workers, chunks):
        # at alpha 1e308 the Grams overflow to inf and nan: a typed error
        # naming the trial, and no numpy warning, which the suite turns
        # into an error, on the serial path and on the pool's threads,
        # which do not inherit a caller's errstate
        monkeypatch.setenv("ANMIMO_WORKERS", workers)
        c = cfg(6, 3, 4, 1e308, 0.5, 1.0)
        trials = chunks * mc._chunk_size(mc._rate_words(c))
        with pytest.raises(NumericError, match="^non-finite rate at trial 0$"):
            mc_average_secrecy_rate(c, trials, seed=1)


class TestLogdetOracle:
    def test_single_antenna_matches_theta(self):
        est = mc_logdet_oracle(1, 1, 4.0, 200_000, seed=3)
        assert abs(est.mean - theta(1, 1, 4.0)) <= 3.0 * est.stderr

    def test_uniform_profile_matches_theta(self):
        est = mc_logdet_oracle(2, 5, 1.5, 150_000, seed=8)
        assert abs(est.mean - theta(2, 5, 1.5)) <= 3.0 * est.stderr

    def test_scalar_and_sequence_profiles_agree(self):
        a = mc_logdet_oracle(2, 3, 2.0, 500, seed=1)
        b = mc_logdet_oracle(2, 3, [2.0, 2.0, 2.0], 500, seed=1)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_zero_profile_is_exactly_zero(self):
        est = mc_logdet_oracle(3, 4, [0.0, 0.0, 0.0, 0.0], 200, seed=0)
        assert est.mean == 0.0 and est.stderr == 0.0

    @pytest.mark.parametrize(
        "scale, trial", [(1e308, 0), ([1e308, 1e308, 0.0], 0), (3e307, 3)]
    )
    def test_overflowing_gram_names_the_first_trial(self, scale, trial):
        # the Gram overflows to inf and nan, which Cholesky does not refuse;
        # at 3e307 the first three trials still fit. No numpy warning
        # comes first: the suite would raise it instead
        with pytest.raises(NumericError, match=f"^non-finite log-det at trial {trial}$"):
            mc_logdet_oracle(2, 3, scale, 50, seed=1)

    def test_overflowing_gram_on_the_pool(self, monkeypatch):
        # two chunks on two workers: the pool's threads ignore numpy's
        # overflow warnings themselves, and the first bad trial is named
        monkeypatch.setenv("ANMIMO_WORKERS", "2")
        trials = 2 * mc._chunk_size(2 * 2 * 3)
        with pytest.raises(NumericError, match="^non-finite log-det at trial 3$"):
            mc_logdet_oracle(2, 3, 3e307, trials, seed=1)

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            mc_logdet_oracle(2, 3, [1.0, 1.0], 100)
        with pytest.raises(DomainError):
            mc_logdet_oracle(2, 3, [1.0, -0.5, 1.0], 100)
        with pytest.raises(DomainError):
            mc_logdet_oracle(2, 3, [1.0, math.inf, 1.0], 100)
        with pytest.raises(DomainError):
            mc_logdet_oracle(0, 3, 1.0, 100)
        with pytest.raises(DomainError):
            mc_logdet_oracle(2, 3, 1.0, 1)

    @pytest.mark.parametrize("profile", ["x", 1 + 1j, [1.0, "x", 1.0], [[1.0], [1.0, 2.0]]])
    def test_non_numeric_profile_is_a_domain_error(self, profile):
        # not numpy's own "could not convert" ValueError or TypeError
        with pytest.raises(DomainError) as exc:
            mc_logdet_oracle(2, 3, profile, 10)
        assert str(exc.value) == (
            f"scale_profile must be a real number or a sequence of them, got {profile!r}"
        )

    def test_numeric_strings_stay_accepted(self):
        assert mc_logdet_oracle(2, 3, "2.0", 10) == mc_logdet_oracle(2, 3, 2.0, 10)


class TestNormalizedSample:
    def test_trial_order_and_length(self):
        vals = mc_normalized_rate_sample(BASE, 50, seed=12)
        assert len(vals) == 50
        direct = instantaneous_secrecy_rate(sample_channel(BASE, 17, 12), BASE)
        assert vals[17] == direct / BASE.n_b

    def test_larger_arrays_concentrate(self):
        small = mc_normalized_rate_sample(cfg(8, 4, 4, 2.0, 0.5, 2.0), 200, seed=9)
        big = mc_normalized_rate_sample(cfg(16, 8, 8, 2.0, 0.5, 2.0), 200, seed=9)
        assert np.std(big, ddof=1) < np.std(small, ddof=1)

    def test_realizations_validation(self):
        with pytest.raises(DomainError):
            mc_normalized_rate_sample(BASE, 0)


def _svd_rates(c, h, g):
    # the reference: the rate through an explicit precoding basis, the
    # right singular vectors of each h (data subspace first)
    v = np.swapaxes(np.linalg.svd(h)[2], -2, -1).conj()
    g1, g2 = g @ v[..., : c.n_b], g @ v[..., c.n_b :]
    sab = math.sqrt(c.alpha * c.beta)
    legit = mc._logdet_eye_plus_gram(math.sqrt(c.alpha * c.gamma) * h)
    eve_full = mc._logdet_eye_plus_gram(
        np.concatenate((math.sqrt(c.alpha) * g1, sab * g2), axis=-1)
    )
    eve_noise = mc._logdet_eye_plus_gram(sab * g2)
    return legit - (eve_full - eve_noise)


def _rates(c, h, g, t0):
    # the engine's rate path on given channels, rank check included, in the
    # estimators' one-BLAS-thread scope like rate_chunks
    with _blas_threads._SCOPE:
        return mc._secrecy_rates(c, np.concatenate((h, g), axis=-2), t0)


def _conditioned_h(n_b, n_a, k, rng):
    # U diag(1, ..., 10^-k) V^H with random orthonormal U (n_b x n_b) and
    # V (n_a x n_b): singular values log-spaced, condition number 10^k
    def orthonormal(rows, cols):
        x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(x)[0]

    s = np.logspace(0.0, -k, n_b)
    return (orthonormal(n_b, n_b) * s) @ orthonormal(n_a, n_b).conj().T


class TestPrecodingBasis:
    def test_rank_deficient_trial_is_named(self):
        h, _ = batch(BASE, 3, 100, 5)
        h = h.copy()
        h[2, 1] = h[2, 0]  # trial 102: two equal rows
        with pytest.raises(NumericError, match="trial 102"):
            mc._precoding_basis(h, BASE.n_b, 100)

    @pytest.mark.parametrize(
        "shape", [(6, 3, 4), (16, 8, 8), (6, 3, 20), (128, 64, 64), (16, 15, 8), (4, 1, 12)]
    )
    def test_qr_rates_match_svd_rates(self, shape):
        # beta = 3 puts the noise level alpha beta above the data level alpha
        for beta in (0.5, 3.0):
            c = cfg(*shape, 2.0, beta, 2.0)
            trials = 2 * mc._chunk_size(mc._rate_words(c)) + 10
            chunks = rate_chunks(c, 8, trials)
            assert len(chunks) == 3
            vals = np.concatenate(chunks)
            want = _svd_rates(c, *batch(c, 8, 0, trials))
            assert np.all(np.abs(vals - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize(
        "shape", [(6, 3, 4), (6, 3, 20), (16, 15, 8), (4, 1, 12), (3, 1, 5)]
    )
    def test_qr_rates_hold_at_high_snr(self, shape):
        # alpha beta = 1e10: g (I - P) g^H has n_e - (n_a - n_b) zero
        # eigenvalues here, which a difference g g^H - g P g^H would leave
        # at +-1e10 eps |g|^2 (1e-6 to 1e-4 relative in the rate)
        c = cfg(*shape, 1e5, 1e5, 2.0)
        h, g = batch(c, 8, 0, 2000)
        vals = _rates(c, h, g, 0)
        want = _svd_rates(c, h, g)
        assert np.all(np.abs(vals - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("shape", [(6, 3, 4), (6, 3, 20), (16, 15, 8)])
    def test_conditioning_ladder(self, shape):
        c = cfg(*shape, 2.0, 0.5, 2.0)
        rng = np.random.default_rng(sum(shape))
        _, g = batch(c, 3, 100, 5)
        for k in (0.0, 2.0, 4.0, 6.0, 7.0, 7.5):
            h = np.stack([_conditioned_h(c.n_b, c.n_a, k, rng) for _ in range(5)])
            vals = _rates(c, h, g, 100)
            if k == 6.0:
                assert np.max(np.abs(vals - _svd_rates(c, h, g))) <= 1e-7
        h = np.stack([_conditioned_h(c.n_b, c.n_a, 0.0, rng) for _ in range(5)])
        h[2] = _conditioned_h(c.n_b, c.n_a, 8.5, rng)
        with pytest.raises(NumericError, match="rank-deficient legitimate channel at trial 102"):
            _rates(c, h, g, 100)

    def test_svd_runs_only_where_the_bound_does_not_clear(self, monkeypatch):
        # and the rank check reuses the rate's QR: one QR per batch
        h, g = batch(BASE, 3, 100, 5)
        # cond(h) = 10^6.5: full rank, but above what the bound may clear
        unclear = h.copy()
        unclear[3] = _conditioned_h(BASE.n_b, BASE.n_a, 6.5, np.random.default_rng(1))
        seen, qrs = [], []
        svd, qr = np.linalg.svd, np.linalg.qr

        def counting_svd(a, **kwargs):
            seen.append(a.shape[0])
            return svd(a, **kwargs)

        def counting_qr(a, **kwargs):
            qrs.append(a.shape[0])
            return qr(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        _rates(BASE, h, g, 100)
        assert seen == [] and qrs == [5]
        _rates(BASE, unclear, g, 100)
        assert seen == [1] and qrs == [5, 5]

    @pytest.mark.parametrize("make_deficient", ["equal rows", "zero channel"])
    def test_rank_deficient_trial_is_named_on_rate_path(self, make_deficient):
        h, g = batch(BASE, 3, 100, 5)
        h = h.copy()
        if make_deficient == "equal rows":
            h[2, 1] = h[2, 0]  # trial 102
        else:
            h[2] = 0.0  # trial 102: R = 0, so the bound is nan
        with pytest.raises(NumericError, match="rank-deficient legitimate channel at trial 102"):
            _rates(BASE, h, g, 100)

    @pytest.mark.parametrize(
        "shape", [(6, 3, 4), (16, 8, 8), (6, 3, 20), (128, 64, 64), (3, 1, 5)]
    )
    def test_sliced_chunk_equals_whole_chunk(self, shape):
        c = cfg(*shape, 2.0, 0.5, 2.0)
        size = mc._chunk_size(mc._rate_words(c))
        assert size * mc._rate_words(c) > mc._SLICE_WORDS  # more than one slice
        sliced = rate_chunks(c, 4, 2 * size)[1]
        whole = _rates(c, *batch(c, 4, size, size), size)
        assert np.array_equal(sliced.view(np.uint64), whole.view(np.uint64))

    def test_sliced_oracle_chunk_equals_whole_chunk(self):
        rows, cols = 3, 5
        words = 2 * rows * cols
        size = mc._chunk_size(words)
        sliced = mc._chunked(
            2 * size, words,
            lambda s, n: mc._trial_gaussians(7, s, n, words), lambda t0, vals: vals,
        )[1]
        whole = mc._trial_gaussians(7, size, size, words)
        assert sliced.shape == whole.shape
        assert np.array_equal(sliced.view(np.uint64), whole.view(np.uint64))


def _angle_table_by_mpmath():
    # cos and sin of 2 pi (k + 1/2) / 1024 = pi (2k + 1) / 1024 at 170 bits
    # (51 digits), each rounded to the nearest double
    cos_t, sin_t = [], []
    for k in range(1024):
        c, s = libmp.mpf_cos_sin_pi(libmp.from_man_exp(2 * k + 1, -10), 170)
        cos_t.append(libmp.to_float(c, rnd=libmp.round_nearest))
        sin_t.append(libmp.to_float(s, rnd=libmp.round_nearest))
    return np.array(cos_t), np.array(sin_t)


def _unit_circle(words):
    # the cos and sin halves of the map, before the radius multiplies in
    cos, sin = np.empty(words.shape), np.empty(words.shape)
    mc._cos_sin(words, cos, sin, np.empty((5, words.size)))
    return cos, sin


def _edge_angle_words():
    # every table boundary (from both sides, with and without the 11 low
    # bits the map drops), every midpoint, and k = 0 and 1023 across their
    # offsets; the boundaries include the quadrant points and, below 0,
    # the all-ones word
    top = np.arange(1024, dtype=np.uint64) << np.uint64(54)
    ends = np.array([0, 1, 2**42 - 1, 2**42 + 1, 2**43 - 2, 2**43 - 1], dtype=np.uint64)
    k_ends = [(np.uint64(k) << np.uint64(54)) | (ends << np.uint64(11)) for k in (0, 1023)]
    quadrants = np.array([q << 62 for q in range(4)], dtype=np.uint64)
    return np.concatenate(
        [top, top | np.uint64(2047), top - np.uint64(1), top | np.uint64(1 << 53), *k_ends, quadrants]
    )


class TestGaussianMap:
    @staticmethod
    def reference_map(words, cos_t, sin_t):
        # the construction written out on whole arrays: radius from numpy's
        # log, cos and sin from the table midpoint and the offset's series
        m = words >> np.uint64(11)
        radius = np.sqrt(-np.log(1.0 - m[..., 0::2].astype(np.float64) * (1.0 / float(2**53))))
        k = (m[..., 1::2] >> np.uint64(43)).astype(np.intp)
        r = (m[..., 1::2] & np.uint64(2**43 - 1)).astype(np.int64)
        delta = (r - 2**42) * (2.0 * math.pi / float(2**53))
        d2 = delta * delta
        cos_delta_m1 = (d2 * (1.0 / 24.0) - 0.5) * d2
        sin_delta = (d2 * (1.0 / 120.0) - 1.0 / 6.0) * d2 * delta + delta
        c, s = cos_t[k], sin_t[k]
        cos = c + (c * cos_delta_m1 - s * sin_delta)
        sin = s + (s * cos_delta_m1 + c * sin_delta)
        return radius * (cos + 1j * sin)

    @pytest.fixture(scope="class")
    def tables(self):
        return _angle_table_by_mpmath()

    def test_table_is_correctly_rounded(self, tables):
        # the package builds it in integers, with no libm or mpmath
        cos_t, sin_t = tables
        assert np.array_equal(mc._COS_TABLE.view(np.uint64), cos_t.view(np.uint64))
        assert np.array_equal(mc._SIN_TABLE.view(np.uint64), sin_t.view(np.uint64))

    def test_cos_sin_within_two_units_of_exact(self):
        # |error| <= 2 * 2**-53 against cos and sin of the exact angle
        # 2 pi m / 2**53 at 170 bits; the np.cos map was up to 6.25 off
        words = np.concatenate(
            [_edge_angle_words(), np.random.Philox(key=35).random_raw(100_000)]
        )
        cos, sin = _unit_circle(words)
        exact = []  # each exact value as a sum of two doubles
        for m in (words >> np.uint64(11)).tolist():
            for v in libmp.mpf_cos_sin_pi(libmp.from_man_exp(m, -52), 170):
                hi = libmp.to_float(v)
                exact.append((hi, libmp.to_float(libmp.mpf_sub(v, libmp.from_float(hi), 170))))
        exact = np.array(exact).reshape(len(words), 2, 2)
        for got, (hi, lo) in ((cos, exact[:, 0].T), (sin, exact[:, 1].T)):
            err = np.abs((got - hi) - lo)  # each subtraction rounds by far less than 2**-53
            assert err.max() <= 2.0 * 2.0**-53, int(np.argmax(err))

    def test_bitwise_equal_to_reference(self, tables):
        words = np.random.Philox(key=21).random_raw(1 << 21)
        # zero-radius entries (first word 0) in every quadrant, and the extremes
        words[:12] = [0, 0, 0, 1 << 61, 0, 3 << 61, 0, 5 << 61, 0, 7 << 61, 2**64 - 1, 2**64 - 1]
        edges = _edge_angle_words()
        words[13 : 13 + 2 * len(edges) : 2] = edges  # as angle words
        padded = words[: 8 * 1000].reshape(1000, 8)[:, :6]  # the (1,3) oracle's layout
        for w in (words, words[: 84 * 1000].reshape(1000, 84), padded):
            got = mc._gaussians_from_words(w)
            want = self.reference_map(w, *tables)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_blocks_change_no_bits(self, monkeypatch, block):
        words = np.random.Philox(key=22).random_raw(20 * 8 * 123).reshape(123, 160)
        words[:, :4] = 0  # zero radii inside every block
        want = mc._gaussians_from_words(words[:, :150])
        monkeypatch.setattr(mc, "_MAP_BLOCK", block)
        got = mc._gaussians_from_words(words[:, :150])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# the unit-circle half of the map on seeded and edge words, in a fresh
# process: first the AVX-512 dispatch targets numpy has enabled, then a
# digest of the cos and sin bytes
_UNIT_CIRCLE_SCRIPT = """
import hashlib, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
print(",".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f)))
sys.path.insert(0, sys.argv[1])
from test_monte_carlo import _edge_angle_words, _unit_circle
words = np.concatenate([_edge_angle_words(), np.random.Philox(key=36).random_raw(1 << 18)])
cos, sin = _unit_circle(words)
print(hashlib.sha256(cos.tobytes() + sin.tobytes()).hexdigest())
"""


def test_unit_circle_ignores_simd_dispatch():
    # only +, -, *, exact conversions and table reads: the bytes are the
    # same with numpy's AVX-512 loops disabled (the radius's np.log is not)
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    runs = {}
    for disabled in (None, "X86_V4,AVX512_ICL,AVX512_SPR"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run(
            [sys.executable, "-c", _UNIT_CIRCLE_SCRIPT, str(Path(__file__).parent)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        lines = proc.stdout.split("\n")
        if len(lines) < 2:  # numpy did not import under the variable
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled}: {proc.stderr[-200:]}")
        assert proc.returncode == 0, proc.stderr
        runs[disabled] = lines[:2]
    enabled, digest = runs[None]
    still_enabled, digest_disabled = runs["X86_V4,AVX512_ICL,AVX512_SPR"]
    if not enabled or still_enabled:
        pytest.skip(f"no AVX-512 dispatch to switch off (enabled {enabled!r}, then {still_enabled!r})")
    assert digest_disabled == digest


def _eye_plus_gram(b):
    # I plus the smaller Gram of each B
    bh = np.swapaxes(b, -2, -1).conj()
    gram = bh @ b if b.shape[-1] < b.shape[-2] else b @ bh
    return gram + np.eye(gram.shape[-1])


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


# every (rows, cols) the rule sends to the batch axis, wide and tall
BATCH_AXIS_SHAPES = [
    (r, c) for r in range(1, 21) for c in range(1, 21) if mc._on_batch_axis(r, c)
]


class TestBatchAxisLogdet:
    @pytest.mark.parametrize(
        "shape",
        [
            (1, 3), (3, 1), (2, 4), (4, 2), (3, 6), (6, 3), (4, 4), (4, 6), (6, 4),
            (1, 20), (20, 2), (3, 10), (4, 8), (8, 4), (3, 20), (20, 6), (1, 21), (8, 8),
        ],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e5, 1e10])
    def test_matches_cholesky(self, shape, scale):
        # the reference: LAPACK's Cholesky of each Gram. Both methods are
        # backward stable, so they may differ by a few eps times the
        # condition number of I + B B^H, in nats
        b = scale * _complex_normal(np.random.default_rng(sum(shape)), (2000, *shape))
        a = _eye_plus_gram(b)
        chol_diag = np.einsum("...ii->...i", np.linalg.cholesky(a)).real
        want = 2.0 * np.sum(np.log(chol_diag), axis=-1)
        got = mc._logdet_eye_plus_gram(b)
        tol = 32 * min(shape) * np.finfo(float).eps * (np.linalg.cond(a) + np.abs(want))
        assert np.all(np.abs(got - want) <= tol)

    def test_rule_is_symmetric_and_bounded(self):
        # n (n + 1) m <= 120 and m <= 20, either way round
        assert all(mc._on_batch_axis(c, r) for r, c in BATCH_AXIS_SHAPES)
        n_by_m = {}
        for r, c in BATCH_AXIS_SHAPES:
            n_by_m[min(r, c)] = max(n_by_m.get(min(r, c), 0), max(r, c))
        assert n_by_m == {1: 20, 2: 20, 3: 10, 4: 6}

    def test_rule_pinned_for_the_benchmark_shapes(self, monkeypatch):
        # the Gram shapes each benchmark op passes, and the path each takes
        shapes = []
        logdet = mc._logdet_eye_plus_gram

        def recording(b):
            shapes.append(b.shape[-2:])
            return logdet(b)

        monkeypatch.setattr(mc, "_logdet_eye_plus_gram", recording)
        paths = {}
        for shape in [(6, 3, 4), (6, 3, 20), (16, 8, 8), (128, 64, 64)]:
            shapes.clear()
            mc.mc_normalized_rate_sample(cfg(*shape, 2.0, 0.5, 2.0), 2, seed=1)
            paths[shape] = [mc._on_batch_axis(*s) for s in shapes]
        for rows, cols in [(1, 3), (2, 4), (3, 6), (4, 4), (4, 8), (16, 32)]:
            shapes.clear()
            mc_logdet_oracle(rows, cols, 1.0, 2, seed=1)
            paths[rows, cols] = [mc._on_batch_axis(*s) for s in shapes]
        # legit, eve_full, eve_noise for the rates; one Gram per oracle
        assert paths == {
            (6, 3, 4): [True, True, True],
            (6, 3, 20): [True, False, False],
            (16, 8, 8): [False, False, False],
            (128, 64, 64): [False, False, False],
            (1, 3): [True],
            (2, 4): [True],
            (3, 6): [True],
            (4, 4): [True],
            (4, 8): [False],
            (16, 32): [False],
        }

    @pytest.mark.parametrize("shape", BATCH_AXIS_SHAPES)
    def test_batch_of_one_is_its_row(self, shape):
        b = _complex_normal(np.random.default_rng(sum(shape)), (5000, *shape))
        whole = mc._logdet_eye_plus_gram(b)
        rows = [0, 2047, 2048, 4999]  # either side of a tile of the copy
        alone = np.array([mc._logdet_eye_plus_gram(b[t : t + 1])[0] for t in rows])
        assert np.array_equal(alone.view(np.uint64), whole[rows].view(np.uint64))

    def test_slices_stop_at_8192_trials(self, monkeypatch):
        # at (1,3) a chunk is 65,536 trials of 8 padded words, one slice
        # by the word bound alone; the trial bound walks it in 8 slices,
        # whose log-dets are the bits of one call on the whole chunk
        rows, cols, trials, seed = 1, 3, 65536, 4
        assert mc._chunk_size(2 * rows * cols) == trials
        slices, chunks = [], []
        chunked = mc._chunked

        def spying(n, words, values, finish):
            def counted(s, nt):
                slices.append((s, nt))
                return values(s, nt)

            def kept(t0, vals):
                chunks.append(vals)
                return finish(t0, vals)

            return chunked(n, words, counted, kept)

        monkeypatch.setattr(mc, "_chunked", spying)
        mc_logdet_oracle(rows, cols, 2.0, trials, seed=seed)
        assert slices == [(s, 8192) for s in range(0, trials, 8192)]
        g = mc._trial_gaussians(seed, 0, trials, 2 * rows * cols).reshape(trials, rows, cols)
        whole = mc._logdet_eye_plus_gram(g * np.sqrt(np.full(cols, 2.0)))
        assert len(chunks) == 1
        assert np.array_equal(chunks[0].view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 4), (4, 6), (6, 4), (20, 1)])
    def test_zero_b_is_exactly_zero(self, shape):
        got = mc._logdet_eye_plus_gram(np.zeros((7, *shape), dtype=np.complex128))
        assert np.array_equal(got, np.zeros(7)) and not np.signbit(got).any()

    @pytest.mark.parametrize("shape", [(1, 3), (2, 4), (4, 6), (6, 4)])
    def test_overflowing_b_is_not_finite_without_a_warning(self, shape):
        # the suite turns numpy warnings into errors
        b = _complex_normal(np.random.default_rng(3), (5, *shape))
        b[2] *= 1e200
        got = mc._logdet_eye_plus_gram(b)
        assert not np.isfinite(got[2])
        keep = [0, 1, 3, 4]
        assert np.array_equal(got[keep], mc._logdet_eye_plus_gram(b[keep]))


class TestWorkerCount:
    def test_default_is_available_cores(self, monkeypatch):
        monkeypatch.delenv("ANMIMO_WORKERS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert mc._worker_count() == len(os.sched_getaffinity(0))
        else:
            assert mc._worker_count() == os.cpu_count()

    def test_default_without_affinity_is_cpu_count(self, monkeypatch):
        # platforms without sched_getaffinity count the CPUs, and at least 1
        monkeypatch.delenv("ANMIMO_WORKERS", raising=False)
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        assert mc._worker_count() == 3
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._worker_count() == 1


class TestLinAlgFailures:
    # a LinAlgError from LAPACK reaches the caller as NumericError
    @pytest.fixture
    def failing(self, monkeypatch):
        def fail(name):
            def raising(*args, **kwargs):
                raise np.linalg.LinAlgError("synthetic failure")

            monkeypatch.setattr(np.linalg, name, raising)

        return fail

    def test_gram_cholesky(self, failing):
        failing("cholesky")
        b = np.ones((2, 3, 4), dtype=complex)
        with pytest.raises(NumericError, match="^Gram factorization failed: synthetic failure$"):
            mc._logdet_lapack(b)

    def test_rank_check_svd(self, failing):
        h, _ = batch(BASE, 3, 100, 5)
        h = h.copy()
        h[2, 1] = h[2, 0]  # an unclear bound sends trial 102 to the SVD
        r = np.linalg.qr(mc._herm(h), mode="r")
        failing("svd")
        with pytest.raises(NumericError, match="^rank check failed near trial 100: synthetic failure$"):
            mc._check_rank(r, 100)

    def test_basis_qr(self, failing):
        h, _ = batch(BASE, 3, 100, 5)
        failing("qr")
        with pytest.raises(NumericError, match="^QR basis failed near trial 100: synthetic failure$"):
            mc._precoding_basis(h, BASE.n_b, 100)


class TestBlasDiscovery:
    # the fallbacks where no OpenBLAS can be driven; none needs one loaded
    def test_unreadable_maps_find_nothing(self, monkeypatch):
        def unreadable(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(_blas_threads, "open", unreadable, raising=False)
        assert _blas_threads._loaded_openblas() == ()

    def test_unopenable_mapping_is_skipped(self, monkeypatch):
        # a mapped path that no longer opens (deleted or replaced since)
        line = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /nonexistent/libopenblas.so.0\n"
        monkeypatch.setattr(_blas_threads, "open", lambda path: io.StringIO(line), raising=False)
        assert _blas_threads._loaded_openblas() == ()

    def test_no_openblas_leaves_the_function_alone(self, monkeypatch):
        monkeypatch.setattr(_blas_threads, "_SCOPE", _blas_threads._OneThread(()))

        def fn():
            return 1

        assert _blas_threads.one_blas_thread(fn) is fn


def thread_counts():
    # the current thread count of each OpenBLAS the engine drives
    return tuple(get() for get, _ in _blas_threads._SCOPE.libs)


needs_openblas = pytest.mark.skipif(
    not _blas_threads._SCOPE.libs,
    reason="no OpenBLAS loaded: the MC calls leave the BLAS thread count alone",
)

# the (128, 64, 64) sample in a fresh process: the hex of every
# normalized rate, then trial 100 rebuilt from sample_channel
_LARGE_SAMPLE_SCRIPT = """
from anmimo import (SystemConfig, instantaneous_secrecy_rate,
                    mc_normalized_rate_sample, sample_channel)
c = SystemConfig(n_a=128, n_b=64, n_e=64, alpha=2.0, beta=0.5, gamma=2.0)
sample = mc_normalized_rate_sample(c, 128, seed=5)
alone = instantaneous_secrecy_rate(sample_channel(c, 100, 5), c) / c.n_b
print(" ".join(v.hex() for v in sample))
print(alone.hex())
"""


def _batched_channel(c, trial):
    # trial's h and g as the batched estimators draw them, without a basis
    h, g = batch(c, 1, trial, 1)
    return ChannelRealization(h=h[0], g=g[0], v1=None, z=None)


@needs_openblas
class TestOneBlasThread:
    @pytest.fixture
    def threaded(self):
        # a count other than 1 where the MC call must hand it back
        before = thread_counts()
        for _, set_count in _blas_threads._SCOPE.libs:
            set_count(2)
        yield thread_counts()
        for (_, set_count), count in zip(_blas_threads._SCOPE.libs, before):
            set_count(count)

    @pytest.fixture
    def seen(self, monkeypatch):
        # the thread counts at every log-det and rank check: each public
        # call reaches one of them, on the batch axis as on LAPACK
        counts = []

        def recording(f):
            def wrapped(*args):
                counts.append(thread_counts())
                return f(*args)

            return wrapped

        for name in ("_logdet_eye_plus_gram", "_check_rank"):
            monkeypatch.setattr(mc, name, recording(getattr(mc, name)))
        return counts

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mc_average_secrecy_rate(BASE, 200, seed=1),
            lambda: mc_logdet_oracle(3, 5, 1.0, 200, seed=1),
            lambda: mc_normalized_rate_sample(BASE, 50, seed=1),
            lambda: sample_channel(BASE, 3, 1),
            lambda: instantaneous_secrecy_rate(_batched_channel(BASE, 3), BASE),
        ],
        ids=["rate", "oracle", "sample", "sample_channel", "instantaneous"],
    )
    def test_one_thread_inside_and_restored_after(self, threaded, seen, call):
        call()
        assert seen and all(counts == (1,) * len(threaded) for counts in seen)
        assert thread_counts() == threaded

    def test_restored_after_a_raise(self, threaded, monkeypatch):
        stacked = mc._stacked_batch

        def deficient(c, seed, t0, nt):
            hg = stacked(c, seed, t0, nt).copy()
            hg[:, 1] = hg[:, 0]  # every h has two equal rows
            return hg

        monkeypatch.setattr(mc, "_stacked_batch", deficient)
        with pytest.raises(NumericError, match="rank-deficient"):
            mc_average_secrecy_rate(BASE, 200, seed=1)
        assert thread_counts() == threaded

    def test_overlapping_calls_in_user_threads(self, threaded, monkeypatch):
        # A enters, B enters, A leaves while B is still inside, B leaves:
        # B must still see one thread after A left, and the count before
        # either call comes back only when both are done
        a_inside, b_inside, a_done = (threading.Event() for _ in range(3))
        b_after_a = []
        check_rank = mc._check_rank

        def gated(r, t0):
            name = threading.current_thread().name
            if name == "A" and not b_inside.is_set():
                a_inside.set()
                b_inside.wait(30)
            elif name == "B" and not a_done.is_set():
                b_inside.set()
                a_done.wait(30)
                b_after_a.append(thread_counts())
            return check_rank(r, t0)

        def run_a():
            mc_normalized_rate_sample(BASE, 50, seed=1)
            a_done.set()

        def run_b():
            a_inside.wait(30)
            sample_channel(BASE, 3, 1)

        # both calls reach the rank check, inside their scopes
        monkeypatch.setattr(mc, "_check_rank", gated)
        threads = [
            threading.Thread(target=run_a, name="A"),
            threading.Thread(target=run_b, name="B"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert a_done.is_set() and b_after_a == [(1,) * len(threaded)]
        assert thread_counts() == threaded

    def test_many_threads_share_the_scope(self, threaded, seen):
        # more user threads than cores, switching often: a lost update of
        # the scope's count would show as a count other than 1 inside a
        # call or a wrong count after all of them
        def calls():
            for t in range(20):
                sample_channel(BASE, t, 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) >= 8 * 20 and all(counts == (1,) * len(threaded) for counts in seen)
        assert thread_counts() == threaded

    def test_large_shape_bitwise_across_workers_and_blas_threads(self):
        # 128 realizations are two chunks of 64 at this shape
        c = cfg(128, 64, 64, 2.0, 0.5, 2.0)
        assert mc._chunk_size(mc._rate_words(c)) == 64
        src = Path(__file__).resolve().parents[1] / "src"
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        outputs = set()
        for workers in ("1", "2"):
            for blas in (None, "1", "2"):
                env = {**os.environ, "ANMIMO_WORKERS": workers}
                env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
                env.pop("OPENBLAS_NUM_THREADS", None)
                if blas is not None:
                    env["OPENBLAS_NUM_THREADS"] = blas
                proc = subprocess.run(
                    [sys.executable, "-c", _LARGE_SAMPLE_SCRIPT],
                    capture_output=True, text=True, env=env, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                sample, alone = proc.stdout.split("\n")[:2]
                assert sample.split()[100] == alone, (workers, blas)
                outputs.add(sample)
        assert len(outputs) == 1


# the oracle's mean and stderr at a batch-axis shape, in a fresh process
_SMALL_ORACLE_SCRIPT = """
from anmimo import mc_logdet_oracle
est = mc_logdet_oracle(3, 6, 2.0, 20000, seed=5)
print(est.mean.hex(), est.stderr.hex())
"""


@needs_openblas
def test_small_shape_oracle_bitwise_across_openblas_kernels():
    # the batch-axis log-dets call no BLAS, so the kernel OpenBLAS picks
    # for the CPU cannot move them; the rate path's QR still can
    assert mc._on_batch_axis(3, 6)
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    outputs = {}
    for core in (None, "Haswell", "SandyBridge", "Prescott"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run(
            [sys.executable, "-c", _SMALL_ORACLE_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[core] = proc.stdout.strip()
    assert len(set(outputs.values())) == 1, outputs
