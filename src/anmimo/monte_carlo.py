"""Ground-truth Monte Carlo engine with reproducible counter-based seeding.

Every trial owns a fixed span of raw 64-bit words from a counter-based
generator (Philox keyed by the seed, counter set to the trial's first
block), so trial t draws identical numbers whether it is sampled alone,
inside any batch, or on any worker. Reduction is likewise schedule-proof:
trials are grouped into chunks whose boundaries depend only on the trial
shape, each chunk is summed exactly (math.fsum) and its squares about
its own mean by a fixed tree of adds, and chunk partials merge in chunk
order. Chunks are evaluated on a thread pool with one worker per
available core; the ANMIMO_WORKERS environment variable narrows or widens
that pool. It can never change a result or an output byte, only the
schedule. Each worker walks its chunk in slices of at most 2**19 words,
which bounds memory without touching the per-trial values.

Gaussians come from a rejection-free polar construction on (0, 1]-safe
uniforms: each complex entry uses two words and has unit total variance
(real and imaginary parts each 1/2), matching the unit-variance channel
convention. A per-component variance of 1 here would silently double
every SNR, hence the explicit construction instead of library normals.

The secrecy rate of a trial needs only h and g. The eavesdropper sees
g (alpha P + alpha beta (I - P)) g^H, where P projects onto the row space
of h, and both of its pieces come from one Householder QR of [h^H g^H]
(see _secrecy_rates); the precoding basis (v1, z) belongs to the model
that sample_channel returns, not to the estimator.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .closed_form import SystemConfig
from .errors import ConfigError, DomainError, NumericError

_WORKERS_ENV = "ANMIMO_WORKERS"
_INV_2_53 = 1.0 / float(2**53)
_RANK_RTOL = 1e-8
# an upper bound on cond(h) at most this clears the rank check with a wide
# margin over 1 / _RANK_RTOL, whatever the rounding in the bound
_COND_CLEAR = 1e6
_MAX_SEED = 2**64
_SLICE_WORDS = 1 << 19


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One sampled channel pair with its null-space precoding basis.

    h is the legitimate channel (n_b x n_a), g the eavesdropper channel
    (n_e x n_a); v1 (n_a x n_b) spans the data subspace and z
    (n_a x (n_a - n_b)) the null space of h, together unitary. v1 and z
    describe the transmitter; the secrecy rate is computed from h and g
    alone, so it does not depend on which orthonormal pair they are.
    """

    h: np.ndarray
    g: np.ndarray
    v1: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    trials: int
    seed: int
    clamped: bool


def _check_seed(seed) -> int:
    out_of_range = "seed must fit in 64 unsigned bits, got {value}"
    seed = _check_int(seed, 0, "seed must be an integer, got {value!r}", out_of_range)
    if seed >= _MAX_SEED:
        raise DomainError(out_of_range.format(value=seed))
    return seed


def _check_int(value, minimum: int, not_int: str, too_small: str | None = None) -> int:
    """value as an int; DomainError unless it is an integer >= minimum.

    The messages are format strings over ``value``; too_small defaults to
    not_int.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(not_int.format(value=value))
    if value < minimum:
        raise DomainError((too_small or not_int).format(value=value))
    return int(value)


def _check_trials(trials) -> int:
    return _check_int(
        trials, 2,
        "trials must be an integer, got {value!r}",
        "need trials >= 2 for a standard error, got {value}",
    )


def _worker_count() -> int:
    raw = os.environ.get(_WORKERS_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        w = int(raw)
    except ValueError:
        raise ConfigError(f"{_WORKERS_ENV} must be an integer, got {raw!r}") from None
    if w < 1:
        raise ConfigError(f"{_WORKERS_ENV} must be >= 1, got {w}")
    return w


def _blocks_per_trial(n_words: int) -> int:
    # Philox emits 4 words per counter block
    return (n_words + 3) // 4


def _raw_words(seed: int, start_block: int, n_words: int) -> np.ndarray:
    bg = np.random.Philox(key=seed, counter=int(start_block))
    return bg.random_raw(n_words)


def _gaussians_from_words(words: np.ndarray) -> np.ndarray:
    """Map pairs of raw words to unit-variance circular complex Gaussians.

    Entry k is sqrt(-ln(1 - u_2k)) * exp(2 pi i u_2k+1) for the 53-bit
    uniforms u of the words, built in place: cos and sin go straight into
    the real and imaginary parts of the result.
    """
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= _INV_2_53
    radius = np.subtract(1.0, u[..., 0::2])  # in (0, 1], keeps the log finite
    np.log(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    angle = np.multiply(2.0 * np.pi, u[..., 1::2])
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out.real *= radius
    out.imag *= radius
    if not radius.all():
        # a zero radius is -0.0 (the sqrt of -ln 1); the complex product
        # radius * (cos + i sin) gives its zeros other signs, kept here
        zero = radius == 0.0
        out[zero] = radius[zero] * (np.cos(angle[zero]) + 1j * np.sin(angle[zero]))
    return out


def _trial_gaussians(seed: int, t0: int, nt: int, words_per_trial: int) -> np.ndarray:
    """Gaussians of trials [t0, t0+nt), one row of words_per_trial/2 per trial.

    Trial t reads its own counter span, so a row never depends on t0 or nt.
    """
    bpt = _blocks_per_trial(words_per_trial)
    raw = _raw_words(seed, t0 * bpt, nt * bpt * 4).reshape(nt, bpt * 4)
    return _gaussians_from_words(raw[:, :words_per_trial])


def _chunk_size(words_per_trial: int) -> int:
    # pure function of the trial shape, so chunk boundaries (and therefore
    # the reduction) never depend on trial count or worker count
    return max(1, min(65536, (1 << 21) // max(1, words_per_trial)))


def _spans(t0: int, nt: int, size: int):
    return [(s, min(size, t0 + nt - s)) for s in range(t0, t0 + nt, size)]


def _chunk_spans(trials: int, words_per_trial: int):
    return _spans(0, trials, _chunk_size(words_per_trial))


def _sliced(values, t0: int, nt: int, words_per_trial: int) -> np.ndarray:
    """values(s, n) over trials [t0, t0+nt) in slices of <= _SLICE_WORDS words.

    Per-trial values do not depend on the slicing: each trial has its own
    counter span, and every LAPACK/BLAS call works on one trial's matrices.
    """
    step = max(1, _SLICE_WORDS // (4 * _blocks_per_trial(words_per_trial)))
    return np.concatenate([values(s, n) for s, n in _spans(t0, nt, step)])


def _map_chunks(spans, worker) -> list:
    n_workers = _worker_count()
    if n_workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(lambda span: worker(*span), spans))
    return [worker(*span) for span in spans]


def _herm(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -2, -1).conj()


def _logdet_eye_plus_gram(b: np.ndarray) -> np.ndarray:
    """ln det(I + B B^H) batched, via Cholesky on the smaller Gram side."""
    rows, cols = b.shape[-2], b.shape[-1]
    if cols < rows:
        gram = _herm(b) @ b
        dim = cols
    else:
        gram = b @ _herm(b)
        dim = rows
    gram = gram + np.eye(dim)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram factorization failed: {exc}") from exc
    diag = np.einsum("...ii->...i", chol).real
    return 2.0 * np.sum(np.log(diag), axis=-1)


def _rate_words(cfg: SystemConfig) -> int:
    return 2 * (cfg.n_b + cfg.n_e) * cfg.n_a


def _stacked_batch(cfg: SystemConfig, seed: int, t0: int, nt: int) -> np.ndarray:
    """h stacked over g, (nt, n_b + n_e, n_a), for trials [t0, t0+nt)."""
    entries = _trial_gaussians(seed, t0, nt, _rate_words(cfg))
    return entries.reshape(nt, cfg.n_b + cfg.n_e, cfg.n_a)


def _sample_batch(cfg: SystemConfig, seed: int, t0: int, nt: int):
    """Channels for trials [t0, t0+nt) straight from their counter spans."""
    hg = _stacked_batch(cfg, seed, t0, nt)
    return hg[:, : cfg.n_b], hg[:, cfg.n_b :]


def _check_rank(h: np.ndarray, r_diag: np.ndarray, t0: int) -> None:
    """NumericError at the first trial whose h has sigma_min <= 1e-8 sigma_max.

    r_diag holds the diagonals of n x n triangular factors R of the h^H,
    which share the singular values of h. cond(R) < (2 / |det R|)
    (||R||_F / sqrt(n))^n (Guggenheimer, Edelman & Johnson, 1995), with
    |det R| the product of the |r_ii| and ||R||_F = ||h||_F, so a trial
    whose bound is at most _COND_CLEAR passes without an SVD. The others
    get the singular values of the R that np.linalg.qr of h^H gives in
    any mode.
    """
    n = r_diag.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 gives a nan bound
        log_det = np.sum(np.log(np.abs(r_diag)), axis=-1)
        log_fro = np.log(np.linalg.norm(h, axis=(-2, -1)))
        log_bound = math.log(2.0) - log_det + n * (log_fro - 0.5 * math.log(n))
    unsure = np.flatnonzero(~(log_bound <= math.log(_COND_CLEAR)))
    if unsure.size == 0:
        return
    try:
        r = np.linalg.qr(_herm(h[unsure]), mode="r")
        singvals = np.linalg.svd(r, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"rank check failed near trial {t0}: {exc}") from exc
    bad = singvals[..., -1] <= _RANK_RTOL * singvals[..., 0]
    if np.any(bad):
        idx = t0 + int(unsure[np.argmax(bad)])
        raise NumericError(f"rank-deficient legitimate channel at trial {idx}")


def _precoding_basis(h: np.ndarray, n_b: int, t0: int):
    """Orthonormal bases of the row space (v1) and null space (z) of each h.

    Both come from a complete QR of h^H = Q R: the first n_b columns of Q
    span the row space, the rest the null space.
    """
    try:
        q, r = np.linalg.qr(_herm(h), mode="complete")
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"QR basis failed near trial {t0}: {exc}") from exc
    _check_rank(h, np.diagonal(r, axis1=-2, axis2=-1), t0)
    return q[..., :n_b], q[..., n_b:]


def sample_channel(cfg: SystemConfig, trial_index: int, seed: int) -> ChannelRealization:
    """Channel pair for one trial, reproducible in isolation.

    The same (seed, trial_index) always yields the same realization, and
    it is bit-identical to the one any batched estimator uses internally
    for that trial index.
    """
    trial_index = _check_int(
        trial_index, 0,
        "trial_index must be an integer, got {value!r}",
        "trial_index must be nonnegative, got {value}",
    )
    seed = _check_seed(seed)
    h, g = _sample_batch(cfg, seed, trial_index, 1)
    v1, z = _precoding_basis(h, cfg.n_b, trial_index)
    return ChannelRealization(h=h[0], g=g[0], v1=v1[0], z=z[0])


def _secrecy_rates(
    cfg: SystemConfig, hg: np.ndarray, t0: int | None = None
) -> np.ndarray:
    """Unclamped secrecy rates of a batch of h stacked over g, from h and g alone.

    One Householder QR of [h^H g^H] gives R = [[R11, R12], [0, R22]]: R11
    is the R of h^H, R12 = Q1^H g^H is g on the row space of h, and
    R22^H R22 = g (I - P) g^H is g on the null space. The eavesdropper's
    log-dets, ln det(I + g (alpha P + alpha beta (I - P)) g^H) and
    ln det(I + alpha beta g (I - P) g^H), are then Grams of the computed
    blocks [sqrt(alpha) R12; sqrt(alpha beta) R22] and sqrt(alpha beta) R22,
    with no difference of Grams to cancel at high SNR. Given t0, a
    rank-deficient h raises NumericError naming trial t0 + i first.
    """
    n_b, n_e = cfg.n_b, cfg.n_e
    # the QR runs on the transpose [h^T g^T], whose R is the conjugate of
    # the R above: no log-det changes, and no conjugated copy is made.
    # Mode "raw" returns the factored matrix transposed, so its row n_b + j
    # holds column n_b + j of that R on and left of the diagonal
    raw = np.linalg.qr(np.swapaxes(hg, -2, -1), mode="raw")[0]
    k = min(cfg.n_a, n_b + n_e)
    if t0 is not None:
        _check_rank(hg[..., :n_b, :], np.diagonal(raw, axis1=-2, axis2=-1)[..., :n_b], t0)
    col_scale = np.full(k, math.sqrt(cfg.alpha * cfg.beta))
    col_scale[:n_b] = math.sqrt(cfg.alpha)
    on_r = np.arange(k) <= np.arange(n_b, n_b + n_e)[:, None]
    b = raw[..., n_b:, :k] * np.where(on_r, col_scale, 0.0)  # [R12; R22]^H, scaled
    legit = _logdet_eye_plus_gram(math.sqrt(cfg.alpha * cfg.gamma) * hg[..., :n_b, :])
    eve_full = _logdet_eye_plus_gram(b)
    eve_noise = _logdet_eye_plus_gram(b[..., n_b:])
    return legit - (eve_full - eve_noise)


def instantaneous_secrecy_rate(ch: ChannelRealization, cfg: SystemConfig) -> float:
    """Secrecy rate of one realization in nats, unclamped.

    Legitimate log-det minus the eavesdropper log-det gap, each computed
    by Cholesky on the smaller side of the Gram pairing (never from raw
    eigenvalues, which lose digits at high SNR). Only ch.h and ch.g enter.
    """
    if ch.h.shape != (cfg.n_b, cfg.n_a) or ch.g.shape != (cfg.n_e, cfg.n_a):
        raise DomainError(
            f"realization shaped h{ch.h.shape}, g{ch.g.shape} does not match "
            f"config ({cfg.n_b}x{cfg.n_a}, {cfg.n_e}x{cfg.n_a})"
        )
    rate = _secrecy_rates(cfg, np.concatenate((ch.h, ch.g))[None, ...])[0]
    if not math.isfinite(rate):
        raise NumericError(f"non-finite rate {rate!r}")
    return float(rate)


def _rate_slice_values(cfg: SystemConfig, seed: int, t0: int, nt: int) -> np.ndarray:
    return _secrecy_rates(cfg, _stacked_batch(cfg, seed, t0, nt), t0)


def _rate_chunk_values(cfg: SystemConfig, seed: int, t0: int, nt: int, clamp: bool):
    vals = _sliced(
        lambda s, n: _rate_slice_values(cfg, seed, s, n), t0, nt, _rate_words(cfg)
    )
    if not np.all(np.isfinite(vals)):
        idx = t0 + int(np.argmax(~np.isfinite(vals)))
        raise NumericError(f"non-finite rate at trial {idx}")
    if clamp:
        vals = np.maximum(vals, 0.0)
    return vals


def _sum_of_squares(x: np.ndarray) -> float:
    """sum(x^2) by a fixed tree of elementwise pairwise adds.

    Every add is one IEEE operation in an order set here, so the result
    is the same on any machine. The terms are nonnegative, so the tree
    rounds by at most about log2(len(x)) units in the last place, at a
    fraction of an exact fsum's cost.
    """
    s = x * x
    while len(s) > 1:
        half = len(s) // 2
        pairs = s[:half] + s[half : 2 * half]
        s = np.append(pairs, s[2 * half :]) if len(s) % 2 else pairs
    return float(s[0])


def _chunk_partials(vals: np.ndarray):
    """A chunk's exact sum, count and sum of squares about its own mean."""
    total = math.fsum(vals.tolist())
    return (total, len(vals), _sum_of_squares(vals - total / len(vals)))


def _merge_mean_stderr(partials, trials: int):
    """Mean and standard error from chunk partials, in chunk order.

    The mean is the exact sum over the trial count. The squares about it
    merge by chunk (Chan, Golub & LeVeque, 1979): each chunk's centred
    sum of squares plus its count times its mean's squared offset from
    the overall mean. Unlike sum(x^2) - n mean^2, nothing cancels when
    the mean is large against the spread.
    """
    mean = math.fsum(s for s, _, _ in partials) / trials
    squares = math.fsum(q + n * (s / n - mean) ** 2 for s, n, q in partials)
    return mean, math.sqrt(squares / (trials - 1) / trials)


def mc_average_secrecy_rate(
    cfg: SystemConfig, trials: int, seed: int = 0, clamp: bool = True
) -> MCEstimate:
    """Sample mean of the per-realization secrecy rate with standard error.

    clamp=True floors each realization at zero before averaging (the
    operational nonnegative rate); clamp=False matches the unclamped
    closed-form expectation. Bitwise reproducible for fixed inputs at any
    worker count.
    """
    trials = _check_trials(trials)
    seed = _check_seed(seed)

    def worker(t0, nt):
        return _chunk_partials(_rate_chunk_values(cfg, seed, t0, nt, clamp))

    partials = _map_chunks(_chunk_spans(trials, _rate_words(cfg)), worker)
    mean, stderr = _merge_mean_stderr(partials, trials)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, clamped=bool(clamp))


def mc_logdet_oracle(
    rows: int,
    cols: int,
    scale_profile: Union[float, Sequence[float]],
    trials: int,
    seed: int = 0,
) -> MCEstimate:
    """Brute-force E[ln det(I_rows + G diag(profile) G^H)], G rows x cols.

    The independent oracle for the closed forms: a uniform profile checks
    theta, a two-level profile checks omega. scale_profile may be a single
    scale (applied to every column) or a length-cols sequence of
    nonnegative scales.
    """
    rows = _check_int(rows, 1, "rows must be a positive integer, got {value!r}")
    cols = _check_int(cols, 1, "cols must be a positive integer, got {value!r}")
    trials = _check_trials(trials)
    seed = _check_seed(seed)
    profile = np.asarray(scale_profile, dtype=np.float64)
    if profile.ndim == 0:
        profile = np.full(cols, float(profile))
    if profile.shape != (cols,):
        raise DomainError(
            f"scale_profile must be a scalar or have length cols={cols}, "
            f"got shape {profile.shape}"
        )
    if not np.all(np.isfinite(profile)) or np.any(profile < 0.0):
        raise DomainError("scale_profile entries must be finite and >= 0")
    sqrt_profile = np.sqrt(profile)
    words = 2 * rows * cols

    def values(t0, nt):
        g = _trial_gaussians(seed, t0, nt, words).reshape(nt, rows, cols)
        return _logdet_eye_plus_gram(g * sqrt_profile)

    def worker(t0, nt):
        return _chunk_partials(_sliced(values, t0, nt, words))

    partials = _map_chunks(_chunk_spans(trials, words), worker)
    mean, stderr = _merge_mean_stderr(partials, trials)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, clamped=False)


def mc_normalized_rate_sample(
    cfg: SystemConfig, realizations: int, seed: int = 0
) -> List[float]:
    """Unclamped per-realization secrecy rates divided by n_b, in trial order.

    Raw material for concentration studies against the large-system limit.
    """
    realizations = _check_int(
        realizations, 1,
        "realizations must be an integer, got {value!r}",
        "realizations must be positive, got {value}",
    )
    seed = _check_seed(seed)

    def worker(t0, nt):
        return _rate_chunk_values(cfg, seed, t0, nt, clamp=False)

    chunks = _map_chunks(_chunk_spans(realizations, _rate_words(cfg)), worker)
    stacked = np.concatenate(chunks) / cfg.n_b
    return [float(v) for v in stacked]
