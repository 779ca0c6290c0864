"""Ground-truth Monte Carlo engine with reproducible counter-based seeding.

Every trial owns a fixed span of raw 64-bit words from a counter-based
generator (Philox keyed by the seed, counter set to the trial's first
block), so trial t draws identical numbers whether it is sampled alone,
inside any batch, or on any worker. Reduction is likewise schedule-proof:
trials are grouped into chunks whose boundaries depend only on the trial
shape, each chunk is summed exactly (math.fsum) and its squares about
its own mean by a fixed tree of adds, and chunk partials merge in chunk
order. One driver (_chunked) runs this schedule for every estimator,
which supplies only the per-trial values of a slice of trials and what
to keep of a chunk. Chunks are evaluated on a thread pool with one
worker per available core; the ANMIMO_WORKERS environment variable
narrows or widens that pool. It can never change a result or an output
byte, only the schedule. Results are bitwise the same for one numpy and
BLAS build on one CPU kernel. Each worker walks its chunk in slices of at
most 8192 trials and at most 2**19 words, which bounds memory without
touching the per-trial values; every batch below the chunk is one slice.

Every log-det is ln det(I + B B^H) on the smaller side of the Gram, by
one of two paths that a rule on the shape alone picks (_on_batch_axis:
Gram side n, other dimension m, n (n + 1) m <= 120 and m <= 20). Small
Grams run an LDL^H elimination on the batch axis: Python loops over the
few rows and columns, each step one elementwise IEEE operation on the
arrays of all trials, in a fixed order. That costs no call per trial,
and no BLAS kernel can round it differently. Larger Grams form one Gram
per trial by matmul and factor it by LAPACK's Cholesky, and the rate's
QR always runs on LAPACK, so there another BLAS kernel (say, another
OPENBLAS_CORETYPE) can round a trial differently, by a few units in the
last place.

Each public function runs OpenBLAS single-threaded for as long as it
runs, on the serial path as on the pool, and restores the previous
thread count when it returns or raises (_blas_threads). The setting is
process-wide while a call lasts. Under OpenBLAS, values therefore do not
depend on OPENBLAS_NUM_THREADS, and BLAS threads do not oversubscribe
the workers' cores. Other BLAS libraries (MKL, Accelerate) are left as
configured: small shapes are bitwise the same under any thread count,
but at large shapes (n_a in the hundreds) a threaded BLAS can move the
last bits of a rate with its thread count.

Gaussians come from a rejection-free polar construction on (0, 1]-safe
uniforms: each complex entry uses two words and has unit total variance
(real and imaginary parts each 1/2), matching the unit-variance channel
convention. A per-component variance of 1 here would silently double
every SNR, hence the explicit construction instead of library normals.
The radius sqrt(-ln(1 - u)) is numpy's log and sqrt. The angle's cos
and sin (_cos_sin) are a 1024-entry table of cos and sin at the midpoint
of each angle interval, built at import in integer arithmetic and
correctly rounded, plus short polynomials in the offset from the
midpoint: elementwise IEEE +, -, * on exact conversions and table reads,
within about 2**-53 of the exact values. Their bytes do not follow
numpy's SIMD dispatch; np.log, here and in the batch-axis pivots, still
does.

The secrecy rate of a trial needs only h and g. The eavesdropper sees
g (alpha P + alpha beta (I - P)) g^H, where P projects onto the row space
of h, and both of its pieces come from one Householder QR of [h^H g^H]
(see _secrecy_rates); the precoding basis (v1, z) belongs to the model
that sample_channel returns, not to the estimator. The rank check of h
reads the triangular factor of whichever QR of h^H its caller ran, and
factors nothing again.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from ._blas_threads import one_blas_thread
from .closed_form import SystemConfig
from .errors import _MAX_SEED, ConfigError, DomainError, NumericError, _integer

_WORKERS_ENV = "ANMIMO_WORKERS"
_INV_2_53 = 1.0 / float(2**53)
# the Gaussian map: the top _ANGLE_TABLE_BITS of an angle's 53 bits index a
# table, the rest are an offset; fl(2 pi) 2**-53 is an exact product
_ANGLE_TABLE_BITS = 10
_ANGLE_OFFSET_BITS = 53 - _ANGLE_TABLE_BITS
_ANGLE_STEP = 2.0 * math.pi * _INV_2_53
_BITS_OF_2_52 = 0x4330000000000000  # the double 2**52 as a 64-bit integer
_MAP_BLOCK = 65536  # Gaussians per block of the map (see _gaussians_from_words)
_RANK_RTOL = 1e-8
# an upper bound on cond(h) at most this clears the rank check with a wide
# margin over 1 / _RANK_RTOL, whatever the rounding in the bound
_COND_CLEAR = 1e6
_PHILOX_BLOCKS = 2**256  # Philox's 256-bit block counter
_SLICE_TRIALS = 8192  # a slice (_chunked) has at most this many trials
_SLICE_WORDS = 1 << 19  # and at most this many Philox words
# the batch-axis log-det's largest n (n + 1) m and m, and trials per copied tile
_BATCH_AXIS_WORK = 120
_BATCH_AXIS_MAX_M = 20
_BATCH_AXIS_TILE = 2048


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
    seed = _integer("seed", seed, 0)
    if seed >= _MAX_SEED:
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


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


def _angle_table():
    """cos and sin of 2 pi (k + 1/2) / 1024 for k < 1024, as two float64 arrays.

    Built in integer fixed point at 216 bits, with no libm and no mpmath:
    pi from Machin's formula, pi/4 = 4 atan(1/5) - atan(1/239); cos and
    sin of the half step pi/1024 by their Taylor series; the first
    quadrant by 255 rotations through the step 2 pi/1024; the other
    quadrants by exact sign swaps. The rotations leave an error below
    2**-200, so every entry rounds correctly (CPython's int / int is
    correctly rounded) unless one lies that close to a tie.
    """
    size = 1 << _ANGLE_TABLE_BITS
    q = 216
    one = 1 << q

    def atan_inv(x):  # atan(1/x) in fixed point
        total, term, n, sign = 0, one // x, 1, 1
        while term:
            total += sign * (term // n)
            term //= x * x
            n, sign = n + 2, -sign
        return total

    half = 4 * (4 * atan_inv(5) - atan_inv(239)) // size  # pi/size
    taylor, term, n = [0, 0, 0, 0], one, 0  # x^n/n! at x = pi/size, summed by n mod 4
    while term:
        taylor[n % 4] += term
        n += 1
        term = term * half // (one * n)
    c, s = taylor[0] - taylor[2], taylor[1] - taylor[3]
    step_c, step_s = (c * c - s * s) >> q, (2 * c * s) >> q
    cos_q, sin_q = [], []
    for _ in range(size // 4):
        cos_q.append(c / one)
        sin_q.append(s / one)
        c, s = (c * step_c - s * step_s) >> q, (s * step_c + c * step_s) >> q
    minus_cos, minus_sin = [-v for v in cos_q], [-v for v in sin_q]
    # the angle plus pi/2, pi and 3 pi/2
    cos_t = cos_q + minus_sin + minus_cos + sin_q
    sin_t = sin_q + cos_q + minus_sin + minus_cos
    return np.array(cos_t), np.array(sin_t)


_COS_TABLE, _SIN_TABLE = _angle_table()


def _cos_sin(w: np.ndarray, cos: np.ndarray, sin: np.ndarray, scratch: np.ndarray) -> None:
    """cos and sin of the angle 2 pi m / 2**53 of each word, m = w >> 11, into cos and sin.

    cos and sin are contiguous and shaped like w; scratch is a float64
    buffer of at least (5, w.size). The top 10 bits k of m pick the
    table's midpoint 2 pi (k + 1/2) / 1024; the other 43 bits r give the
    offset delta = (r - 2**42) fl(2 pi 2**-53), |delta| <= pi/1024, with
    one rounding. cos delta - 1 = d^2 (d^2/24 - 1/2) and sin delta =
    d + d^3 (d^2/120 - 1/6) drop terms below 1.2e-18; the
    angle-addition formulas add the small corrections to the table's
    entries last. Each step is an elementwise IEEE +, -, * or an exact
    conversion or table read, so the bits do not depend on numpy's SIMD
    dispatch or the array's length, and every value is within about 2**-53
    of the exact cos and sin of 2 pi m / 2**53. w is read once: a strided
    read costs several contiguous ones.
    """
    table_c, table_s, delta, cm1, sd = scratch[:5, : w.size].reshape(5, *w.shape)
    m = sd.view(np.uint64)  # sd and delta are free until the offset is done
    np.right_shift(w, 11, out=m)
    index = delta.view(np.int64)
    np.right_shift(m, _ANGLE_OFFSET_BITS, out=index)
    np.take(_COS_TABLE, index, out=table_c, mode="wrap")  # 'wrap' skips a buffered copy
    np.take(_SIN_TABLE, index, out=table_s, mode="wrap")
    # r in the mantissa of 2**52 is the double 2**52 + r: the conversion
    # and the subtraction below are exact, delta is one rounding
    np.bitwise_and(m, (1 << _ANGLE_OFFSET_BITS) - 1, out=m)
    np.bitwise_or(m, _BITS_OF_2_52, out=m)
    np.subtract(m.view(np.float64), 2.0**52 + 2.0 ** (_ANGLE_OFFSET_BITS - 1), out=delta)
    delta *= _ANGLE_STEP
    d2 = sin  # delta squared, until sin is written
    np.multiply(delta, delta, out=d2)
    np.multiply(d2, 1.0 / 24.0, out=cm1)
    cm1 -= 0.5
    cm1 *= d2
    np.multiply(d2, 1.0 / 120.0, out=sd)
    sd -= 1.0 / 6.0
    sd *= d2
    sd *= delta
    sd += delta
    # cos = C + (C (cos delta - 1) - S sin delta), sin = S + (S (cos delta - 1) + C sin delta)
    np.multiply(table_c, cm1, out=cos)
    np.multiply(table_s, sd, out=delta)
    cos -= delta
    cos += table_c
    np.multiply(table_s, cm1, out=sin)
    np.multiply(table_c, sd, out=delta)
    sin += delta
    sin += table_s


def _gaussians_from_words(words: np.ndarray) -> np.ndarray:
    """Map pairs of raw words to unit-variance circular complex Gaussians.

    Entry k is sqrt(-ln(1 - u_2k)) * (cos + i sin)(2 pi u_2k+1) for the
    53-bit uniforms u of the words. The radius is numpy's sqrt and log,
    the cos and sin come from _cos_sin. The map runs in blocks of at most
    _MAP_BLOCK entries, a row of words or a run of rows at a time, reading
    words (a strided view is fine) without copying them whole. Each numpy
    call releases the GIL, and two pool workers making short calls wait
    on each other: on a 2-vCPU AVX-512 Xeon, two threads mapping (4,4)
    slices ran 1.19x faster than one at 16384-entry blocks and 1.76x at
    65536, for 7% more time alone.
    """
    w2 = words.reshape(-1, words.shape[-1])
    rows, pairs = w2.shape[0], w2.shape[1] // 2
    out = np.empty((rows, pairs), dtype=np.complex128)
    cols = min(pairs, _MAP_BLOCK)
    step = min(rows, _MAP_BLOCK // cols)
    scratch = np.empty((8, step * cols))
    for r0 in range(0, rows, step):
        for c0 in range(0, pairs, cols):
            w = w2[r0 : r0 + step, 2 * c0 : 2 * (c0 + cols)]
            o = out[r0 : r0 + step, c0 : c0 + cols]
            radius, cos, sin = scratch[:3, : o.size].reshape(3, *o.shape)
            u53 = cos.view(np.int64)  # cos is not needed until _cos_sin writes it
            np.right_shift(w[:, 0::2], 11, out=u53)
            np.multiply(u53, _INV_2_53, out=radius)
            np.subtract(1.0, radius, out=radius)  # in (0, 1], keeps the log finite
            np.log(radius, out=radius)
            np.negative(radius, out=radius)
            np.sqrt(radius, out=radius)
            _cos_sin(w[:, 1::2], cos, sin, scratch[3:])
            np.multiply(cos, radius, out=o.real)
            np.multiply(sin, radius, out=o.imag)
            if not radius.all():
                # a zero radius is -0.0 (the sqrt of -ln 1); the complex product
                # radius * (cos + i sin) gives its zeros other signs, kept here
                zero = radius == 0.0
                o[zero] = radius[zero] * (cos[zero] + 1j * sin[zero])
    return out.reshape(words.shape[:-1] + (pairs,))


def _trial_gaussians(seed: int, t0: int, nt: int, words_per_trial: int) -> np.ndarray:
    """Gaussians of trials [t0, t0+nt), one row of words_per_trial/2 per trial.

    Trial t reads its own counter span, so a row never depends on t0 or nt.
    """
    bpt = _blocks_per_trial(words_per_trial)
    raw = np.random.Philox(key=seed, counter=t0 * bpt).random_raw(nt * bpt * 4)
    return _gaussians_from_words(raw.reshape(nt, bpt * 4)[:, :words_per_trial])


def _chunk_size(words_per_trial: int) -> int:
    # pure function of the trial shape, so chunk boundaries (and therefore
    # the reduction) never depend on trial count or worker count
    return max(1, min(65536, (1 << 21) // words_per_trial))


def _chunked(trials: int, words_per_trial: int, values, finish) -> list:
    """finish(t0, chunk values) for each chunk of trials [0, trials), in chunk order.

    A chunk's values are values(s, n) over its slices of trials [s, s+n),
    each of at most _SLICE_TRIALS trials and _SLICE_WORDS words, joined in
    trial order. Per-trial values do not depend on the slicing: each trial
    has its own counter span, every LAPACK/BLAS call works on one trial's
    matrices, and the batch-axis log-dets work elementwise across trials.
    The slices run with numpy's overflow and invalid warnings off, in the
    thread that runs the chunk (a pool thread does not inherit its
    caller's errstate): an overflowing Gram leaves inf or nan values,
    which finish refuses by trial.
    """
    size = _chunk_size(words_per_trial)
    step = max(1, min(_SLICE_TRIALS, _SLICE_WORDS // (4 * _blocks_per_trial(words_per_trial))))

    def chunk(t0):
        end = min(t0 + size, trials)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.concatenate([values(s, min(step, end - s)) for s in range(t0, end, step)])
        return finish(t0, vals)

    starts = range(0, trials, size)
    n_workers = _worker_count()
    if n_workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(chunk, starts))
    return [chunk(t0) for t0 in starts]


def _herm(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -2, -1).conj()


def _on_batch_axis(rows: int, cols: int) -> bool:
    """Whether a rows x cols B takes the batch-axis log-det.

    With n = min(rows, cols), the Gram side, and m = max(rows, cols), the
    rule is n (n + 1) m <= 120 and m <= 20: n = 1 and n = 2 up to m = 20,
    n = 3 up to m = 10 and n = 4 up to m = 6. It reads the shape alone,
    never the trial count, slice or worker count, so a trial's log-det
    never depends on how it was batched.
    """
    n, m = sorted((rows, cols))
    return m <= _BATCH_AXIS_MAX_M and n * (n + 1) * m <= _BATCH_AXIS_WORK


def _logdet_eye_plus_gram(b: np.ndarray) -> np.ndarray:
    """ln det(I + B B^H) for a (trials, rows, cols) batch of B, on the smaller side.

    Shapes that _on_batch_axis admits run an LDL^H elimination on the
    batch axis (_logdet_batch_axis), in one pass over the whole batch,
    with no numpy warning: an overflowing B gives a non-finite log-det.
    The others form one Gram per trial by matmul and factor it by
    LAPACK's Cholesky. At these sizes a LAPACK call costs more than its
    arithmetic, while the batch axis costs about n (n + 1) m elementwise
    operations per trial. Measured on one AVX-512 vCPU, one BLAS thread,
    2**19-word batches, the batch axis took this share of LAPACK's time:
    n = 1: 0.2 at m = 3, 0.4-0.6 at m = 8-15, 0.8-1.0 at m = 16-20 and
    1.0-1.9 beyond; n = 2: 0.1-0.2 at m <= 4, 0.3-0.6 up to m = 20;
    n = 3: 0.2-0.3 at m <= 6, 0.5 at m = 8-12, 0.8 at m = 16-20; n = 4:
    0.4-0.6 at m <= 7, 0.7-0.8 at m = 8-10; 0.6-0.8 at (5,5) and (6,6);
    1.1 at (6,8), 1.5 at (8,8) and 2.1 at (6,20). The rule keeps the
    shapes where the gain is large and the copy small, 16 n m bytes per
    trial of the slice (_chunked: at most 8192 trials and 2**19 words).
    """
    rows, cols = b.shape[-2], b.shape[-1]
    if not _on_batch_axis(rows, cols):
        return _logdet_lapack(b)
    if cols < rows:
        # B^T (B^T)^H is the conjugate of B^H B: the same real pivots
        b = np.swapaxes(b, -2, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _logdet_batch_axis(b)


def _logdet_batch_axis(x: np.ndarray) -> np.ndarray:
    """ln det(I + X X^H) per trial of x, (trials, n, m) with n <= m.

    Each entry of X is a real and an imaginary array over the trials, so
    every operation below is one elementwise IEEE +, -, *, / or log on
    arrays of trials, in an order fixed here: no reduction, matmul or
    complex multiply, whose rounding and FMA use may change with the
    array length. A trial's log-det is therefore the same bits in a batch
    of any size. The lower triangle of A = I + X X^H is formed first;
    the right-looking LDL^H elimination then takes pivot d_j = A_jj,
    l_i = A_ij / d_j, and A_ik -= l_i conj(A_kj) for j < k <= i, and the
    log-det is the sum of the ln d_j in pivot order. l_i is formed before
    its product, so no intermediate exceeds the Gram's own range.
    """
    t, n, m = x.shape
    # copied a tile at a time: a whole slice's strided reads, power-of-two
    # bytes apart at some shapes, ran up to 3x slower (8192 trials, (2,16))
    xr, xi = np.empty((2, n, m, t))
    for u in range(0, t, _BATCH_AXIS_TILE):
        tile = x[u : u + _BATCH_AXIS_TILE].transpose(1, 2, 0)
        xr[..., u : u + _BATCH_AXIS_TILE] = tile.real
        xi[..., u : u + _BATCH_AXIS_TILE] = tile.imag
    ar, ai = {}, {}  # real and imaginary parts of A[i, j], j <= i
    for i in range(n):
        for j in range(i + 1):
            re = xr[i, 0] * xr[j, 0]
            re += xi[i, 0] * xi[j, 0]
            for k in range(1, m):
                re += xr[i, k] * xr[j, k]
                re += xi[i, k] * xi[j, k]
            if i == j:
                re += 1.0
            else:
                im = xi[i, 0] * xr[j, 0]
                im -= xr[i, 0] * xi[j, 0]
                for k in range(1, m):
                    im += xi[i, k] * xr[j, k]
                    im -= xr[i, k] * xi[j, k]
                ai[i, j] = im
            ar[i, j] = re
    logdet = np.log(ar[0, 0])
    for j in range(n - 1):
        d = ar[j, j]
        lr = {i: ar[i, j] / d for i in range(j + 1, n)}
        li = {i: ai[i, j] / d for i in range(j + 1, n)}
        for i in range(j + 1, n):
            for k in range(j + 1, i + 1):
                wr, wi = ar[k, j], ai[k, j]
                ar[i, k] -= lr[i] * wr + li[i] * wi
                if k < i:
                    ai[i, k] -= li[i] * wr - lr[i] * wi
        logdet += np.log(ar[j + 1, j + 1])
    return logdet


def _logdet_lapack(b: np.ndarray) -> np.ndarray:
    """ln det(I + B B^H) batched, via Cholesky on the smaller Gram side."""
    rows, cols = b.shape[-2], b.shape[-1]
    if cols < rows:
        gram = _herm(b) @ b
    else:
        gram = b @ _herm(b)
    gram = gram + np.eye(min(rows, cols))
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


def _check_rank(r: np.ndarray, t0: int) -> None:
    """NumericError at the first trial whose h has sigma_min <= 1e-8 sigma_max.

    r holds the n x n triangular factors R (or their transposes) of the
    h^H from the caller's QR; R shares the singular values of h. cond(R)
    < (2 / |det R|) (||R||_F / sqrt(n))^n (Guggenheimer, Edelman &
    Johnson, 1995), with |det R| the product of the |r_ii|, so a trial
    whose bound is at most _COND_CLEAR passes without an SVD. The others
    get the singular values of their R.
    """
    n = r.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 gives a nan bound
        log_det = np.sum(np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1))), axis=-1)
        log_fro = np.log(np.linalg.norm(r, axis=(-2, -1)))
        log_bound = math.log(2.0) - log_det + n * (log_fro - 0.5 * math.log(n))
    unsure = np.flatnonzero(~(log_bound <= math.log(_COND_CLEAR)))
    if unsure.size == 0:
        return
    try:
        singvals = np.linalg.svd(r[unsure], compute_uv=False)
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
    _check_rank(r[..., :n_b, :], t0)
    return q[..., :n_b], q[..., n_b:]


@one_blas_thread
def sample_channel(cfg: SystemConfig, trial_index: int, seed: int) -> ChannelRealization:
    """Channel pair for one trial, reproducible in isolation.

    The same (seed, trial_index) always yields the same realization, and
    it is bit-identical to the one any batched estimator uses internally
    for that trial index. The trial's Philox blocks must end within the
    2**256 counter; a trial_index past that raises DomainError.
    """
    trial_index = _integer("trial_index", trial_index, 0)
    seed = _check_seed(seed)
    bpt = _blocks_per_trial(_rate_words(cfg))
    if (trial_index + 1) * bpt > _PHILOX_BLOCKS:
        raise DomainError(
            f"trial_index must be below 2**256 // {bpt} (its {bpt} Philox blocks "
            f"must end within the 2**256 counter), got {trial_index}"
        )
    hg = _stacked_batch(cfg, seed, trial_index, 1)[0]
    h, g = hg[: cfg.n_b], hg[cfg.n_b :]
    v1, z = _precoding_basis(h[None], cfg.n_b, trial_index)
    return ChannelRealization(h=h, g=g, v1=v1[0], z=z[0])


def _secrecy_rates(cfg: SystemConfig, hg: np.ndarray, t0: int) -> np.ndarray:
    """Unclamped secrecy rates of a batch of h stacked over g, from h and g alone.

    One Householder QR of [h^H g^H] gives R = [[R11, R12], [0, R22]]: R11
    is the R of h^H, R12 = Q1^H g^H is g on the row space of h, and
    R22^H R22 = g (I - P) g^H is g on the null space. The eavesdropper's
    log-dets, ln det(I + g (alpha P + alpha beta (I - P)) g^H) and
    ln det(I + alpha beta g (I - P) g^H), are then Grams of the computed
    blocks [sqrt(alpha) R12; sqrt(alpha beta) R22] and sqrt(alpha beta) R22,
    with no difference of Grams to cancel at high SNR. A rank-deficient h
    raises NumericError naming trial t0 + i first.
    """
    n_b, n_e = cfg.n_b, cfg.n_e
    # the QR runs on the transpose [h^T g^T], whose R is the conjugate of
    # the R above: no log-det changes, and no conjugated copy is made.
    # Mode "raw" returns the factored matrix transposed, so its row n_b + j
    # holds column n_b + j of that R on and left of the diagonal
    raw = np.linalg.qr(np.swapaxes(hg, -2, -1), mode="raw")[0]
    k = min(cfg.n_a, n_b + n_e)
    # the rest of raw's leading block holds Householder vectors, not R
    _check_rank(np.tril(raw[..., :n_b, :n_b]), t0)
    col_scale = np.full(k, math.sqrt(cfg.alpha * cfg.beta))
    col_scale[:n_b] = math.sqrt(cfg.alpha)
    on_r = np.arange(k) <= np.arange(n_b, n_b + n_e)[:, None]
    b = raw[..., n_b:, :k] * np.where(on_r, col_scale, 0.0)  # [R12; R22]^H, scaled
    legit = _logdet_eye_plus_gram(math.sqrt(cfg.alpha * cfg.gamma) * hg[..., :n_b, :])
    eve_full = _logdet_eye_plus_gram(b)
    eve_noise = _logdet_eye_plus_gram(b[..., n_b:])
    return legit - (eve_full - eve_noise)


@one_blas_thread
def instantaneous_secrecy_rate(ch: ChannelRealization, cfg: SystemConfig) -> float:
    """Secrecy rate of one realization in nats, unclamped.

    Legitimate log-det minus the eavesdropper log-det gap, each computed
    by _logdet_eye_plus_gram on the smaller side of the Gram pairing
    (never from raw eigenvalues, which lose digits at high SNR). Only
    ch.h and ch.g enter. A rank-deficient ch.h raises NumericError, as in
    the batched estimators, and so does a rate that overflows, with no
    numpy warning.
    """
    if ch.h.shape != (cfg.n_b, cfg.n_a) or ch.g.shape != (cfg.n_e, cfg.n_a):
        raise DomainError(
            f"realization shaped h{ch.h.shape}, g{ch.g.shape} does not match "
            f"config ({cfg.n_b}x{cfg.n_a}, {cfg.n_e}x{cfg.n_a})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        rate = float(_secrecy_rates(cfg, np.concatenate((ch.h, ch.g))[None, ...], 0)[0])
    if not math.isfinite(rate):
        raise NumericError(f"non-finite rate {rate!r}")
    return rate


def _finite_trials(what: str, t0: int, vals: np.ndarray) -> np.ndarray:
    """vals of trials t0, t0 + 1, ...; NumericError naming the first non-finite one."""
    if not np.all(np.isfinite(vals)):
        idx = t0 + int(np.argmax(~np.isfinite(vals)))
        raise NumericError(f"non-finite {what} at trial {idx}")
    return vals


def _rate_chunks(cfg: SystemConfig, seed: int, trials: int, clamp: bool, finish) -> list:
    """finish(rates) per chunk: secrecy rates checked finite, then floored at 0 if clamp."""

    def values(t0, nt):
        return _secrecy_rates(cfg, _stacked_batch(cfg, seed, t0, nt), t0)

    def checked(t0, vals):
        vals = _finite_trials("rate", t0, vals)
        return finish(np.maximum(vals, 0.0) if clamp else vals)

    return _chunked(trials, _rate_words(cfg), values, checked)


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


@one_blas_thread
def mc_average_secrecy_rate(
    cfg: SystemConfig, trials: int, seed: int = 0, clamp: bool = True
) -> MCEstimate:
    """Sample mean of the per-realization secrecy rate with standard error.

    clamp=True floors each realization at zero before averaging (the
    operational nonnegative rate); clamp=False matches the unclamped
    closed-form expectation. clamp must be a bool (numpy's too): a string
    such as "false" raises DomainError rather than clamp by truthiness.
    Bitwise reproducible for fixed inputs at any worker count.
    """
    trials = _integer("trials", trials, 2)
    seed = _check_seed(seed)
    if not isinstance(clamp, (bool, np.bool_)):
        raise DomainError(f"clamp must be True or False, got {clamp!r}")
    partials = _rate_chunks(cfg, seed, trials, clamp, _chunk_partials)
    mean, stderr = _merge_mean_stderr(partials, trials)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, clamped=bool(clamp))


@one_blas_thread
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
    rows = _integer("rows", rows, 1)
    cols = _integer("cols", cols, 1)
    trials = _integer("trials", trials, 2)
    seed = _check_seed(seed)
    try:
        profile = np.asarray(scale_profile, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError(
            f"scale_profile must be a real number or a sequence of them, got {scale_profile!r}"
        ) from None
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

    def finish(t0, vals):
        # an overflowing Gram gives nan log-dets, not a LinAlgError
        return _chunk_partials(_finite_trials("log-det", t0, vals))

    partials = _chunked(trials, words, values, finish)
    mean, stderr = _merge_mean_stderr(partials, trials)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, clamped=False)


@one_blas_thread
def mc_normalized_rate_sample(
    cfg: SystemConfig, realizations: int, seed: int = 0
) -> List[float]:
    """Unclamped per-realization secrecy rates divided by n_b, in trial order.

    Raw material for concentration studies against the large-system limit.
    """
    realizations = _integer("realizations", realizations, 1)
    seed = _check_seed(seed)
    chunks = _rate_chunks(cfg, seed, realizations, False, lambda vals: vals)
    stacked = np.concatenate(chunks) / cfg.n_b
    return [float(v) for v in stacked]
