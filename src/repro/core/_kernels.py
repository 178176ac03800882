"""Compiled abduction kernels (the ``kernel="compiled"`` abduction tier).

Whole-stack transcriptions of the four abduction hot loops that dominate
``prepare_corpus`` (emission build, forward-backward, Viterbi, FFBS
sampling), mirroring the proven :mod:`repro.tcp._compiled` /
:mod:`repro.abr._decisions` pattern.  One call per same-length session
stack replaces the per-chunk NumPy dispatch of the batch implementations:

* :func:`emission_log_probs` — the ``(M, K)`` log emission matrix for
  ``M`` stacked chunks over a ``K``-state capacity grid, inlining the
  Algorithm-4 round schedule (``repro.tcp.estimator``) and the
  Gaussian/outlier mixture (``repro.core.emission``).
* :func:`forward_backward_stack` — the scaled forward-backward
  recursions of :func:`repro.core.forward_backward.forward_backward_batch`
  including the pairwise-posterior (xi) accumulation that otherwise runs
  as an einsum over a ``(T, N-1, K, K)`` tensor.
* :func:`viterbi_stack` — log-space Viterbi path extraction
  (:func:`repro.core.viterbi.viterbi_path_batch`).
* :func:`ffbs_stack` — the inverse-CDF FFBS sampler
  (:func:`repro.core.sampler.sample_state_paths_stack`), driven by
  caller-supplied uniform blocks so draws stay bit-identical to the
  seeded NumPy sampler.

Backends (feature-detected through :mod:`repro.util.compiled`):

* **numba** — the pure-Python mirrors below are JIT-compiled with
  ``njit`` when numba is importable.
* **cc + cffi** — otherwise a line-for-line C transcription is compiled
  once (``-O2 -fno-fast-math -ffp-contract=off``, sha256-source-tagged
  ``.so`` cache) and called through cffi's ABI mode.
* **python** — the mirrors themselves; ``FORCE_PYTHON = True`` routes
  the dispatchers through them so the parity suite can pin the kernel
  logic on machines without any toolchain.

Accuracy contract: integer outputs (Viterbi paths, FFBS sample paths)
are expected bit-identical to the NumPy tier — their arithmetic is pure
adds, first-maximum argmax and sequential counting, reproduced op for
op.  Float posteriors (emissions, gamma/xi, log-likelihoods) agree to a
documented ``rtol=1e-12``: NumPy's pairwise row sums, BLAS dot products
and SIMD ``exp``/``log1p`` accumulate in a different (equally valid)
order than the sequential scalar loops here.  This is the default
abduction tier; the NumPy tier stays bit-identical to the retained
scalar reference.
"""

from __future__ import annotations

import math

import numpy as np

from ..tcp.constants import MSS_BYTES, SLOW_START_GROWTH
from ..util.compiled import (
    HAVE_NUMBA,
    CcLibrary,
    maybe_jit as _maybe_jit,
    resolve_backend,
)

__all__ = [
    "HAVE_NUMBA",
    "FORCE_PYTHON",
    "available",
    "backend",
    "use_kernel",
    "FALLBACK",
    "emission_log_probs",
    "forward_backward_stack",
    "viterbi_stack",
    "ffbs_stack",
]

FORCE_PYTHON = False
"""Test hook: route every abduction kernel through the Python mirror."""

_TINY = 1e-300  # matches repro.core.forward_backward._TINY


# ----------------------------------------------------------------------
# Pure-Python mirrors (numba-jitted when available).  Each mirrors the
# NumPy batch implementation op for op; see the module docstring for the
# exact bit-identity contract.
# ----------------------------------------------------------------------


@_maybe_jit
def _emission_mirror(
    observed, cwnd0, ssthresh0, min_rtt, sizes, grid,
    request_rtts, sigma, log_norm, outlier_mass, log_uniform,
    one_minus_mass, sched_cwnd, sched_cum, out,
):
    """Log emissions for ``M`` stacked chunks over the ``K``-state grid.

    Mirrors ``estimate_throughput_grid`` (round schedule + searchsorted
    resolved per state) followed by ``EmissionModel.log_prob_matrix``'s
    in-place Gaussian/outlier-mixture chain.  ``cwnd0`` / ``ssthresh0``
    already have slow-start restart applied (``chunk_state_arrays``).
    ``sched_cwnd`` / ``sched_cum`` are int64 scratch sized for the
    largest chunk's schedule.
    """
    n_chunks = observed.shape[0]
    n_states = grid.shape[0]
    for m in range(n_chunks):
        size = sizes[m]
        rtt = min_rtt[m]
        cw0 = cwnd0[m]
        ss0 = ssthresh0[m]
        request_s = request_rtts * rtt
        data_segments = int(math.ceil(size / MSS_BYTES))
        if data_segments < 1:
            data_segments = 1
        chunk_mbits = size * 8 / 1e6

        # Round schedule (mirrors estimator._round_schedule): cwnds[r] is
        # the window at the start of round r, cum[r] the segments sent
        # over rounds 0..r-1.
        sched_cwnd[0] = cw0
        sched_cum[0] = 0
        n_sched = 1
        cwnd = cw0
        sent = 0
        while sent < data_segments:
            sent += cwnd
            if cwnd < ss0:
                grown = int(cwnd * SLOW_START_GROWTH)
                if grown < cwnd + 1:
                    grown = cwnd + 1
                cwnd = grown
            else:
                cwnd += 1
            sched_cum[n_sched] = sent
            sched_cwnd[n_sched] = cwnd
            n_sched += 1
        max_rounds = n_sched - 1

        obs = observed[m]
        for k in range(n_states):
            c = grid[k]
            if c > 0.0:
                rate = c * 1e6 / 8
                bdp = int(math.ceil(rate * rtt / MSS_BYTES))
                if bdp < 1:
                    bdp = 1
                if cw0 > bdp:
                    if data_segments > bdp:
                        download_s = request_s + size / rate
                    else:
                        download_s = request_s + rtt
                else:
                    # searchsorted(cwnds, bdp, side="left") clamped to the
                    # data-limited round count.
                    lo = 0
                    hi = n_sched
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if sched_cwnd[mid] < bdp:
                            lo = mid + 1
                        else:
                            hi = mid
                    rounds = lo
                    if rounds > max_rounds:
                        rounds = max_rounds
                    tail = size - sched_cum[rounds] * MSS_BYTES
                    if tail < 0.0:
                        tail = 0.0
                    download_s = request_s + rounds * rtt + tail / rate
                predicted = chunk_mbits / download_s
            else:
                predicted = 0.0

            z = (obs - predicted) / sigma
            v = z * z * -0.5 - log_norm
            if outlier_mass != 0.0:
                v -= log_uniform
                if v > 700.0:
                    v = 700.0
                v = math.log1p(one_minus_mass * math.exp(v))
                v += log_uniform
            out[m, k] = v
    return 0


@_maybe_jit
def _fb_mirror(
    log_b, initial, stack, slots,
    gamma, xi, ll, b, beta, weighted, scale, err,
):
    """Stacked scaled forward-backward with pairwise-posterior build.

    ``gamma`` doubles as the alpha buffer until the pairwise posteriors
    have consumed the forward messages; ``b`` / ``beta`` / ``weighted`` /
    ``scale`` are per-session scratch.  Returns 1 with
    ``err = (kind, t, n)`` on underflow (kind 0 = forward, 1 = pairwise).
    """
    n_sessions, n_chunks, n_states = log_b.shape
    for t in range(n_sessions):
        shift_sum = 0.0
        for n in range(n_chunks):
            mx = log_b[t, n, 0]
            for k in range(1, n_states):
                if log_b[t, n, k] > mx:
                    mx = log_b[t, n, k]
            shift_sum += mx
            for k in range(n_states):
                b[n, k] = math.exp(log_b[t, n, k] - mx)

        total = 0.0
        for k in range(n_states):
            a = initial[k] * b[0, k]
            gamma[t, 0, k] = a
            total += a
        if total <= 0.0:
            err[0] = 0
            err[1] = t
            err[2] = 0
            return 1
        for k in range(n_states):
            gamma[t, 0, k] /= total
        scale[0] = total

        for n in range(1, n_chunks):
            a_mat = stack[slots[t, n - 1]]
            total = 0.0
            for j in range(n_states):
                acc = 0.0
                for i in range(n_states):
                    acc += gamma[t, n - 1, i] * a_mat[i, j]
                acc *= b[n, j]
                gamma[t, n, j] = acc
                total += acc
            if total <= 0.0:
                err[0] = 0
                err[1] = t
                err[2] = n
                return 1
            for j in range(n_states):
                gamma[t, n, j] /= total
            scale[n] = total

        for k in range(n_states):
            beta[n_chunks - 1, k] = 1.0
            weighted[n_chunks - 1, k] = b[n_chunks - 1, k]
        for n in range(n_chunks - 2, -1, -1):
            a_mat = stack[slots[t, n]]
            sc = scale[n + 1]
            for i in range(n_states):
                acc = 0.0
                for j in range(n_states):
                    acc += a_mat[i, j] * weighted[n + 1, j]
                acc /= sc
                beta[n, i] = acc
                weighted[n, i] = b[n, i] * acc

        # Pairwise posteriors while gamma still holds the alphas.
        for n in range(n_chunks - 1):
            a_mat = stack[slots[t, n]]
            total = 0.0
            for i in range(n_states):
                ai = gamma[t, n, i]
                for j in range(n_states):
                    v = a_mat[i, j] * ai * weighted[n + 1, j]
                    xi[t, n, i, j] = v
                    total += v
            if total <= 0.0:
                err[0] = 1
                err[1] = t
                err[2] = n
                return 1
            for i in range(n_states):
                for j in range(n_states):
                    xi[t, n, i, j] /= total

        for n in range(n_chunks):
            total = 0.0
            for k in range(n_states):
                g = gamma[t, n, k] * beta[n, k]
                gamma[t, n, k] = g
                total += g
            if total < _TINY:
                total = _TINY
            for k in range(n_states):
                gamma[t, n, k] /= total

        acc = 0.0
        for n in range(n_chunks):
            acc += math.log(scale[n])
        ll[t] = acc + shift_sum
    return 0


@_maybe_jit
def _viterbi_mirror(
    log_b, log_initial, log_stack, slots,
    states, logp, score, new_score, backptr,
):
    """Stacked log-space Viterbi with first-maximum argmax tie rule.

    Pure adds and first-max comparisons, so results are bit-identical to
    the NumPy tier.  ``score`` / ``new_score`` / ``backptr`` are scratch.
    """
    n_sessions, n_chunks, n_states = log_b.shape
    for t in range(n_sessions):
        for k in range(n_states):
            score[k] = log_initial[k] + log_b[t, 0, k]
        for n in range(1, n_chunks):
            a_mat = log_stack[slots[t, n - 1]]
            for j in range(n_states):
                best_i = 0
                best_v = score[0] + a_mat[0, j]
                for i in range(1, n_states):
                    v = score[i] + a_mat[i, j]
                    if v > best_v:
                        best_v = v
                        best_i = i
                backptr[n, j] = best_i
                new_score[j] = best_v + log_b[t, n, j]
            for j in range(n_states):
                score[j] = new_score[j]

        best_k = 0
        best_v = score[0]
        for k in range(1, n_states):
            if score[k] > best_v:
                best_v = score[k]
                best_k = k
        logp[t] = best_v
        states[t, n_chunks - 1] = best_k
        for n in range(n_chunks - 1, 0, -1):
            states[t, n - 1] = backptr[n, states[t, n]]
    return 0


@_maybe_jit
def _ffbs_mirror(states, xi, uniforms, paths, cdf, reach):
    """Stacked inverse-CDF FFBS driven by precomputed uniform blocks.

    Per (session, chunk pair) the pairwise posterior's columns are
    normalised into CDFs once (reachable columns topped at exactly 1.0),
    then every sample resolves with a strict ``<=`` count — the same
    sequential accumulation order as the NumPy sampler, so given
    identical ``xi`` and uniforms the paths are bit-identical.
    Unreachable successor columns fall back to the Viterbi state.
    """
    n_sessions, n_pairs, n_states, _ = xi.shape
    count = uniforms.shape[2]
    n_chunks = n_pairs + 1
    for t in range(n_sessions):
        last = states[t, n_chunks - 1]
        for c in range(count):
            paths[t, c, n_chunks - 1] = last
        for n in range(n_pairs - 1, -1, -1):
            for j in range(n_states):
                total = 0.0
                for i in range(n_states):
                    w = xi[t, n, i, j]
                    if w < 0.0:
                        w = 0.0
                    total += w
                if total > 0.0:
                    reach[j] = 1
                    cum = 0.0
                    for i in range(n_states):
                        w = xi[t, n, i, j]
                        if w < 0.0:
                            w = 0.0
                        cum += w
                        cdf[i, j] = cum / total
                    cdf[n_states - 1, j] = 1.0
                else:
                    reach[j] = 0
                    cum = 0.0
                    for i in range(n_states):
                        w = xi[t, n, i, j]
                        if w < 0.0:
                            w = 0.0
                        cum += w
                        cdf[i, j] = cum
            for c in range(count):
                successor = paths[t, c, n + 1]
                if reach[successor] == 0:
                    paths[t, c, n] = states[t, n]
                else:
                    u = uniforms[t, n, c]
                    drawn = 0
                    for i in range(n_states):
                        if cdf[i, successor] <= u:
                            drawn += 1
                    paths[t, c, n] = drawn
    return 0


# ----------------------------------------------------------------------
# cc + cffi backend: a line-for-line C transcription of the mirrors,
# built once at first use and loaded through cffi's ABI mode.
# ----------------------------------------------------------------------

_CDEF = """
long long emission_log_probs(
    long long n_chunks, long long n_states,
    const double *observed, const long long *cwnd0,
    const long long *ssthresh0, const double *min_rtt,
    const double *sizes, const double *grid,
    double request_rtts, double sigma, double log_norm,
    double outlier_mass, double log_uniform, double one_minus_mass,
    long long *sched_cwnd, long long *sched_cum, double *out);
long long forward_backward_stack(
    long long n_sessions, long long n_chunks, long long n_states,
    const double *log_b, const double *initial,
    const double *stack, const long long *slots,
    double *gamma, double *xi, double *ll,
    double *b, double *beta, double *weighted, double *scale,
    long long *err);
long long viterbi_stack(
    long long n_sessions, long long n_chunks, long long n_states,
    const double *log_b, const double *log_initial,
    const double *log_stack, const long long *slots,
    long long *states, double *logp,
    double *score, double *new_score, long long *backptr);
long long ffbs_stack(
    long long n_sessions, long long n_pairs, long long n_states,
    long long count,
    const long long *states, const double *xi, const double *uniforms,
    long long *paths, double *cdf, long long *reach);
"""

_C_SOURCE = (
    r"""
/* Compiled abduction kernels: C transcription of the Python mirrors in
 * repro/core/_kernels.py.  Must be compiled WITHOUT fast-math or FMA
 * contraction so every double op is the same correctly-rounded IEEE-754
 * operation the mirrors perform, in the same order. */
#include <stdint.h>
#include <math.h>

#define MSS %(mss)dLL
#define GROWTH %(growth)s
#define TINY 1e-300
"""
    % {"mss": MSS_BYTES, "growth": repr(SLOW_START_GROWTH)}
    + r"""
long long emission_log_probs(
    long long n_chunks, long long n_states,
    const double *observed, const long long *cwnd0,
    const long long *ssthresh0, const double *min_rtt,
    const double *sizes, const double *grid,
    double request_rtts, double sigma, double log_norm,
    double outlier_mass, double log_uniform, double one_minus_mass,
    long long *sched_cwnd, long long *sched_cum, double *out) {
    for (int64_t m = 0; m < n_chunks; m++) {
        double size = sizes[m];
        double rtt = min_rtt[m];
        int64_t cw0 = cwnd0[m];
        int64_t ss0 = ssthresh0[m];
        double request_s = request_rtts * rtt;
        int64_t data_segments = (int64_t)ceil(size / (double)MSS);
        if (data_segments < 1) data_segments = 1;
        double chunk_mbits = size * 8.0 / 1e6;

        sched_cwnd[0] = cw0;
        sched_cum[0] = 0;
        int64_t n_sched = 1;
        int64_t cwnd = cw0;
        int64_t sent = 0;
        while (sent < data_segments) {
            sent += cwnd;
            if (cwnd < ss0) {
                int64_t grown = (int64_t)((double)cwnd * GROWTH);
                if (grown < cwnd + 1) grown = cwnd + 1;
                cwnd = grown;
            } else {
                cwnd += 1;
            }
            sched_cum[n_sched] = sent;
            sched_cwnd[n_sched] = cwnd;
            n_sched += 1;
        }
        int64_t max_rounds = n_sched - 1;

        double obs = observed[m];
        double *row = out + m * n_states;
        for (int64_t k = 0; k < n_states; k++) {
            double c = grid[k];
            double predicted;
            if (c > 0.0) {
                double rate = c * 1e6 / 8.0;
                int64_t bdp = (int64_t)ceil(rate * rtt / (double)MSS);
                if (bdp < 1) bdp = 1;
                double download_s;
                if (cw0 > bdp) {
                    if (data_segments > bdp)
                        download_s = request_s + size / rate;
                    else
                        download_s = request_s + rtt;
                } else {
                    int64_t lo = 0, hi = n_sched;
                    while (lo < hi) {
                        int64_t mid = (lo + hi) / 2;
                        if (sched_cwnd[mid] < bdp) lo = mid + 1;
                        else hi = mid;
                    }
                    int64_t rounds = lo;
                    if (rounds > max_rounds) rounds = max_rounds;
                    double tail = size - (double)(sched_cum[rounds] * MSS);
                    if (tail < 0.0) tail = 0.0;
                    download_s =
                        request_s + (double)rounds * rtt + tail / rate;
                }
                predicted = chunk_mbits / download_s;
            } else {
                predicted = 0.0;
            }
            double z = (obs - predicted) / sigma;
            double v = z * z * -0.5 - log_norm;
            if (outlier_mass != 0.0) {
                v -= log_uniform;
                if (v > 700.0) v = 700.0;
                v = log1p(one_minus_mass * exp(v));
                v += log_uniform;
            }
            row[k] = v;
        }
    }
    return 0;
}

long long forward_backward_stack(
    long long n_sessions, long long n_chunks, long long n_states,
    const double *log_b, const double *initial,
    const double *stack, const long long *slots,
    double *gamma, double *xi, double *ll,
    double *b, double *beta, double *weighted, double *scale,
    long long *err) {
    int64_t K = n_states;
    int64_t KK = K * K;
    for (int64_t t = 0; t < n_sessions; t++) {
        const double *lb = log_b + t * n_chunks * K;
        double *gm = gamma + t * n_chunks * K;
        double *xt = xi + t * (n_chunks - 1) * KK;
        const long long *sl = slots + t * (n_chunks - 1);

        double shift_sum = 0.0;
        for (int64_t n = 0; n < n_chunks; n++) {
            const double *lrow = lb + n * K;
            double mx = lrow[0];
            for (int64_t k = 1; k < K; k++)
                if (lrow[k] > mx) mx = lrow[k];
            shift_sum += mx;
            double *brow = b + n * K;
            for (int64_t k = 0; k < K; k++)
                brow[k] = exp(lrow[k] - mx);
        }

        double total = 0.0;
        for (int64_t k = 0; k < K; k++) {
            double a = initial[k] * b[k];
            gm[k] = a;
            total += a;
        }
        if (total <= 0.0) {
            err[0] = 0; err[1] = t; err[2] = 0;
            return 1;
        }
        for (int64_t k = 0; k < K; k++) gm[k] /= total;
        scale[0] = total;

        for (int64_t n = 1; n < n_chunks; n++) {
            const double *a_mat = stack + sl[n - 1] * KK;
            const double *prev = gm + (n - 1) * K;
            const double *brow = b + n * K;
            double *row = gm + n * K;
            total = 0.0;
            for (int64_t j = 0; j < K; j++) {
                double acc = 0.0;
                for (int64_t i = 0; i < K; i++)
                    acc += prev[i] * a_mat[i * K + j];
                acc *= brow[j];
                row[j] = acc;
                total += acc;
            }
            if (total <= 0.0) {
                err[0] = 0; err[1] = t; err[2] = n;
                return 1;
            }
            for (int64_t j = 0; j < K; j++) row[j] /= total;
            scale[n] = total;
        }

        for (int64_t k = 0; k < K; k++) {
            beta[(n_chunks - 1) * K + k] = 1.0;
            weighted[(n_chunks - 1) * K + k] = b[(n_chunks - 1) * K + k];
        }
        for (int64_t n = n_chunks - 2; n >= 0; n--) {
            const double *a_mat = stack + sl[n] * KK;
            const double *wnext = weighted + (n + 1) * K;
            double sc = scale[n + 1];
            for (int64_t i = 0; i < K; i++) {
                double acc = 0.0;
                for (int64_t j = 0; j < K; j++)
                    acc += a_mat[i * K + j] * wnext[j];
                acc /= sc;
                beta[n * K + i] = acc;
                weighted[n * K + i] = b[n * K + i] * acc;
            }
        }

        /* Pairwise posteriors while gamma still holds the alphas. */
        for (int64_t n = 0; n < n_chunks - 1; n++) {
            const double *a_mat = stack + sl[n] * KK;
            const double *alpha_row = gm + n * K;
            const double *wnext = weighted + (n + 1) * K;
            double *slab = xt + n * KK;
            total = 0.0;
            for (int64_t i = 0; i < K; i++) {
                double ai = alpha_row[i];
                for (int64_t j = 0; j < K; j++) {
                    double v = a_mat[i * K + j] * ai * wnext[j];
                    slab[i * K + j] = v;
                    total += v;
                }
            }
            if (total <= 0.0) {
                err[0] = 1; err[1] = t; err[2] = n;
                return 1;
            }
            for (int64_t k = 0; k < KK; k++) slab[k] /= total;
        }

        for (int64_t n = 0; n < n_chunks; n++) {
            double *row = gm + n * K;
            const double *brow = beta + n * K;
            total = 0.0;
            for (int64_t k = 0; k < K; k++) {
                double g = row[k] * brow[k];
                row[k] = g;
                total += g;
            }
            if (total < TINY) total = TINY;
            for (int64_t k = 0; k < K; k++) row[k] /= total;
        }

        double acc = 0.0;
        for (int64_t n = 0; n < n_chunks; n++) acc += log(scale[n]);
        ll[t] = acc + shift_sum;
    }
    return 0;
}

long long viterbi_stack(
    long long n_sessions, long long n_chunks, long long n_states,
    const double *log_b, const double *log_initial,
    const double *log_stack, const long long *slots,
    long long *states, double *logp,
    double *score, double *new_score, long long *backptr) {
    int64_t K = n_states;
    int64_t KK = K * K;
    for (int64_t t = 0; t < n_sessions; t++) {
        const double *lb = log_b + t * n_chunks * K;
        const long long *sl = slots + t * (n_chunks - 1);
        long long *path = states + t * n_chunks;

        for (int64_t k = 0; k < K; k++)
            score[k] = log_initial[k] + lb[k];
        for (int64_t n = 1; n < n_chunks; n++) {
            const double *a_mat = log_stack + sl[n - 1] * KK;
            const double *brow = lb + n * K;
            for (int64_t j = 0; j < K; j++) {
                int64_t best_i = 0;
                double best_v = score[0] + a_mat[j];
                for (int64_t i = 1; i < K; i++) {
                    double v = score[i] + a_mat[i * K + j];
                    if (v > best_v) { best_v = v; best_i = i; }
                }
                backptr[n * K + j] = best_i;
                new_score[j] = best_v + brow[j];
            }
            for (int64_t j = 0; j < K; j++) score[j] = new_score[j];
        }

        int64_t best_k = 0;
        double best_v = score[0];
        for (int64_t k = 1; k < K; k++)
            if (score[k] > best_v) { best_v = score[k]; best_k = k; }
        logp[t] = best_v;
        path[n_chunks - 1] = best_k;
        for (int64_t n = n_chunks - 1; n > 0; n--)
            path[n - 1] = backptr[n * K + path[n]];
    }
    return 0;
}

long long ffbs_stack(
    long long n_sessions, long long n_pairs, long long n_states,
    long long count,
    const long long *states, const double *xi, const double *uniforms,
    long long *paths, double *cdf, long long *reach) {
    int64_t K = n_states;
    int64_t KK = K * K;
    int64_t n_chunks = n_pairs + 1;
    for (int64_t t = 0; t < n_sessions; t++) {
        const long long *vit = states + t * n_chunks;
        const double *xt = xi + t * n_pairs * KK;
        const double *ut = uniforms + t * n_pairs * count;
        long long *pt = paths + t * count * n_chunks;

        int64_t last = vit[n_chunks - 1];
        for (int64_t c = 0; c < count; c++)
            pt[c * n_chunks + n_chunks - 1] = last;
        for (int64_t n = n_pairs - 1; n >= 0; n--) {
            const double *slab = xt + n * KK;
            for (int64_t j = 0; j < K; j++) {
                double total = 0.0;
                for (int64_t i = 0; i < K; i++) {
                    double w = slab[i * K + j];
                    if (w < 0.0) w = 0.0;
                    total += w;
                }
                if (total > 0.0) {
                    reach[j] = 1;
                    double cum = 0.0;
                    for (int64_t i = 0; i < K; i++) {
                        double w = slab[i * K + j];
                        if (w < 0.0) w = 0.0;
                        cum += w;
                        cdf[i * K + j] = cum / total;
                    }
                    cdf[(K - 1) * K + j] = 1.0;
                } else {
                    reach[j] = 0;
                    double cum = 0.0;
                    for (int64_t i = 0; i < K; i++) {
                        double w = slab[i * K + j];
                        if (w < 0.0) w = 0.0;
                        cum += w;
                        cdf[i * K + j] = cum;
                    }
                }
            }
            for (int64_t c = 0; c < count; c++) {
                int64_t successor = pt[c * n_chunks + n + 1];
                if (reach[successor] == 0) {
                    pt[c * n_chunks + n] = vit[n];
                } else {
                    double u = ut[n * count + c];
                    int64_t drawn = 0;
                    for (int64_t i = 0; i < K; i++)
                        if (cdf[i * K + successor] <= u) drawn += 1;
                    pt[c * n_chunks + n] = drawn;
                }
            }
        }
    }
    return 0;
}
"""
)

_CC_LIB = CcLibrary("_abduction", _CDEF, _C_SOURCE)


def backend() -> str:
    """Which implementation serves the abduction kernels right now."""
    return resolve_backend(FORCE_PYTHON, _CC_LIB)


def available() -> bool:
    """Whether the compiled abduction tier can serve requests.

    ``FORCE_PYTHON`` counts as available so parity tests can drive the
    mirrors end to end; without it the mirrors are per-chunk interpreter
    loops, so ``kernel="compiled"`` degrades to the NumPy tier instead.
    """
    if FORCE_PYTHON:
        return True
    return backend() != "python"


def use_kernel() -> bool:
    """Whether the batch abduction paths should route through the kernels.

    Unlike :func:`repro.abr._decisions.use_kernel`, ``FORCE_PYTHON``
    keeps routing *on* (through the mirrors) — the abduction dispatchers
    are whole-stack calls whose mirror results are the parity oracle, so
    tests drive the full compiled code path through the interpreter.
    """
    return available()


FALLBACK = ('abduction kernel "compiled"', "numpy")
"""``warn_fallback`` arguments for a degraded compiled abduction request."""


# ----------------------------------------------------------------------
# Backend-dispatching entry points.  Each wrapper owns the output and
# scratch allocation so the mirrors stay jittable and the C kernels get
# contiguous buffers.
# ----------------------------------------------------------------------


def _as_c(array, dtype):
    return np.ascontiguousarray(array, dtype=dtype)


def emission_log_probs(
    observed: np.ndarray,
    cwnd0: np.ndarray,
    ssthresh0: np.ndarray,
    min_rtt: np.ndarray,
    sizes: np.ndarray,
    grid: np.ndarray,
    request_rtts: float,
    sigma_mbps: float,
    outlier_mass: float,
    max_grid_mbps: float,
) -> np.ndarray:
    """The ``(M, K)`` log emission matrix for ``M`` stacked chunks.

    ``cwnd0`` / ``ssthresh0`` / ``min_rtt`` are the per-chunk
    restart-applied TCP state arrays from
    :func:`repro.tcp.estimator.chunk_state_arrays`.
    """
    observed = _as_c(observed, float)
    cwnd0 = _as_c(cwnd0, np.int64)
    ssthresh0 = _as_c(ssthresh0, np.int64)
    min_rtt = _as_c(min_rtt, float)
    sizes = _as_c(sizes, float)
    grid = _as_c(grid, float)
    n_chunks = observed.shape[0]
    n_states = grid.shape[0]
    out = np.empty((n_chunks, n_states))

    log_norm = math.log(sigma_mbps * math.sqrt(2 * math.pi))
    if outlier_mass != 0.0:
        uniform_density = 1.0 / max(max_grid_mbps, 1.0)
        log_uniform = math.log(outlier_mass * uniform_density)
    else:
        log_uniform = 0.0
    one_minus_mass = 1.0 - outlier_mass

    # Largest schedule: each round moves >= 1 segment, plus the seed row.
    max_segments = int(np.max(np.ceil(sizes / MSS_BYTES))) if n_chunks else 1
    sched_len = max(max_segments, 1) + 2
    sched_cwnd = np.empty(sched_len, dtype=np.int64)
    sched_cum = np.empty(sched_len, dtype=np.int64)

    if not FORCE_PYTHON and not HAVE_NUMBA:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            lib.emission_log_probs(
                n_chunks,
                n_states,
                fb("double[]", observed),
                fb("long long[]", cwnd0),
                fb("long long[]", ssthresh0),
                fb("double[]", min_rtt),
                fb("double[]", sizes),
                fb("double[]", grid),
                request_rtts,
                sigma_mbps,
                log_norm,
                outlier_mass,
                log_uniform,
                one_minus_mass,
                fb("long long[]", sched_cwnd),
                fb("long long[]", sched_cum),
                fb("double[]", out),
            )
            return out
    _emission_mirror(
        observed, cwnd0, ssthresh0, min_rtt, sizes, grid,
        request_rtts, sigma_mbps, log_norm, outlier_mass, log_uniform,
        one_minus_mass, sched_cwnd, sched_cum, out,
    )
    return out


def forward_backward_stack(
    log_b: np.ndarray,
    initial: np.ndarray,
    stack: np.ndarray,
    slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked forward-backward: ``(gamma, xi, log_likelihoods)``.

    ``log_b`` is ``(T, N, K)``, ``stack`` the unique ``A^Δ`` matrices and
    ``slots`` the ``(T, N-1)`` per-pair indices into it (from
    :func:`repro.core.forward_backward.unique_power_stack`).  Raises
    :class:`FloatingPointError` on underflow with the same messages as
    the NumPy tier.
    """
    log_b = _as_c(log_b, float)
    initial = _as_c(initial, float)
    stack = _as_c(stack, float)
    slots = _as_c(slots, np.int64)
    n_sessions, n_chunks, n_states = log_b.shape

    gamma = np.empty((n_sessions, n_chunks, n_states))
    xi = np.empty((n_sessions, n_chunks - 1, n_states, n_states))
    ll = np.empty(n_sessions)
    b = np.empty((n_chunks, n_states))
    beta = np.empty((n_chunks, n_states))
    weighted = np.empty((n_chunks, n_states))
    scale = np.empty(n_chunks)
    err = np.zeros(3, dtype=np.int64)

    if not FORCE_PYTHON and not HAVE_NUMBA:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            status = lib.forward_backward_stack(
                n_sessions,
                n_chunks,
                n_states,
                fb("double[]", log_b),
                fb("double[]", initial),
                fb("double[]", stack),
                fb("long long[]", slots),
                fb("double[]", gamma),
                fb("double[]", xi),
                fb("double[]", ll),
                fb("double[]", b),
                fb("double[]", beta),
                fb("double[]", weighted),
                fb("double[]", scale),
                fb("long long[]", err),
            )
            _raise_fb_error(status, err)
            return gamma, xi, ll
    status = _fb_mirror(
        log_b, initial, stack, slots, gamma, xi, ll, b, beta, weighted,
        scale, err,
    )
    _raise_fb_error(status, err)
    return gamma, xi, ll


def _raise_fb_error(status: int, err: np.ndarray) -> None:
    if status == 0:
        return
    kind, t, n = (int(v) for v in err)
    if kind == 0:
        raise FloatingPointError(
            f"forward pass underflowed at chunk {n} (session {t})"
        )
    raise FloatingPointError(
        f"pairwise posterior underflowed between chunks {n} and "
        f"{n + 1} (session {t})"
    )


def viterbi_stack(
    log_b: np.ndarray,
    log_initial: np.ndarray,
    log_stack: np.ndarray,
    slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Viterbi: ``(states, log_probabilities)``.

    ``log_stack`` / ``slots`` index the unique ``log A^Δ`` matrices, as
    produced by ``unique_power_stack(..., log=True)``.
    """
    log_b = _as_c(log_b, float)
    log_initial = _as_c(log_initial, float)
    log_stack = _as_c(log_stack, float)
    slots = _as_c(slots, np.int64)
    n_sessions, n_chunks, n_states = log_b.shape

    states = np.empty((n_sessions, n_chunks), dtype=np.int64)
    logp = np.empty(n_sessions)
    score = np.empty(n_states)
    new_score = np.empty(n_states)
    backptr = np.zeros((n_chunks, n_states), dtype=np.int64)

    if not FORCE_PYTHON and not HAVE_NUMBA:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            lib.viterbi_stack(
                n_sessions,
                n_chunks,
                n_states,
                fb("double[]", log_b),
                fb("double[]", log_initial),
                fb("double[]", log_stack),
                fb("long long[]", slots),
                fb("long long[]", states),
                fb("double[]", logp),
                fb("double[]", score),
                fb("double[]", new_score),
                fb("long long[]", backptr),
            )
            return states, logp
    _viterbi_mirror(
        log_b, log_initial, log_stack, slots, states, logp, score,
        new_score, backptr,
    )
    return states, logp


def ffbs_stack(
    states: np.ndarray,
    xi: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Stacked inverse-CDF FFBS: the ``(T, count, N)`` sampled paths.

    ``uniforms`` is the ``(T, N-1, count)`` block of seeded draws the
    NumPy sampler would consume, generated by the caller so samples stay
    bit-identical to the per-seed contract.
    """
    states = _as_c(states, np.int64)
    xi = _as_c(xi, float)
    uniforms = _as_c(uniforms, float)
    n_sessions, n_pairs, n_states, _ = xi.shape
    count = uniforms.shape[2]
    n_chunks = n_pairs + 1

    paths = np.empty((n_sessions, count, n_chunks), dtype=np.int64)
    cdf = np.empty((n_states, n_states))
    reach = np.empty(n_states, dtype=np.int64)

    if not FORCE_PYTHON and not HAVE_NUMBA:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            lib.ffbs_stack(
                n_sessions,
                n_pairs,
                n_states,
                count,
                fb("long long[]", states),
                fb("double[]", xi),
                fb("double[]", uniforms),
                fb("long long[]", paths),
                fb("double[]", cdf),
                fb("long long[]", reach),
            )
            return paths
    _ffbs_mirror(states, xi, uniforms, paths, cdf, reach)
    return paths
