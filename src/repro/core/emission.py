"""The EHMM emission model (paper Eq. 3).

For chunk ``n`` with observed throughput ``Y_n``, TCP start state ``W_sn``
and size ``S_n``, the emission probability of capacity state ``c`` is

    P(Y_n | W_sn, S_n, C_sn = c) = Normal(f(c, W_sn, S_n), σ²)

where ``f`` is the domain-specific TCP throughput estimator (Algorithm 4).
The Gaussian absorbs ``f``'s modelling error (Fig. 5).

The module also provides the **naive** emission used by the ablation bench:
``f(c, ·, ·) = c``, i.e. assuming observed throughput equals GTBW — which is
exactly the assumption Veritas exists to avoid.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..tcp.estimator import (
    REQUEST_RTTS,
    chunk_state_arrays,
    estimate_throughput_grid,
    estimate_throughput_grid_batch,
)
from ..tcp.state import TCPStateSnapshot
from ..util.compiled import warn_fallback
from . import _kernels
from .grid import CapacityGrid

__all__ = ["EmissionModel", "tcp_estimator_emission", "naive_emission"]

EstimatorFn = Callable[[np.ndarray, TCPStateSnapshot, float], np.ndarray]


def tcp_estimator_emission(
    grid_values: np.ndarray, tcp_state: TCPStateSnapshot, size_bytes: float
) -> np.ndarray:
    """Predicted throughput per capacity state via Algorithm 4 (the default)."""
    return estimate_throughput_grid(grid_values, tcp_state, size_bytes)


def naive_emission(
    grid_values: np.ndarray, tcp_state: TCPStateSnapshot, size_bytes: float
) -> np.ndarray:
    """Ablation: assume the chunk would observe the full capacity."""
    return np.asarray(grid_values, dtype=float).copy()


def _naive_emission_batch(grid_values, tcp_states, sizes_bytes):
    grid = np.asarray(grid_values, dtype=float)
    return np.tile(grid, (len(tcp_states), 1))


# Whole-session batch implementations of the per-chunk estimators; row n of
# the batch result must be bit-identical to estimator(grid, state_n, size_n).
_BATCH_ESTIMATORS: dict = {
    tcp_estimator_emission: estimate_throughput_grid_batch,
    naive_emission: _naive_emission_batch,
}


class EmissionModel:
    """Gaussian emission around a per-state throughput predictor.

    A small ``outlier_mass`` mixes in a uniform component over the
    observable throughput range.  The emission approximation of Eq. 3 uses
    only the capacity at the chunk's *start* window; when GTBW shifts
    mid-download the observation can sit far from ``f(c, W, S)`` for every
    state ``c``, and a pure Gaussian would let a single such chunk dominate
    the whole trajectory.  The mixture caps the influence of those
    model-mismatch outliers without affecting well-modelled chunks.
    """

    def __init__(
        self,
        grid: CapacityGrid,
        sigma_mbps: float = 0.5,
        estimator: EstimatorFn = tcp_estimator_emission,
        outlier_mass: float = 0.05,
    ):
        if sigma_mbps <= 0:
            raise ValueError(f"sigma must be positive, got {sigma_mbps}")
        if not 0 <= outlier_mass < 1:
            raise ValueError(f"outlier_mass must be in [0, 1), got {outlier_mass}")
        self.grid = grid
        self.sigma_mbps = float(sigma_mbps)
        self.estimator = estimator
        self.outlier_mass = float(outlier_mass)

    # ------------------------------------------------------------------
    def predicted_throughput(
        self, tcp_state: TCPStateSnapshot, size_bytes: float
    ) -> np.ndarray:
        """``f(c, W, S)`` for every grid state ``c`` (shape ``(n_states,)``)."""
        return self.estimator(self.grid.values_mbps, tcp_state, size_bytes)

    def log_prob_row(
        self,
        observed_mbps: float,
        tcp_state: TCPStateSnapshot,
        size_bytes: float,
    ) -> np.ndarray:
        """Log emission probabilities of one observation for all states."""
        if observed_mbps < 0:
            raise ValueError(f"observed throughput must be >= 0, got {observed_mbps}")
        predicted = self.predicted_throughput(tcp_state, size_bytes)
        z = (observed_mbps - predicted) / self.sigma_mbps
        log_normal = -0.5 * z * z - math.log(self.sigma_mbps * math.sqrt(2 * math.pi))
        if self.outlier_mass == 0:
            return log_normal
        # Mixture with a uniform density over [0, grid max] (floored so the
        # uniform component is proper even for tiny grids).
        uniform_density = 1.0 / max(self.grid.max_mbps, 1.0)
        log_uniform = math.log(self.outlier_mass * uniform_density)
        peak = np.log1p(
            (1.0 - self.outlier_mass)
            * np.exp(np.minimum(log_normal - log_uniform, 700.0))
        )
        return log_uniform + peak

    def predicted_throughput_matrix(
        self,
        tcp_states: Sequence[TCPStateSnapshot],
        sizes_bytes: Sequence[float],
        memo: dict | None = None,
    ) -> np.ndarray:
        """``f(c, W_n, S_n)`` for every chunk and state (``(n_chunks, n_states)``).

        ``memo`` caches predictions keyed on ``(tcp_state, size)``: DASH
        ladders reuse a handful of encoded chunk sizes, so repeated
        ``(state, size)`` pairs are common within a session.  Pass a dict to
        share the memo across calls (e.g. per session); ``None`` memoises
        within this call only.
        """
        states = list(tcp_states)
        sizes = list(sizes_bytes)
        if len(states) != len(sizes):
            raise ValueError("TCP states and sizes must have equal length")
        values = self.grid.values_mbps
        batch = _BATCH_ESTIMATORS.get(self.estimator)
        if memo is None and batch is not None:
            # No memo requested: hashing 200 snapshots costs more than the
            # batched evaluation itself, so go straight through.
            return batch(values, states, np.asarray(sizes, dtype=float))

        cache: dict = {} if memo is None else memo
        predicted = np.empty((len(states), values.size))

        # Deduplicate (tcp_state, size) pairs, serve repeats and memo hits
        # from cache, and evaluate the remainder in one batched call when
        # the estimator has a whole-session implementation.
        unique_index: dict = {}
        missing_states: list[TCPStateSnapshot] = []
        missing_sizes: list[float] = []
        rows_by_chunk: list = [None] * len(states)
        scatter: list[list[int]] = []
        for n, (state, size) in enumerate(zip(states, sizes)):
            key = (state, float(size))
            row = cache.get(key)
            if row is not None:
                rows_by_chunk[n] = row
                continue
            slot = unique_index.get(key)
            if slot is None:
                slot = len(missing_states)
                unique_index[key] = slot
                missing_states.append(state)
                missing_sizes.append(float(size))
                scatter.append([n])
            else:
                scatter[slot].append(n)

        if missing_states:
            if batch is not None:
                computed = batch(values, missing_states, np.asarray(missing_sizes))
            else:
                computed = [
                    self.estimator(values, state, size)
                    for state, size in zip(missing_states, missing_sizes)
                ]
            for key, slot in unique_index.items():
                row = computed[slot]
                cache[key] = row
                for n in scatter[slot]:
                    rows_by_chunk[n] = row

        for n, row in enumerate(rows_by_chunk):
            predicted[n] = row
        return predicted

    def log_prob_matrix(
        self,
        observed_mbps: Sequence[float],
        tcp_states: Sequence[TCPStateSnapshot],
        sizes_bytes: Sequence[float],
        memo: dict | None = None,
        kernel: str | None = None,
    ) -> np.ndarray:
        """Log emissions for a whole session (shape ``(n_chunks, n_states)``).

        Batch fast path: the per-state predictions are assembled into one
        ``(n_chunks, n_states)`` matrix (memoised on ``(tcp_state, size)``)
        and the Gaussian/outlier mixture is evaluated with array ops.
        Produces exactly what stacking :meth:`log_prob_row` (the scalar
        reference) row by row would.

        Rows are chunk-independent — row ``n`` depends only on its own
        ``(observation, tcp_state, size)`` triple — so concatenating the
        chunks of several sessions into one call yields rows bit-identical
        to the per-session calls.  The corpus-batched abduction pipeline
        (``build_problems_batch``) relies on this contract.

        ``kernel="compiled"`` builds the whole matrix (Algorithm-4 round
        schedules included) in one :mod:`repro.core._kernels` call when
        the estimator is the TCP one — rows within ``rtol=1e-12`` of this
        path.  Other estimators, and compiled requests without a compiled
        backend (after a once-per-process warning), use the NumPy path.
        """
        observed = np.asarray(list(observed_mbps), dtype=float)
        states = list(tcp_states)
        sizes = list(sizes_bytes)
        if not observed.size == len(states) == len(sizes):
            raise ValueError(
                "observations, TCP states, and sizes must have equal length"
            )
        if observed.size == 0:
            raise ValueError("need at least one observation")
        if np.any(observed < 0):
            bad = float(observed[observed < 0][0])
            raise ValueError(f"observed throughput must be >= 0, got {bad}")

        if kernel == "compiled" and self.estimator is tcp_estimator_emission:
            if not _kernels.use_kernel():
                warn_fallback(*_kernels.FALLBACK)
            else:
                sizes_arr = np.asarray(sizes, dtype=float)
                if np.any(sizes_arr <= 0):
                    raise ValueError("sizes must be positive")
                cwnd0, ssthresh0, min_rtt = chunk_state_arrays(states)
                return _kernels.emission_log_probs(
                    observed,
                    cwnd0,
                    ssthresh0,
                    min_rtt,
                    sizes_arr,
                    self.grid.values_mbps,
                    REQUEST_RTTS,
                    self.sigma_mbps,
                    self.outlier_mass,
                    self.grid.max_mbps,
                )

        predicted = self.predicted_throughput_matrix(states, sizes, memo=memo)
        # In-place evaluation of the same expression log_prob_row computes:
        # the (n_chunks, n_states) buffer is transformed step by step.
        out = observed[:, None] - predicted
        out /= self.sigma_mbps
        np.multiply(out, out, out=out)
        out *= -0.5
        out -= math.log(self.sigma_mbps * math.sqrt(2 * math.pi))
        if self.outlier_mass == 0:
            return out
        uniform_density = 1.0 / max(self.grid.max_mbps, 1.0)
        log_uniform = math.log(self.outlier_mass * uniform_density)
        out -= log_uniform
        np.minimum(out, 700.0, out=out)
        np.exp(out, out=out)
        out *= 1.0 - self.outlier_mass
        np.log1p(out, out=out)
        out += log_uniform
        return out
