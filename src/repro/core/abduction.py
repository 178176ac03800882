"""Veritas abduction: session logs → posterior GTBW traces (§3.2-§3.3).

This is the paper's primary contribution wired end to end:

1. build the EHMM for the logged session (emission = Gaussian around the
   TCP throughput estimator ``f``, transitions = ``A^Δn``),
2. run the Viterbi variant for the maximum-likelihood capacity path,
3. run forward-backward for the pairwise posterior Γ,
4. draw K posterior capacity paths with the Algorithm-1 sampler, and
5. interpolate each path into a full δ-grid bandwidth trace ready for
   counterfactual replay.

Typical use::

    veritas = VeritasAbduction(VeritasConfig(max_capacity_mbps=10.0))
    posterior = veritas.solve(session_log)
    traces = posterior.sample_traces(count=5, seed=0)

Abduction kernel tiers (:data:`ABDUCTION_TIERS`), selected per engine via
``VeritasAbduction(config, kernel=...)`` / the CLI ``--abduction-kernel``
flag; the names match the replay ``KERNEL_TIERS`` registry:

* ``"reference"`` — one scalar :meth:`VeritasAbduction.solve` per log;
  the retained golden path.
* ``"numpy"`` — the corpus-batched stacked recursions; bit-identical to
  ``"reference"``.
* ``"compiled"`` (default) — the stacked hot loops (emission build,
  forward-backward, Viterbi, FFBS) each run as one
  :mod:`repro.core._kernels` call per same-length stack (numba or
  cc+cffi backend).  Viterbi paths and FFBS samples stay bit-identical;
  float posteriors are within ``rtol=1e-12``.  Without a compiled
  backend the default resolves to ``"numpy"`` silently
  (:func:`resolve_abduction_kernel`); a caller who named ``"compiled"``
  runs as ``"numpy"`` with a once-per-process :class:`RuntimeWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.trace import PiecewiseConstantTrace
from ..player.logs import SessionLog
from ..util.compiled import warn_fallback
from ..util.rng import SeedLike, ensure_rng
from . import _kernels
from .ehmm import EHMMProblem, build_problem, build_problems_batch
from .emission import EmissionModel, naive_emission, tcp_estimator_emission
from .forward_backward import (
    ForwardBackwardResult,
    forward_backward,
    forward_backward_batch,
)
from .grid import CapacityGrid
from .interpolation import CapacityTracePlan
from .sampler import (
    sample_state_path,
    sample_state_paths,
    sample_state_paths_stack,
)
from .transitions import (
    TransitionModel,
    sticky_matrix,
    tridiagonal_matrix,
    uniform_matrix,
)
from .viterbi import ViterbiResult, viterbi_path, viterbi_path_batch

__all__ = [
    "ABDUCTION_TIERS",
    "DEFAULT_ABDUCTION_KERNEL",
    "VeritasConfig",
    "VeritasPosterior",
    "VeritasAbduction",
    "resolve_abduction_kernel",
    "sample_traces_batch",
]

ABDUCTION_TIERS = ("reference", "numpy", "compiled")
"""Abduction kernel tiers, slowest first (see the module docstring)."""

DEFAULT_ABDUCTION_KERNEL = "compiled"


def resolve_abduction_kernel(kernel: "str | None") -> str:
    """Validate an abduction tier name; ``None`` picks the effective default.

    The default is ``"compiled"`` when a compiled backend is live and
    ``"numpy"`` otherwise, so the default degrades silently and reports
    the tier it really runs.  A caller naming ``"compiled"`` on a machine
    without a backend keeps that name and degrades at use time with a
    once-per-process warning.
    """
    if kernel is None:
        return DEFAULT_ABDUCTION_KERNEL if _kernels.available() else "numpy"
    if kernel not in ABDUCTION_TIERS:
        raise ValueError(
            f"unknown abduction kernel {kernel!r}; "
            f"available: {list(ABDUCTION_TIERS)}"
        )
    return kernel


def _stack_kernel(kernel: str) -> "str | None":
    """The ``kernel=`` the stacked helpers get on abduction tier ``kernel``.

    ``None`` selects their NumPy path.  A ``"compiled"`` request without a
    live backend (only an explicit one gets here, see
    :func:`resolve_abduction_kernel`) runs as NumPy and warns once.
    """
    if kernel != "compiled":
        return None
    if _kernels.use_kernel():
        return "compiled"
    warn_fallback(*_kernels.FALLBACK)
    return None


# Sessions per stacked inference block.  Bounds the transient
# (T, N-1, K, K) tensors (stacked powers / pairwise posteriors) to
# ~90-135 MB at paper scale (200-300 chunks, K=21, 128 sessions) while
# leaving plenty of lanes to amortise the per-chunk NumPy dispatch the
# batching exists to remove.
_MAX_STACK = 128

_TRANSITION_BUILDERS = {
    "tridiagonal": tridiagonal_matrix,
    "uniform": lambda n, **_: uniform_matrix(n),
    "sticky": sticky_matrix,
}

_EMISSION_ESTIMATORS = {
    "tcp": tcp_estimator_emission,
    "naive": naive_emission,
}


@dataclass(frozen=True)
class VeritasConfig:
    """Hyperparameters from §4.1 of the paper.

    Defaults match the evaluation setup: δ = 5 s windows, ε = 0.5 Mbps
    quantization, σ = 0.5 Mbps emission noise, tridiagonal transitions and
    a uniform initial distribution.
    """

    delta_s: float = 5.0
    epsilon_mbps: float = 0.5
    sigma_mbps: float = 0.5
    max_capacity_mbps: float = 10.0
    transition_kind: str = "tridiagonal"
    transition_stay_prob: float = 0.8
    emission_kind: str = "tcp"

    def __post_init__(self) -> None:
        if self.delta_s <= 0:
            raise ValueError(f"delta must be positive, got {self.delta_s}")
        if self.transition_kind not in _TRANSITION_BUILDERS:
            raise ValueError(
                f"unknown transition kind {self.transition_kind!r}; "
                f"available: {sorted(_TRANSITION_BUILDERS)}"
            )
        if self.emission_kind not in _EMISSION_ESTIMATORS:
            raise ValueError(
                f"unknown emission kind {self.emission_kind!r}; "
                f"available: {sorted(_EMISSION_ESTIMATORS)}"
            )


@dataclass
class VeritasPosterior:
    """The abduction result for one session.

    Wraps the Viterbi path and forward-backward posteriors and turns hidden
    state paths into replayable bandwidth traces.
    """

    problem: EHMMProblem
    viterbi: ViterbiResult
    smoothing: ForwardBackwardResult
    _trace_duration_s: float = field(default=0.0)

    # ------------------------------------------------------------------
    @property
    def log_likelihood(self) -> float:
        return self.smoothing.log_likelihood

    def map_capacities_mbps(self) -> np.ndarray:
        """Maximum-likelihood capacity (Mbps) at each chunk start."""
        return self.problem.grid.values_of(self.viterbi.states)

    def posterior_mean_capacities_mbps(self) -> np.ndarray:
        """Posterior-mean capacity at each chunk start (smoothed)."""
        return self.smoothing.gamma @ self.problem.grid.values_mbps

    def _path_to_trace(self, states: np.ndarray) -> PiecewiseConstantTrace:
        # One interpolation plan per posterior: the window structure
        # depends only on the chunk start times, so the MAP path and every
        # posterior sample reuse it (traces are bit-identical to the
        # one-shot interpolate_capacity_trace, which shares the code).
        plan = getattr(self, "_plan_cache", None)
        if plan is None:
            plan = CapacityTracePlan(
                self.problem.start_times_s,
                self.problem.delta_s,
                self.problem.grid,
                duration_s=max(
                    self._trace_duration_s, self.problem.session_end_s
                ),
            )
            object.__setattr__(self, "_plan_cache", plan)
        return plan.trace_for(self.problem.grid.values_of(states))

    def map_trace(self) -> PiecewiseConstantTrace:
        """The single most-likely GTBW trace (used by interventional queries)."""
        return self._path_to_trace(self.viterbi.states)

    def sample_trace(self, seed: SeedLike = None) -> PiecewiseConstantTrace:
        """One posterior GTBW trace (Algorithm 1 + interpolation)."""
        states = sample_state_path(
            self.viterbi.states, self.smoothing.xi, seed=seed
        )
        return self._path_to_trace(states)

    def sample_traces(
        self, count: int = 5, seed: SeedLike = None
    ) -> list[PiecewiseConstantTrace]:
        """K posterior GTBW traces (the paper samples 5 by default).

        All ``count`` hidden paths are drawn in one batched FFBS pass (one
        uniform draw per chunk) before being interpolated into traces.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = ensure_rng(seed)
        paths = sample_state_paths(
            self.viterbi.states, self.smoothing.xi, count, seed=rng
        )
        return [self._path_to_trace(states) for states in paths]

    def expected_capacity_after(self, extra_windows: int) -> float:
        """``E[C]`` ``extra_windows`` δ-windows past the last chunk start.

        Interventional queries use this with the transition matrix to
        project the inferred GTBW forward to the next chunk (§4.4).
        """
        if extra_windows < 0:
            raise ValueError(f"extra_windows must be >= 0, got {extra_windows}")
        last_state = int(self.viterbi.states[-1])
        return self.problem.transitions.expected_next_value(
            last_state, extra_windows, self.problem.grid.values_mbps
        )


class VeritasAbduction:
    """End-to-end abduction engine (Fig. 6's "Veritas" box).

    ``kernel`` picks the :data:`ABDUCTION_TIERS` entry the batched solve
    path runs on (``None`` = the compiled default, see the module
    docstring); scalar :meth:`solve` always takes the reference path
    regardless.
    """

    def __init__(
        self,
        config: VeritasConfig | None = None,
        kernel: "str | None" = None,
    ):
        self.config = config or VeritasConfig()
        self.kernel = resolve_abduction_kernel(kernel)
        self.grid = CapacityGrid(
            epsilon_mbps=self.config.epsilon_mbps,
            max_mbps=self.config.max_capacity_mbps,
        )
        builder = _TRANSITION_BUILDERS[self.config.transition_kind]
        matrix = builder(
            self.grid.n_states, stay_prob=self.config.transition_stay_prob
        ) if self.config.transition_kind != "uniform" else builder(self.grid.n_states)
        self.transitions = TransitionModel(matrix)
        self.emission = EmissionModel(
            grid=self.grid,
            sigma_mbps=self.config.sigma_mbps,
            estimator=_EMISSION_ESTIMATORS[self.config.emission_kind],
        )

    def solve(
        self, log: SessionLog, trace_duration_s: float | None = None
    ) -> VeritasPosterior:
        """Infer the GTBW posterior for one session log.

        ``trace_duration_s`` optionally extends the reconstructed traces
        (counterfactual replays can run longer than the original session).
        """
        problem = build_problem(
            log, self.grid, self.transitions, self.emission, self.config.delta_s
        )
        return self._posterior_from_problem(problem, trace_duration_s or 0.0)

    def _posterior_from_problem(
        self, problem: EHMMProblem, trace_duration_s: float
    ) -> VeritasPosterior:
        """Scalar Viterbi + forward-backward tail shared by solve paths."""
        vit = viterbi_path(problem.log_emissions, problem.transitions, problem.deltas)
        smooth = forward_backward(
            problem.log_emissions, problem.transitions, problem.deltas
        )
        return VeritasPosterior(
            problem=problem,
            viterbi=vit,
            smoothing=smooth,
            _trace_duration_s=trace_duration_s,
        )

    def solve_batch(
        self,
        logs: "list[SessionLog]",
        trace_duration_s: "float | list[float] | None" = None,
    ) -> "list[VeritasPosterior]":
        """Infer GTBW posteriors for many session logs at once.

        The corpus-batched twin of :meth:`solve`: all logs share one
        emission-matrix evaluation, and sessions with equal chunk counts
        are stacked so the Viterbi and forward-backward recursions run
        once per stack instead of once per session (ragged corpora are
        partitioned by chunk count; a session with no same-length peers
        just takes the scalar path).  Entry ``i`` of the result is
        **bit-identical** to ``solve(logs[i], ...)`` — the stacked
        recursions reproduce the scalar floats exactly (see
        ``tests/test_batch_prepare.py``).

        ``trace_duration_s`` may be a scalar (applied to every log) or a
        per-log sequence.

        Memory note: posteriors from one stack share its arrays —
        ``smoothing.gamma``/``xi`` are views into the stacked tensors and
        each posterior keeps a reference to the block's pairwise tensor so
        :func:`sample_traces_batch` can reuse it without re-copying.
        Keeping a single posterior alive therefore retains its whole block
        (up to ~0.8 MB x 128 sessions at paper scale); deep-copy the
        slices if one posterior must outlive the batch.

        The engine's abduction tier governs the execution path: the
        ``"reference"`` tier solves each log scalar (the bit-identity
        yardstick), ``"numpy"`` runs the stacked recursions above, and
        ``"compiled"`` additionally routes each stack through
        :mod:`repro.core._kernels` (posteriors within ``rtol=1e-12``,
        Viterbi paths bit-identical).
        """
        logs = list(logs)
        if not logs:
            raise ValueError("need at least one session log")
        if trace_duration_s is None:
            durations = [0.0] * len(logs)
        elif np.isscalar(trace_duration_s):
            durations = [float(trace_duration_s)] * len(logs)
        else:
            durations = [float(d) for d in trace_duration_s]
            if len(durations) != len(logs):
                raise ValueError(
                    f"need one trace duration per log, got {len(durations)} "
                    f"for {len(logs)} logs"
                )

        if self.kernel == "reference":
            return [
                self.solve(log, duration)
                for log, duration in zip(logs, durations)
            ]
        stack_kernel = _stack_kernel(self.kernel)

        problems = build_problems_batch(
            logs,
            self.grid,
            self.transitions,
            self.emission,
            self.config.delta_s,
            kernel=stack_kernel,
        )
        posteriors: "list[VeritasPosterior | None]" = [None] * len(logs)
        by_length: dict[int, list[int]] = {}
        for i, problem in enumerate(problems):
            by_length.setdefault(problem.n_chunks, []).append(i)
        for indices in by_length.values():
            for start in range(0, len(indices), _MAX_STACK):
                block = indices[start : start + _MAX_STACK]
                if len(block) == 1:
                    i = block[0]
                    posteriors[i] = self._posterior_from_problem(
                        problems[i], durations[i]
                    )
                    continue
                log_b = np.stack([problems[i].log_emissions for i in block])
                deltas = np.stack([problems[i].deltas for i in block])
                vits = viterbi_path_batch(
                    log_b, self.transitions, deltas, kernel=stack_kernel
                )
                smooths = forward_backward_batch(
                    log_b, self.transitions, deltas, kernel=stack_kernel
                )
                for t, i in enumerate(block):
                    posterior = VeritasPosterior(
                        problem=problems[i],
                        viterbi=vits.session(t),
                        smoothing=smooths.session(t),
                        _trace_duration_s=durations[i],
                    )
                    # Remember the owning stack so sample_traces_batch can
                    # reuse the contiguous xi tensor instead of re-stacking
                    # tens of MB per block.
                    posterior._stack_xi = smooths.xi
                    posterior._stack_slot = t
                    posteriors[i] = posterior
        return posteriors


def sample_traces_batch(
    posteriors: "list[VeritasPosterior]",
    count: int,
    seeds: "list",
    kernel: "str | None" = None,
) -> "list[list[PiecewiseConstantTrace]]":
    """Draw ``count`` posterior GTBW traces per posterior, batched.

    Posteriors with equal shapes are stacked so the inverse-CDF FFBS
    backward pass runs once per stack; each posterior consumes exactly one
    uniform block from its own ``seeds[i]``, so entry ``i`` of the result
    is bit-identical to ``posteriors[i].sample_traces(count,
    seed=seeds[i])``.  ``kernel`` picks the abduction tier for the
    backward pass: ``"compiled"`` runs each stack through the
    :mod:`repro.core._kernels` FFBS (samples stay bit-identical given the
    same posteriors); ``"reference"`` samples each posterior scalar.
    ``None`` picks the compiled default, which degrades to NumPy silently.
    """
    kernel = resolve_abduction_kernel(kernel)
    posteriors = list(posteriors)
    seeds = list(seeds)
    if len(seeds) != len(posteriors):
        raise ValueError(
            f"need one seed per posterior, got {len(seeds)} for "
            f"{len(posteriors)} posteriors"
        )
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    out: "list[list[PiecewiseConstantTrace] | None]" = [None] * len(posteriors)
    if kernel == "reference":
        for i, posterior in enumerate(posteriors):
            out[i] = posterior.sample_traces(count, seed=seeds[i])
        return out
    stack_kernel = _stack_kernel(kernel)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, posterior in enumerate(posteriors):
        key = (posterior.problem.n_chunks, posterior.problem.n_states)
        by_shape.setdefault(key, []).append(i)
    for indices in by_shape.values():
        for start in range(0, len(indices), _MAX_STACK):
            block = indices[start : start + _MAX_STACK]
            if len(block) == 1:
                i = block[0]
                out[i] = posteriors[i].sample_traces(count, seed=seeds[i])
                continue
            states = np.stack([posteriors[i].viterbi.states for i in block])
            base = getattr(posteriors[block[0]], "_stack_xi", None)
            if (
                base is not None
                and base.shape[0] == len(block)
                and all(
                    getattr(posteriors[i], "_stack_xi", None) is base
                    and getattr(posteriors[i], "_stack_slot", -1) == t
                    for t, i in enumerate(block)
                )
            ):
                # The whole block is one solve_batch stack in order: reuse
                # its contiguous xi tensor instead of re-copying tens of MB.
                xi = base
            else:
                xi = np.stack([posteriors[i].smoothing.xi for i in block])
            paths = sample_state_paths_stack(
                states, xi, count, [seeds[i] for i in block],
                kernel=stack_kernel,
            )
            for t, i in enumerate(block):
                posterior = posteriors[i]
                out[i] = [
                    posterior._path_to_trace(path) for path in paths[t]
                ]
    return out
