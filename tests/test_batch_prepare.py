"""Parity suite for corpus-lockstep preparation (PR 5).

The batched preparation pipeline promises **bit-identical** results to the
per-trace serial path at every layer:

* ``forward_backward_batch`` / ``viterbi_path_batch`` vs the scalar
  recursions (stacked ``matmul`` reproduces ``np.dot``'s floats exactly),
* ``sample_state_paths_stack`` vs per-session ``sample_state_paths`` under
  the same seeds (one uniform block per session either way),
* ``VeritasAbduction.solve_batch`` / ``sample_traces_batch`` vs per-log
  ``solve`` / ``sample_traces`` — including ragged chunk counts,
* ``CounterfactualEngine.prepare_corpus`` with ``use_batch=True`` (fused
  Setting-A deployment + stacked abduction) vs ``use_batch=False``, serial
  and on the fork pool, down to every ``SessionLog`` record, baseline
  trace and posterior sample.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import (
    CounterfactualEngine,
    MPCAlgorithm,
    SessionConfig,
    StreamingSession,
    change_abr,
    fast_setting_a,
    paper_corpus,
    paper_veritas_config,
    random_walk_trace,
    short_video,
)
from repro.core import VeritasAbduction, sample_traces_batch
from repro.core.forward_backward import (
    forward_backward,
    forward_backward_batch,
)
from repro.core.sampler import sample_state_paths, sample_state_paths_stack
from repro.core.transitions import TransitionModel, tridiagonal_matrix
from repro.core.viterbi import viterbi_path, viterbi_path_batch
from repro.net.trace import PiecewiseConstantTrace


def small_corpus(count: int, seed: int = 11, duration_s: float = 400.0):
    return paper_corpus(count=count, duration_s=duration_s, seed=seed)


@pytest.fixture(scope="module")
def setting_a():
    return fast_setting_a(duration_s=180.0)


@pytest.fixture(scope="module")
def session_logs():
    """Five MPC logs over distinct traces (equal chunk counts)."""
    video = short_video(duration_s=120.0, seed=3)
    logs = []
    for s in (10, 11, 12, 13, 14):
        trace = random_walk_trace(
            mean_mbps=5.0, duration=400.0, seed=s, low=2.0, high=9.0
        )
        logs.append(
            StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
        )
    return logs


def assert_traces_equal(a: PiecewiseConstantTrace, b: PiecewiseConstantTrace):
    assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(a.values, b.values)


def assert_prepared_equal(batch, serial):
    assert len(batch.per_trace) == len(serial.per_trace)
    assert batch.n_samples == serial.n_samples
    for pa, pb in zip(batch.per_trace, serial.per_trace):
        assert pa.trace_index == pb.trace_index
        # Frozen dataclass records: exact floats in every field.
        assert pa.log_a.to_dict() == pb.log_a.to_dict()
        assert pa.setting_a_metrics == pb.setting_a_metrics
        assert pa.replay_horizon_s == pb.replay_horizon_s
        assert_traces_equal(pa.baseline, pb.baseline)
        assert len(pa.samples) == len(pb.samples)
        for sa, sb in zip(pa.samples, pb.samples):
            assert_traces_equal(sa, sb)


class TestStackedRecursions:
    """The core/ batch recursions vs their scalar references."""

    def _problem_stack(self, session_logs):
        abduction = VeritasAbduction(paper_veritas_config())
        from repro.core.ehmm import build_problems_batch

        problems = build_problems_batch(
            session_logs,
            abduction.grid,
            abduction.transitions,
            abduction.emission,
            abduction.config.delta_s,
        )
        log_b = np.stack([p.log_emissions for p in problems])
        deltas = np.stack([p.deltas for p in problems])
        return problems, log_b, deltas, abduction.transitions

    def test_forward_backward_batch_bit_identical(self, session_logs):
        problems, log_b, deltas, transitions = self._problem_stack(session_logs)
        batch = forward_backward_batch(log_b, transitions, deltas)
        for t, problem in enumerate(problems):
            scalar = forward_backward(
                problem.log_emissions, transitions, problem.deltas
            )
            assert np.array_equal(batch.gamma[t], scalar.gamma)
            assert np.array_equal(batch.xi[t], scalar.xi)
            assert batch.session(t).log_likelihood == scalar.log_likelihood

    def test_viterbi_batch_bit_identical(self, session_logs):
        problems, log_b, deltas, transitions = self._problem_stack(session_logs)
        batch = viterbi_path_batch(log_b, transitions, deltas)
        for t, problem in enumerate(problems):
            scalar = viterbi_path(problem.log_emissions, transitions, problem.deltas)
            assert np.array_equal(batch.states[t], scalar.states)
            assert batch.session(t).log_probability == scalar.log_probability

    def test_single_chunk_stack(self):
        transitions = TransitionModel(tridiagonal_matrix(4))
        log_b = np.log(np.random.default_rng(0).random((3, 1, 4)))
        deltas = np.zeros((3, 1), dtype=int)
        fb = forward_backward_batch(log_b, transitions, deltas)
        assert fb.xi.shape == (3, 0, 4, 4)
        vit = viterbi_path_batch(log_b, transitions, deltas)
        for t in range(3):
            scalar = forward_backward(log_b[t], transitions, deltas[t])
            assert np.array_equal(fb.gamma[t], scalar.gamma)
            assert np.array_equal(
                vit.states[t], viterbi_path(log_b[t], transitions, deltas[t]).states
            )

    def test_batch_input_validation(self):
        transitions = TransitionModel(tridiagonal_matrix(3))
        with pytest.raises(ValueError, match="3-D"):
            forward_backward_batch(np.zeros((2, 3)), transitions, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="shape"):
            forward_backward_batch(
                np.zeros((2, 4, 3)), transitions, np.zeros((2, 3), dtype=int)
            )
        with pytest.raises(ValueError, match="3-D"):
            viterbi_path_batch(np.zeros((4, 3)), transitions, np.zeros((4, 3)))

    def test_stacked_sampler_matches_scalar(self, session_logs):
        problems, log_b, deltas, transitions = self._problem_stack(session_logs)
        fb = forward_backward_batch(log_b, transitions, deltas)
        vit = viterbi_path_batch(log_b, transitions, deltas)
        seeds = [100 + t for t in range(len(session_logs))]
        stack = sample_state_paths_stack(vit.states, fb.xi, 4, seeds)
        for t in range(len(session_logs)):
            reference = sample_state_paths(
                vit.states[t], fb.xi[t], 4, seed=seeds[t]
            )
            assert np.array_equal(stack[t], np.stack(reference))

    def test_stacked_sampler_degenerate_columns(self):
        """Unreachable pairwise-posterior columns fall back to Viterbi."""
        rng = np.random.default_rng(5)
        n_sessions, n_chunks, k = 3, 6, 4
        xi = rng.random((n_sessions, n_chunks - 1, k, k))
        xi[0, 2] = 0.0  # every column degenerate at one chunk
        xi[1, 3, :, 1] = 0.0  # one successor column degenerate
        states = rng.integers(0, k, (n_sessions, n_chunks))
        seeds = [7, 8, 9]
        stack = sample_state_paths_stack(states, xi, 5, seeds)
        for t in range(n_sessions):
            reference = sample_state_paths(states[t], xi[t], 5, seed=seeds[t])
            assert np.array_equal(stack[t], np.stack(reference))


class TestSolveBatch:
    def test_solve_batch_matches_solve(self, session_logs):
        # The numpy tier is the bit-identical one (compiled, the default,
        # is pinned at rtol=1e-12 in tests/test_abduction_kernel.py).
        abduction = VeritasAbduction(paper_veritas_config(), kernel="numpy")
        durations = [500.0 + 10.0 * i for i in range(len(session_logs))]
        batch = abduction.solve_batch(session_logs, trace_duration_s=durations)
        for log, duration, posterior in zip(session_logs, durations, batch):
            scalar = abduction.solve(log, trace_duration_s=duration)
            assert np.array_equal(
                posterior.viterbi.states, scalar.viterbi.states
            )
            assert posterior.viterbi.log_probability == scalar.viterbi.log_probability
            assert np.array_equal(posterior.smoothing.gamma, scalar.smoothing.gamma)
            assert np.array_equal(posterior.smoothing.xi, scalar.smoothing.xi)
            assert posterior.log_likelihood == scalar.log_likelihood
            assert_traces_equal(posterior.map_trace(), scalar.map_trace())

    def test_solve_batch_ragged_chunk_counts(self, session_logs):
        """Sessions of different lengths partition by chunk count."""
        abduction = VeritasAbduction(paper_veritas_config(), kernel="numpy")
        ragged = list(session_logs[:3])
        ragged.append(session_logs[0].truncated(20))
        ragged.append(session_logs[1].truncated(20))
        ragged.append(session_logs[2].truncated(7))  # singleton partition
        batch = abduction.solve_batch(ragged, trace_duration_s=600.0)
        for log, posterior in zip(ragged, batch):
            scalar = abduction.solve(log, trace_duration_s=600.0)
            assert np.array_equal(posterior.viterbi.states, scalar.viterbi.states)
            assert np.array_equal(posterior.smoothing.gamma, scalar.smoothing.gamma)
            assert np.array_equal(posterior.smoothing.xi, scalar.smoothing.xi)

    def test_sample_traces_batch_matches_scalar(self, session_logs):
        abduction = VeritasAbduction(paper_veritas_config())
        posteriors = abduction.solve_batch(session_logs, trace_duration_s=500.0)
        seeds = [40 + i for i in range(len(posteriors))]
        batched = sample_traces_batch(posteriors, 5, seeds)
        for posterior, seed, samples in zip(posteriors, seeds, batched):
            reference = posterior.sample_traces(5, seed=seed)
            assert len(samples) == len(reference)
            for a, b in zip(samples, reference):
                assert_traces_equal(a, b)

    def test_solve_batch_validation(self, session_logs):
        abduction = VeritasAbduction(paper_veritas_config())
        with pytest.raises(ValueError, match="at least one"):
            abduction.solve_batch([])
        with pytest.raises(ValueError, match="one trace duration per log"):
            abduction.solve_batch(session_logs, trace_duration_s=[1.0, 2.0])
        with pytest.raises(ValueError, match="one seed per posterior"):
            sample_traces_batch(
                abduction.solve_batch(session_logs[:2]), 3, [1]
            )


class TestPrepareCorpusParity:
    def test_batch_prepare_matches_serial(self, setting_a):
        corpus = small_corpus(5)
        engine_batch = CounterfactualEngine(
            paper_veritas_config(), n_samples=4, seed=3
        )
        engine_serial = CounterfactualEngine(
            paper_veritas_config(), n_samples=4, seed=3, use_batch=False
        )
        prepared_batch = engine_batch.prepare_corpus(corpus, setting_a)
        prepared_serial = engine_serial.prepare_corpus(corpus, setting_a)
        assert_prepared_equal(prepared_batch, prepared_serial)

        # Downstream queries against either prepared corpus agree exactly.
        setting_b = change_abr(setting_a, "bba")
        result_batch = engine_batch.evaluate_many(prepared_batch, [setting_b])[0]
        result_serial = engine_serial.evaluate_many(
            prepared_serial, [setting_b]
        )[0]
        for ta, tb in zip(result_batch.per_trace, result_serial.per_trace):
            assert ta.truth_metrics == tb.truth_metrics
            assert ta.baseline_metrics == tb.baseline_metrics
            assert ta.veritas_metrics == tb.veritas_metrics

    def test_single_trace_corpus(self, setting_a):
        """K=1 corpora take the per-trace path and still match."""
        corpus = small_corpus(1)
        engine_batch = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=5
        )
        engine_serial = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=5, use_batch=False
        )
        assert_prepared_equal(
            engine_batch.prepare_corpus(corpus, setting_a),
            engine_serial.prepare_corpus(corpus, setting_a),
        )

    def test_single_sample_corpus(self, setting_a):
        """n_samples=1 exercises the smallest FFBS stack."""
        corpus = small_corpus(3)
        engine_batch = CounterfactualEngine(
            paper_veritas_config(), n_samples=1, seed=9
        )
        engine_serial = CounterfactualEngine(
            paper_veritas_config(), n_samples=1, seed=9, use_batch=False
        )
        assert_prepared_equal(
            engine_batch.prepare_corpus(corpus, setting_a),
            engine_serial.prepare_corpus(corpus, setting_a),
        )

    def test_mixed_grid_corpus(self, setting_a):
        """Traces on different boundary grids split into deployment groups
        (the odd one out deploys serially) and still match the serial path."""
        corpus = small_corpus(4)
        rng = np.random.default_rng(3)
        corpus.append(
            PiecewiseConstantTrace.from_uniform(rng.uniform(3.0, 8.0, 100), 4.0)
        )
        engine_batch = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=1
        )
        engine_serial = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=1, use_batch=False
        )
        assert_prepared_equal(
            engine_batch.prepare_corpus(corpus, setting_a),
            engine_serial.prepare_corpus(corpus, setting_a),
        )

    def test_kernel_tiers_prepare_identically(self, setting_a):
        """Setting-A deployment runs through the selected replay-kernel tier
        too; every tier must produce the same ``PreparedCorpus`` bit for bit
        (``compiled`` degrades to ``numpy`` when no backend is buildable,
        which preserves the contract)."""
        corpus = small_corpus(3)
        want = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=4, kernel="reference"
        ).prepare_corpus(corpus, setting_a)
        for kernel in ("numpy", "compiled"):
            got = CounterfactualEngine(
                paper_veritas_config(), n_samples=2, seed=4, kernel=kernel
            ).prepare_corpus(corpus, setting_a)
            assert_prepared_equal(got, want)

    def test_abduction_tiers_prepare_identically(self, setting_a):
        """Abduction kernel tiers (PR 9): ``reference`` and ``numpy`` are
        bit-identical by contract; ``compiled`` keeps integer outputs
        (Viterbi anchors, FFBS draws) bit-identical so the prepared corpus
        — sampled traces and replay metrics — comes out identical too, the
        float posteriors differing only inside rtol=1e-12.  The default
        is ``compiled``."""
        corpus = small_corpus(3)
        want = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=4
        ).prepare_corpus(corpus, setting_a)
        for abduction_kernel in ("reference", "numpy"):
            got = CounterfactualEngine(
                paper_veritas_config(),
                n_samples=2,
                seed=4,
                abduction_kernel=abduction_kernel,
            ).prepare_corpus(corpus, setting_a)
            assert_prepared_equal(got, want)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_pooled_prepare_matches_serial(self, setting_a):
        """Workers batch within their shard; pooled output is bit-identical."""
        corpus = small_corpus(5)
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=3, seed=2)
        serial = engine.prepare_corpus(corpus, setting_a)
        pooled = engine.prepare_corpus(corpus, setting_a, n_workers=3)
        assert_prepared_equal(pooled, serial)
