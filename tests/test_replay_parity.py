"""Parity suite for the scalar replay path and the query planner.

* The scalar path (``run_setting``, ``CounterfactualEngine(use_batch=False)``
  and the ``on_error="degrade"`` retry) runs the per-RTT golden loop
  ``_reference_download`` — the one scalar TCP download implementation
  every batch tier is pinned against (``test_batch_replay.py``,
  ``test_tcp_differential.py``).  Its value-level behaviour is tested in
  ``test_trace.py`` / ``test_tcp_connection.py``.
* ``PiecewiseConstantTrace.time_to_transfer`` (the scalar interval walk)
  vs a one-lane ``TraceBatch.transfer_drain`` on the edge shapes: start
  past the trace end, in-interval finish, zero-bandwidth gaps, trailing
  zero bandwidth and zero-byte transfers.  Random shapes are covered in
  ``test_batch_replay.py`` and ``test_trace.py``.
* ``CounterfactualEngine.evaluate_many`` over a prepared corpus vs
  back-to-back ``evaluate_corpus`` / per-trace ``evaluate_trace`` calls.
* Every engine ``kernel=`` tier answers causal queries identically.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tcp.connection as connection_module
from repro import (
    CounterfactualEngine,
    change_abr,
    change_buffer,
    paper_corpus,
    paper_setting_a,
    paper_veritas_config,
)
from repro.causal.engine import run_setting
from repro.net.trace import PiecewiseConstantTrace, TraceBatch
from repro.player.session import StreamingSession
from repro.util.rng import spawn_seeds


def drain(trace: PiecewiseConstantTrace, start: float, size: float) -> float:
    """One transfer through a one-lane ``TraceBatch.transfer_drain``."""
    batch = TraceBatch([trace])
    starts = np.array([start])
    got = batch.transfer_drain(
        starts, np.array([size]), np.arange(1), batch.interval_indices(starts)
    )
    return float(got[0])


class TestTimeToTransferParity:
    def test_start_past_end_time(self):
        tr = PiecewiseConstantTrace([0.0, 10.0], [4.0])
        for start in (10.0, 25.0):
            scalar = tr.time_to_transfer(start, 1e6)
            assert scalar == drain(tr, start, 1e6)
            assert scalar == pytest.approx(2.0)

    def test_sub_interval_transfer(self):
        tr = PiecewiseConstantTrace([0.0, 5.0, 10.0], [8.0, 2.0])
        size = 1e5  # finishes well inside the first interval
        scalar = tr.time_to_transfer(1.0, size)
        assert scalar == drain(tr, 1.0, size)
        assert scalar == pytest.approx(size / (8.0 * 1e6 / 8))

    def test_zero_gap_then_resume(self):
        tr = PiecewiseConstantTrace([0.0, 2.0, 6.0, 8.0], [4.0, 0.0, 4.0])
        size = tr.integrate_bytes(0.0, 7.0)
        scalar = tr.time_to_transfer(0.0, size)
        assert scalar == drain(tr, 0.0, size)
        assert scalar == pytest.approx(7.0, abs=1e-6)

    def test_trailing_zero_raises_in_both(self):
        tr = PiecewiseConstantTrace([0.0, 2.0], [0.0])
        with pytest.raises(RuntimeError):
            tr.time_to_transfer(0.0, 1e5)
        with pytest.raises(RuntimeError):
            drain(tr, 0.0, 1e5)

    def test_zero_size_is_free(self):
        tr = PiecewiseConstantTrace([0.0, 2.0], [1.0])
        assert tr.time_to_transfer(0.5, 0.0) == 0.0
        assert drain(tr, 0.5, 0.0) == 0.0


class TestScalarPathIsGolden:
    """The scalar path — ``run_setting``, ``use_batch=False`` and the
    ``on_error="degrade"`` retry — runs the per-RTT golden loop, one
    ``_reference_download`` call per chunk download."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count golden-loop calls and the chunks every scalar session logs."""
        counts = {"downloads": 0, "chunks": 0}
        golden = connection_module._reference_download
        run = StreamingSession.run

        def download(*args):
            counts["downloads"] += 1
            return golden(*args)

        def session_run(self):
            log = run(self)
            counts["chunks"] += log.n_chunks
            return log

        monkeypatch.setattr(connection_module, "_reference_download", download)
        monkeypatch.setattr(StreamingSession, "run", session_run)
        return counts

    @pytest.mark.parametrize("abr", ["bba", "bola", "mpc"])
    def test_run_setting_runs_golden_loop(self, abr, counted):
        setting = change_abr(paper_setting_a(seed=7), abr)
        trace = paper_corpus(count=1, duration_s=500.0, seed=99)[0]
        log = run_setting(setting, trace)
        assert log.n_chunks > 0
        assert counted == {"downloads": log.n_chunks, "chunks": log.n_chunks}

    def test_unbatched_engine_runs_golden_loop(self, counted):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=1, duration_s=400.0, seed=31)
        engine = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=5, use_batch=False
        )
        prepared = engine.prepare_corpus(traces, setting_a)
        engine.evaluate_many(prepared, [change_abr(setting_a, "bba")])
        # Setting A once, then truth + baseline + 2 samples under Setting B.
        n = 5 * setting_a.video.n_chunks
        assert counted == {"downloads": n, "chunks": n}


class TestPreparedCorpusParity:
    @pytest.fixture(scope="class")
    def fixtures(self):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=3, duration_s=500.0, seed=21)
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=3, seed=5)
        return setting_a, traces, engine

    def test_evaluate_many_equals_evaluate_corpus(self, fixtures):
        setting_a, traces, engine = fixtures
        settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
        prepared = engine.prepare_corpus(traces, setting_a)
        many = engine.evaluate_many(prepared, settings_b)
        for setting_b, shared in zip(settings_b, many):
            solo = engine.evaluate_corpus(traces, setting_a, setting_b)
            assert shared.setting_b == solo.setting_b
            assert shared.per_trace == solo.per_trace  # exact equality

    def test_matches_per_trace_evaluate_trace(self, fixtures):
        setting_a, traces, engine = fixtures
        setting_b = change_abr(setting_a, "bba")
        seeds = spawn_seeds(5, len(traces))
        direct = [
            engine.evaluate_trace(i, tr, setting_a, setting_b, seed=s)
            for i, (tr, s) in enumerate(zip(traces, seeds))
        ]
        prepared = engine.prepare_corpus(traces, setting_a)
        shared = engine.evaluate_many(prepared, [setting_b])[0]
        assert shared.per_trace == direct

    def test_prepared_replay_is_deterministic(self, fixtures):
        setting_a, traces, engine = fixtures
        setting_b = change_abr(setting_a, "bola")
        prepared = engine.prepare_corpus(traces, setting_a)
        first = engine.evaluate_many(prepared, [setting_b])[0]
        second = engine.evaluate_many(prepared, [setting_b])[0]
        assert first.per_trace == second.per_trace

    def test_empty_inputs_rejected(self, fixtures):
        setting_a, traces, engine = fixtures
        with pytest.raises(ValueError):
            engine.prepare_corpus([], setting_a)
        prepared = engine.prepare_corpus(traces[:1], setting_a)
        with pytest.raises(ValueError):
            engine.evaluate_many(prepared, [])


class TestEngineKernelTiers:
    """``CounterfactualEngine(kernel=...)`` reaches the replay kernels and
    every tier answers causal queries identically (PR 6)."""

    @pytest.fixture(scope="class")
    def fixtures(self):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=2, duration_s=400.0, seed=31)
        return setting_a, traces

    def test_all_tiers_answer_identically(self, fixtures):
        setting_a, traces = fixtures
        settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
        results = {}
        for tier in ("reference", "numpy", "compiled"):
            engine = CounterfactualEngine(
                paper_veritas_config(), n_samples=3, seed=5, kernel=tier
            )
            prepared = engine.prepare_corpus(traces, setting_a)
            results[tier] = engine.evaluate_many(prepared, settings_b)
        for tier in ("numpy", "compiled"):
            for got, want in zip(results[tier], results["reference"]):
                assert got.per_trace == want.per_trace  # exact equality
