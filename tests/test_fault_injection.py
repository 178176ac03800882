"""Fault-injection tests for the fault-tolerant corpus runtime.

Each test breaks the pipeline on purpose — a poisoned trace, a worker
killed mid-shard, a hang past the watchdog, a corrupted checkpoint — and
asserts the two contracts of :mod:`repro.runtime`:

1. the run completes, reporting every incident in the result's
   :class:`~repro.runtime.faults.FaultLog`, and
2. every surviving trace's answer is **bit-identical** to a clean run's
   (recovery re-executes with the same seeds, it never approximates).

Worker-side injection uses marker files plus ``os.getpid()`` guards: the
fork pool inherits a monkeypatched engine method whose sabotage fires only
in child processes and only while the marker exists, so the supervised
retry (fresh pool, marker consumed) succeeds deterministically.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from repro import (
    CounterfactualEngine,
    Setting,
    change_abr,
    change_buffer,
    make_abr,
    paper_veritas_config,
    random_walk_trace,
)
from repro.net import (
    PiecewiseConstantTrace,
    TraceValidationError,
    validate_corpus,
    validate_trace,
)
from repro.player import SessionConfig
from repro.runtime import CheckpointStore, FaultLog, SupervisorConfig, fingerprint
from repro.runtime.supervisor import run_supervised
from repro.video import short_video

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

HAVE_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")


def nan_trace(duration_s: float = 180.0) -> PiecewiseConstantTrace:
    """A trace that passes construction but poisons the replay kernels.

    The constructor's negativity check (``values < 0``) is False for NaN,
    so this slips through — exactly the gap ``validate_trace`` closes.
    """
    values = [5.0] * int(duration_s)
    values[3] = math.nan
    return PiecewiseConstantTrace.from_uniform(values, 1.0)


@pytest.fixture(scope="module")
def setting_a():
    return Setting(
        name="A",
        abr_factory=lambda: make_abr("bba"),
        config=SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08),
        video=short_video(duration_s=60.0, seed=4),
    )


@pytest.fixture(scope="module")
def corpus():
    return [
        random_walk_trace(m, 180.0, seed=s, low=1.5, high=9.0, step_mbps=1.0)
        for m, s in [(4.0, 1), (6.0, 2), (5.0, 3)]
    ]


def make_engine(**kwargs) -> CounterfactualEngine:
    kwargs.setdefault("n_samples", 2)
    kwargs.setdefault("seed", 3)
    return CounterfactualEngine(paper_veritas_config(), **kwargs)


def assert_same_trace_answers(got, expected):
    """Exact (frozen-dataclass) equality of per-trace counterfactuals."""
    assert [t.trace_index for t in got] == [t.trace_index for t in expected]
    for a, b in zip(got, expected):
        assert a == b  # QoEMetrics are frozen dataclasses: float-exact


def assert_same_prepared(got, expected):
    assert [p.trace_index for p in got] == [p.trace_index for p in expected]
    for a, b in zip(got, expected):
        assert a.log_a.to_dict() == b.log_a.to_dict()
        assert a.setting_a_metrics == b.setting_a_metrics
        assert a.replay_horizon_s == b.replay_horizon_s
        assert np.array_equal(a.baseline.boundaries, b.baseline.boundaries)
        assert np.array_equal(a.baseline.values, b.baseline.values)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.boundaries, sb.boundaries)
            assert np.array_equal(sa.values, sb.values)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_nan_bandwidth_is_caught(self):
        diags = validate_trace(nan_trace())
        assert any(d.code == "non-finite-bandwidth" for d in diags)

    def test_clean_trace_has_no_diagnostics(self, corpus):
        assert not validate_trace(corpus[0])

    def test_validate_corpus_maps_by_index(self, corpus):
        bad = [corpus[0], nan_trace(), corpus[1]]
        diagnostics = validate_corpus(bad)
        assert set(diagnostics) == {1}

    def test_raise_policy_fails_loudly(self, corpus, setting_a):
        engine = make_engine(on_error="raise")
        with pytest.raises(TraceValidationError):
            engine.prepare_corpus([corpus[0], nan_trace()], setting_a)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            make_engine(on_error="retry")


# ---------------------------------------------------------------------------
# Per-trace isolation: skip / degrade
# ---------------------------------------------------------------------------
class TestTraceIsolation:
    def test_skip_poisoned_trace_bit_identical(self, corpus, setting_a):
        """Dropping trace 1 must not perturb traces 0 and 2.

        Seeds are indexed by original corpus position, so the run over
        [t0, poison, t2] must match a clean run over [t0, filler, t2]
        float for float on the survivors.
        """
        setting_b = change_abr(setting_a, "bola")
        poisoned = [corpus[0], nan_trace(), corpus[2]]
        clean = [corpus[0], corpus[1], corpus[2]]

        engine = make_engine(on_error="skip")
        result = engine.evaluate_corpus(poisoned, setting_a, setting_b)
        reference = make_engine().evaluate_corpus(clean, setting_a, setting_b)

        assert result.faults.skipped_trace_indices() == {1}
        fault = result.faults.traces[0]
        assert (fault.stage, fault.tier) == ("validate", "input")
        survivors = [t for t in reference.per_trace if t.trace_index != 1]
        assert_same_trace_answers(result.per_trace, survivors)

    def test_degrade_retries_on_reference_path(self, corpus, setting_a, monkeypatch):
        """A batch-path failure degrades to the scalar path, bit-identical."""
        reference = make_engine().prepare_corpus(corpus[:2], setting_a)

        engine = make_engine(on_error="degrade")

        def boom(*args, **kwargs):
            raise RuntimeError("batch abduction exploded")

        monkeypatch.setattr(engine.abduction, "solve_batch", boom)
        prepared = engine.prepare_corpus(corpus[:2], setting_a)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        shard_faults = [f for f in prepared.faults.traces if f.trace_index == -1]
        assert len(shard_faults) == 1
        assert not shard_faults[0].skipped
        assert shard_faults[0].error_type == "RuntimeError"

    def test_degrade_raises_when_reference_also_fails(
        self, corpus, setting_a, monkeypatch
    ):
        engine = make_engine(on_error="degrade")

        def boom(*args, **kwargs):
            raise RuntimeError("irrecoverable")

        monkeypatch.setattr(engine.abduction, "solve_batch", boom)
        monkeypatch.setattr(engine.abduction, "solve", boom)
        with pytest.raises(RuntimeError, match="irrecoverable"):
            engine.prepare_corpus(corpus[:2], setting_a)

    def test_replay_degrade_recovers_bit_identical(
        self, corpus, setting_a, monkeypatch
    ):
        setting_b = change_buffer(setting_a, 30.0)
        reference = make_engine().evaluate_corpus(corpus[:2], setting_a, setting_b)

        engine = make_engine(on_error="degrade")
        prepared = engine.prepare_corpus(corpus[:2], setting_a)
        original = CounterfactualEngine._replay_prepared

        def flaky(self, item, setting):
            raise RuntimeError("batch replay exploded")

        monkeypatch.setattr(CounterfactualEngine, "_replay_prepared", flaky)
        monkeypatch.setattr(
            CounterfactualEngine,
            "_replay_settings",
            lambda self, per_trace, settings: (_ for _ in ()).throw(
                RuntimeError("fused replay exploded")
            ),
        )
        result = engine.evaluate_many(prepared, [setting_b])[0]
        monkeypatch.setattr(CounterfactualEngine, "_replay_prepared", original)

        assert_same_trace_answers(result.per_trace, reference.per_trace)
        recovered = [f for f in result.faults.traces if f.trace_index >= 0]
        assert len(recovered) == 2
        assert all(not f.skipped and f.tier == "batch" for f in recovered)

    def test_replay_skip_drops_irrecoverable_trace(
        self, corpus, setting_a, monkeypatch
    ):
        setting_b = change_buffer(setting_a, 30.0)
        engine = make_engine(on_error="skip")
        prepared = engine.prepare_corpus(corpus[:2], setting_a)
        reference = make_engine().evaluate_many(
            make_engine().prepare_corpus(corpus[:2], setting_a), [setting_b]
        )[0]

        serial = CounterfactualEngine._replay_prepared_serial

        def boom_for_first(self, item, setting):
            if item.trace_index == 0:
                raise RuntimeError("trace 0 is cursed")
            return serial(self, item, setting)

        monkeypatch.setattr(
            CounterfactualEngine,
            "_replay_settings",
            lambda self, per_trace, settings: (_ for _ in ()).throw(
                RuntimeError("fused replay exploded")
            ),
        )
        monkeypatch.setattr(CounterfactualEngine, "_replay_prepared", boom_for_first)
        monkeypatch.setattr(
            CounterfactualEngine, "_replay_prepared_serial", boom_for_first
        )
        result = engine.evaluate_many(prepared, [setting_b])[0]

        assert [t.trace_index for t in result.per_trace] == [1]
        assert result.faults.skipped_trace_indices() == {0}
        assert_same_trace_answers(
            result.per_trace,
            [t for t in reference.per_trace if t.trace_index == 1],
        )


# ---------------------------------------------------------------------------
# Pool supervision
# ---------------------------------------------------------------------------
def _times_ten(task):
    return task * 10


def _sabotage_prepare(marker, mode):
    """Class-level wrapper: children crash/hang while ``marker`` exists."""
    parent = os.getpid()
    original = CounterfactualEngine._prepare_traces_safe

    def wrapper(self, *args, **kwargs):
        if os.getpid() != parent and marker.exists():
            try:
                marker.unlink()
            except OSError:
                pass  # a sibling got there first; sabotage anyway
            if mode == "kill":
                os._exit(1)
            time.sleep(60.0)
        return original(self, *args, **kwargs)

    return wrapper


@needs_fork
class TestPoolSupervision:
    def test_worker_death_recovers_bit_identical(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        reference = make_engine().prepare_corpus(corpus, setting_a)
        marker = tmp_path / "kill-once"
        marker.touch()
        monkeypatch.setattr(
            CounterfactualEngine,
            "_prepare_traces_safe",
            _sabotage_prepare(marker, "kill"),
        )
        engine = make_engine()
        prepared = engine.prepare_corpus(corpus, setting_a, n_workers=2)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        assert len(prepared.faults.pool) == 1
        fault = prepared.faults.pool[0]
        assert fault.kind == "worker-death"
        assert fault.recovered == "pool-retry"

    def test_hung_worker_times_out_and_recovers(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        reference = make_engine().prepare_corpus(corpus, setting_a)
        marker = tmp_path / "hang-once"
        marker.touch()
        monkeypatch.setattr(
            CounterfactualEngine,
            "_prepare_traces_safe",
            _sabotage_prepare(marker, "hang"),
        )
        engine = make_engine(shard_timeout_s=10.0)
        prepared = engine.prepare_corpus(corpus, setting_a, n_workers=2)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        kinds = {f.kind for f in prepared.faults.pool}
        assert "timeout" in kinds

    def test_irrecoverable_pool_falls_back_in_process(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        reference = make_engine().prepare_corpus(corpus[:2], setting_a)
        parent = os.getpid()
        original = CounterfactualEngine._prepare_traces_safe

        def always_die(self, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            CounterfactualEngine, "_prepare_traces_safe", always_die
        )
        engine = make_engine(max_retries=1, retry_backoff_s=0.0)
        prepared = engine.prepare_corpus(corpus[:2], setting_a, n_workers=2)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        assert prepared.faults.pool, "pool deaths must be reported"
        assert prepared.faults.pool[-1].recovered == "in-process"

    def test_run_supervised_preserves_task_order(self):
        log = FaultLog()
        results = run_supervised(
            _times_ten,
            [1, 2, 3],
            workers=2,
            config=SupervisorConfig(max_retries=0),
            fault_log=log,
        )
        assert results == [10, 20, 30]
        assert not log

    def test_supervisor_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_retries=-1)


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_skips_all_abduction(self, corpus, setting_a, tmp_path, monkeypatch):
        ckpt = tmp_path / "store"
        first = make_engine().prepare_corpus(
            corpus, setting_a, checkpoint_dir=ckpt
        )
        assert len(CheckpointStore(ckpt)) == len(corpus)

        engine = make_engine()

        def no_abduction(*args, **kwargs):
            raise AssertionError("resume must not re-run abduction")

        monkeypatch.setattr(engine.abduction, "solve", no_abduction)
        monkeypatch.setattr(engine.abduction, "solve_batch", no_abduction)
        resumed = engine.prepare_corpus(corpus, setting_a, checkpoint_dir=ckpt)

        assert_same_prepared(resumed.per_trace, first.per_trace)

    def test_resume_is_incremental(self, corpus, setting_a, tmp_path):
        ckpt = tmp_path / "store"
        make_engine().prepare_corpus(corpus[:2], setting_a, checkpoint_dir=ckpt)
        assert len(CheckpointStore(ckpt)) == 2
        full = make_engine().prepare_corpus(
            corpus, setting_a, checkpoint_dir=ckpt
        )
        assert len(CheckpointStore(ckpt)) == 3
        reference = make_engine().prepare_corpus(corpus, setting_a)
        assert_same_prepared(full.per_trace, reference.per_trace)

    def test_replays_from_checkpoint_are_bit_identical(
        self, corpus, setting_a, tmp_path
    ):
        setting_b = change_abr(setting_a, "bola")
        ckpt = tmp_path / "store"
        make_engine().prepare_corpus(corpus[:2], setting_a, checkpoint_dir=ckpt)
        resumed = make_engine().prepare_corpus(
            corpus[:2], setting_a, checkpoint_dir=ckpt
        )
        reference = make_engine().evaluate_corpus(corpus[:2], setting_a, setting_b)
        result = make_engine().evaluate_many(resumed, [setting_b])[0]
        assert_same_trace_answers(result.per_trace, reference.per_trace)

    def test_different_seed_misses_checkpoint(self, corpus, setting_a, tmp_path):
        ckpt = tmp_path / "store"
        make_engine(seed=3).prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        make_engine(seed=4).prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        # Different seed -> different fingerprint -> a second artifact.
        assert len(CheckpointStore(ckpt)) == 2

    def test_corrupt_checkpoint_recomputes(self, corpus, setting_a, tmp_path):
        ckpt = tmp_path / "store"
        first = make_engine().prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        store = CheckpointStore(ckpt)
        (key,) = store.keys()
        store.path_for(key).write_bytes(b"not an npz")
        again = make_engine().prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        assert_same_prepared(again.per_trace, first.per_trace)

    def test_fingerprint_is_content_addressed(self):
        a = fingerprint(["x", np.arange(4), 3])
        b = fingerprint(["x", np.arange(4), 3])
        c = fingerprint(["x", np.arange(4), 4])
        assert a == b != c


# ---------------------------------------------------------------------------
# Kernel degrade warning (satellite a)
# ---------------------------------------------------------------------------
class TestCompiledFallbackWarning:
    def test_warns_once_per_process(self, monkeypatch):
        from repro.net.trace import TraceBatch
        from repro.tcp import _compiled, connection
        from repro.util import compiled as compiled_util

        monkeypatch.setattr(_compiled, "available", lambda: False)
        monkeypatch.setattr(compiled_util, "_WARNED", set())
        batch = TraceBatch(
            [PiecewiseConstantTrace.from_uniform([5.0, 5.0], 1.0)]
        )

        def build():
            return connection.BatchTCPConnection(
                batch, rtt_s=0.08, kernel="compiled"
            )

        with pytest.warns(RuntimeWarning, match="falling back"):
            conn = build()
        assert conn._tier == "numpy"

        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            build()  # second degrade must be silent


# ---------------------------------------------------------------------------
# Acceptance: everything at once
# ---------------------------------------------------------------------------
@needs_fork
class TestAcceptance:
    def test_poison_kill_and_hang_in_one_run(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        """The ISSUE's acceptance scenario: a poisoned trace, a worker
        killed mid-shard and a hung worker in one corpus run — it must
        complete, report all three in the FaultLog, and stay bit-identical
        to serial on the surviving traces."""
        setting_b = change_abr(setting_a, "bola")
        poisoned = [corpus[0], nan_trace(), corpus[2]]
        reference = make_engine().evaluate_corpus(corpus, setting_a, setting_b)

        kill = tmp_path / "kill-once"
        hang = tmp_path / "hang-once"
        kill.touch()
        parent = os.getpid()
        original = CounterfactualEngine._prepare_traces_safe

        def chaos(self, *args, **kwargs):
            if os.getpid() != parent:
                if kill.exists():
                    try:
                        kill.unlink()
                        hang.touch()
                    except OSError:
                        pass
                    os._exit(1)
                if hang.exists():
                    try:
                        hang.unlink()
                    except OSError:
                        pass
                    time.sleep(60.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CounterfactualEngine, "_prepare_traces_safe", chaos)
        engine = make_engine(on_error="skip", shard_timeout_s=10.0)
        result = engine.evaluate_corpus(
            poisoned, setting_a, setting_b, n_workers=2
        )

        assert result.faults.skipped_trace_indices() == {1}
        kinds = {f.kind for f in result.faults.pool}
        assert "worker-death" in kinds
        survivors = [t for t in reference.per_trace if t.trace_index != 1]
        assert_same_trace_answers(result.per_trace, survivors)
