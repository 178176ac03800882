"""Parity suite for the lockstep batch replay engine (PR 4).

The batch engine promises **bit-identical** results to per-lane serial
replay at every layer:

* ``TraceBatch.transfer_drain`` vs the scalar
  ``PiecewiseConstantTrace.time_to_transfer`` (vectorised interval search
  over the stacked cumulative-bytes integrals),
* ``BatchStreamingSession`` (lockstep chunk loop + ``BatchTCPConnection``)
  vs per-lane ``StreamingSession`` runs — exact vectorised ABR decisions
  for BBA/BOLA/MPC, the automatic per-lane scalar fallback, and fused
  multi-setting batches (different ABRs / buffer capacities in one loop),
* ``compute_metrics_batch`` vs per-lane ``compute_metrics`` — without ever
  materializing ``ChunkRecord`` objects,
* ``CounterfactualEngine`` with ``use_batch=True`` vs ``use_batch=False``.

Edge cases covered: stalls (starved lanes), buffer-overflow sleeps (fast
lanes), zero-capacity intervals mid-trace, K=1 batches, and transfers
starting beyond the trace span.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.player.logs as logs_module
from repro import (
    BatchStreamingSession,
    CounterfactualEngine,
    SessionConfig,
    StreamingSession,
    TraceBatch,
    Video,
    change_abr,
    change_buffer,
    compute_metrics,
    compute_metrics_batch,
    default_ladder,
    fast_setting_a,
    paper_corpus,
    paper_veritas_config,
    run_setting,
    run_setting_batch,
)
from repro.abr import BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm
from repro.net.trace import boundary_key
from repro.net.trace import PiecewiseConstantTrace
from repro.player.batch_session import LaneGroup, abr_supports_batch_replay


def lane_traces(
    n_lanes: int, seed: int = 0, n_intervals: int = 40, interval_s: float = 5.0
) -> list[PiecewiseConstantTrace]:
    """Shared-grid lanes spanning slow, fast and zero-capacity shapes."""
    rng = np.random.default_rng(seed)
    traces = []
    for k in range(n_lanes):
        if k % 4 == 0:
            # Starved lane: frequent stalls.
            vals = rng.uniform(0.05, 0.6, n_intervals)
        elif k % 4 == 1:
            # Fast lane: buffer-overflow sleeps every chunk.
            vals = rng.uniform(5.0, 12.0, n_intervals)
        else:
            vals = rng.uniform(0.2, 8.0, n_intervals)
        if k % 3 == 2:
            # Zero-capacity intervals mid-trace (transfers must wait).
            lo = int(rng.integers(2, n_intervals - 4))
            vals[lo : lo + 2] = 0.0
        traces.append(PiecewiseConstantTrace.from_uniform(vals, interval_s))
    return traces


@pytest.fixture(scope="module")
def video() -> Video:
    return Video.generate(default_ladder(), duration_s=60.0, seed=7)


class TestTraceBatch:
    def test_rejects_mismatched_boundaries(self):
        a = PiecewiseConstantTrace.from_uniform([1.0, 2.0], 5.0)
        b = PiecewiseConstantTrace.from_uniform([1.0, 2.0], 4.0)
        with pytest.raises(ValueError, match="share identical boundaries"):
            TraceBatch([a, b])
        assert TraceBatch.from_traces([a, b]) is None
        assert TraceBatch.from_traces([]) is None

    def test_from_traces_accepts_shared_grid(self):
        lanes = lane_traces(3)
        batch = TraceBatch.from_traces(lanes)
        assert batch is not None
        assert batch.n_lanes == 3
        assert batch.lane(1) is lanes[1]

    def test_values_at_matches_scalar(self):
        lanes = lane_traces(5, seed=3)
        batch = TraceBatch(lanes)
        rng = np.random.default_rng(0)
        ts = rng.uniform(-10.0, 250.0, 5)
        got = batch.values_at(ts)
        for k, t in enumerate(ts):
            assert got[k] == lanes[k].value_at(float(t))

    def test_transfer_drain_bit_identical(self):
        rng = np.random.default_rng(11)
        lanes = lane_traces(9, seed=5)
        batch = TraceBatch(lanes)
        every_lane = np.arange(9)
        for _ in range(300):
            starts = rng.uniform(-5.0, 230.0, 9)  # spans before/past the grid
            sizes = 10 ** rng.uniform(1.0, 7.5, 9)
            sizes[rng.random(9) < 0.1] = 0.0
            got = batch.transfer_drain(
                starts, sizes, every_lane, batch.interval_indices(starts)
            )
            for k in range(9):
                want = lanes[k].time_to_transfer(float(starts[k]), float(sizes[k]))
                assert got[k] == want  # bit-identical, no tolerance

    def test_transfer_drain_lane_subset(self):
        lanes = lane_traces(6, seed=9)
        batch = TraceBatch(lanes)
        subset = np.array([1, 3, 4])
        starts = np.array([3.0, 17.0, 160.0])
        sizes = np.array([5e4, 2e6, 8e5])
        got = batch.transfer_drain(
            starts, sizes, subset, batch.interval_indices(starts)
        )
        for j, k in enumerate(subset):
            want = lanes[k].time_to_transfer(float(starts[j]), float(sizes[j]))
            assert got[j] == want

    def test_transfer_drain_long_spills_bit_identical(self):
        # Big transfers spill across many intervals: past the forward
        # walk's budget onto the scalar walk.
        lanes = lane_traces(24, seed=13)
        batch = TraceBatch(lanes)
        rng = np.random.default_rng(2)
        starts = rng.uniform(0.0, 150.0, 24)
        sizes = 10 ** rng.uniform(6.0, 7.6, 24)
        got = batch.transfer_drain(
            starts, sizes, np.arange(24), batch.interval_indices(starts)
        )
        for k in range(24):
            want = lanes[k].time_to_transfer(float(starts[k]), float(sizes[k]))
            assert got[k] == want

    def test_zero_trailing_bandwidth_raises(self):
        vals = [2.0, 1.0, 0.0]
        dead = PiecewiseConstantTrace.from_uniform(vals, 5.0)
        batch = TraceBatch([dead, dead])
        starts = np.array([0.0, 0.0])
        with pytest.raises(RuntimeError, match="trailing bandwidth"):
            batch.transfer_drain(
                starts, np.array([1e9, 1e9]), np.arange(2),
                batch.interval_indices(starts),
            )


def assert_logs_identical(serial, lane):
    assert serial.abr_name == lane.abr_name
    assert serial.buffer_capacity_s == lane.buffer_capacity_s
    assert serial.chunk_duration_s == lane.chunk_duration_s
    assert serial.rtt_s == lane.rtt_s
    assert serial.startup_time_s == lane.startup_time_s
    assert serial.total_rebuffer_s == lane.total_rebuffer_s
    assert serial.records == lane.records  # frozen dataclasses: exact floats


class TestBatchSessionParity:
    @pytest.mark.parametrize("abr_factory", [BBAAlgorithm, BOLAAlgorithm])
    def test_vectorised_abrs_bit_identical(self, video, abr_factory):
        traces = lane_traces(6, seed=1)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(video, abr_factory, traces, config).run()
        assert batch_log.n_lanes == 6
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, abr_factory(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_mpc_vectorised_bit_identical(self, video):
        """MPC's history-driven vectorised decider matches serial replay."""
        traces = lane_traces(4, seed=2)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(video, MPCAlgorithm, traces, config).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, MPCAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_mpc_non_robust_bit_identical(self, video):
        """The plain-harmonic-mean branch (robust=False) must also match
        serial replay bitwise — its window sum uses a different reduction
        than the robust predictor's sequential accumulation."""
        factory = lambda: MPCAlgorithm(robust=False)  # noqa: E731
        traces = lane_traces(5, seed=7)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(video, factory, traces, config).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, factory(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_history_fallback_abr_bit_identical(self, video):
        """An ABR without choose_quality_batch that reads throughput history
        exercises the per-lane fallback contexts (and their history
        feeding) now that MPC decides vectorised."""
        from repro.abr import RateBasedAlgorithm

        traces = lane_traces(4, seed=3)
        config = SessionConfig(buffer_capacity_s=6.0)
        batch_log = BatchStreamingSession(
            video, RateBasedAlgorithm, traces, config
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(
                video, RateBasedAlgorithm(), trace, config
            ).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_k1_batch_bit_identical(self, video):
        traces = lane_traces(1, seed=4)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(video, BBAAlgorithm, traces, config).run()
        serial = StreamingSession(video, BBAAlgorithm(), traces[0], config).run()
        assert batch_log.n_lanes == 1
        assert_logs_identical(serial, batch_log.lane(0))

    def test_request_overhead_bit_identical(self, video):
        traces = lane_traces(3, seed=6)
        config = SessionConfig(buffer_capacity_s=5.0, request_overhead_s=0.05)
        batch_log = BatchStreamingSession(video, BOLAAlgorithm, traces, config).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, BOLAAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_multi_setting_batch_bit_identical(self, video):
        """One lockstep loop over partitions with different ABRs/buffers."""
        traces = lane_traces(9, seed=8)
        groups = [
            LaneGroup(BBAAlgorithm, SessionConfig(buffer_capacity_s=5.0), traces[:3]),
            LaneGroup(BOLAAlgorithm, SessionConfig(buffer_capacity_s=12.0), traces[3:6]),
            LaneGroup(MPCAlgorithm, SessionConfig(buffer_capacity_s=5.0), traces[6:]),
        ]
        batch_log = BatchStreamingSession.fused(video, groups).run()
        factories = [BBAAlgorithm] * 3 + [BOLAAlgorithm] * 3 + [MPCAlgorithm] * 3
        capacities = [5.0] * 3 + [12.0] * 3 + [5.0] * 3
        for k, trace in enumerate(traces):
            serial = StreamingSession(
                video,
                factories[k](),
                trace,
                SessionConfig(buffer_capacity_s=capacities[k]),
            ).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_rejects_mixed_rtt(self, video):
        traces = lane_traces(2, seed=8)
        groups = [
            LaneGroup(BBAAlgorithm, SessionConfig(rtt_s=0.08), traces[:1]),
            LaneGroup(BBAAlgorithm, SessionConfig(rtt_s=0.12), traces[1:]),
        ]
        with pytest.raises(ValueError, match="share rtt_s"):
            BatchStreamingSession.fused(video, groups)

    def test_overridden_scalar_decision_bypasses_inherited_batch(self, video):
        """A subclass overriding choose_quality but inheriting
        choose_quality_batch must take the scalar fallback, not the stale
        vectorised path — parity with serial replay is the contract."""

        class PinnedBBA(BBAAlgorithm):
            name = "pinned-bba"

            def choose_quality(self, context):
                return min(1, context.video.n_qualities - 1)

        traces = lane_traces(3, seed=12)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(video, PinnedBBA, traces, config).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, PinnedBBA(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))
        assert set(batch_log.qualities.ravel().tolist()) == {1}

    def test_observe_download_abrs_are_rejected(self, video):
        class FeedbackABR(BBAAlgorithm):
            def observe_download(self, record):  # pragma: no cover - marker
                pass

        assert not abr_supports_batch_replay(FeedbackABR())
        assert abr_supports_batch_replay(MPCAlgorithm())
        with pytest.raises(ValueError, match="observe_download"):
            BatchStreamingSession(
                video, FeedbackABR, lane_traces(2), SessionConfig()
            ).run()


class TestBatchMetrics:
    def test_metrics_match_per_lane_without_records(self, video, monkeypatch):
        traces = lane_traces(5, seed=10)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(video, BBAAlgorithm, traces, config).run()
        expected = [compute_metrics(batch_log.lane(k)) for k in range(5)]

        calls = {"n": 0}
        real = logs_module.ChunkRecord

        class CountingRecord(real):
            def __init__(self, *args, **kwargs):  # pragma: no cover - guard
                calls["n"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(logs_module, "ChunkRecord", CountingRecord)
        got = compute_metrics_batch(batch_log)
        assert calls["n"] == 0  # metric-only path materializes no records
        assert got == expected


class TestEnginePaths:
    @pytest.fixture(scope="class")
    def corpus(self):
        return paper_corpus(count=2, duration_s=240.0, seed=5)

    @pytest.fixture(scope="class")
    def setting_a(self):
        return fast_setting_a(duration_s=120.0, seed=7)

    def test_evaluate_many_batch_matches_serial(self, corpus, setting_a):
        settings_b = [
            change_abr(setting_a, "bba"),
            change_abr(setting_a, "bola"),
            change_buffer(setting_a, 15.0),
            change_abr(setting_a, "mpc"),  # history-driven vectorised partition
        ]
        batch_engine = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=0
        )
        serial_engine = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=0, use_batch=False
        )
        prepared = batch_engine.prepare_corpus(corpus, setting_a)
        batch_results = batch_engine.evaluate_many(prepared, settings_b)
        serial_results = serial_engine.evaluate_many(prepared, settings_b)
        for rb, rs in zip(batch_results, serial_results):
            for tb, ts in zip(rb.per_trace, rs.per_trace):
                assert tb.truth_metrics == ts.truth_metrics
                assert tb.baseline_metrics == ts.baseline_metrics
                assert tb.veritas_metrics == ts.veritas_metrics

    def test_evaluate_trace_batch_matches_serial(self, corpus, setting_a):
        setting_b = change_abr(setting_a, "bba")
        batch_engine = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=0
        )
        serial_engine = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=0, use_batch=False
        )
        got = batch_engine.evaluate_trace(0, corpus[0], setting_a, setting_b, seed=1)
        want = serial_engine.evaluate_trace(0, corpus[0], setting_a, setting_b, seed=1)
        assert got.truth_metrics == want.truth_metrics
        assert got.baseline_metrics == want.baseline_metrics
        assert got.veritas_metrics == want.veritas_metrics

    def test_run_setting_batch_matches_run_setting(self, corpus, setting_a):
        setting_b = change_abr(setting_a, "bola")
        horizon = max(corpus[0].end_time, 3.0 * setting_b.video.duration_s)
        lanes = [t.extended(horizon) for t in corpus]
        assert len({boundary_key(t) for t in lanes}) == 1
        batch_log = run_setting_batch(setting_b, lanes)
        for k, lane in enumerate(lanes):
            assert_logs_identical(
                run_setting(setting_b, lane), batch_log.lane(k)
            )


class TestKernelTierRegistry:
    """Construction-time validation of ``kernel=`` names (PR 6)."""

    def test_known_tiers(self):
        from repro.core.abduction import ABDUCTION_TIERS
        from repro.tcp.connection import DEFAULT_KERNEL, KERNEL_TIERS

        assert KERNEL_TIERS == ("reference", "numpy", "compiled")
        assert KERNEL_TIERS == ABDUCTION_TIERS  # one tier vocabulary
        assert DEFAULT_KERNEL == "compiled"

    def test_batch_connection_rejects_unknown_kernel(self):
        from repro.tcp.connection import BatchTCPConnection

        batch = TraceBatch(lane_traces(2))
        with pytest.raises(ValueError, match="available tiers"):
            BatchTCPConnection(batch, kernel="warp-drive")

    def test_batch_session_rejects_unknown_kernel(self, video):
        with pytest.raises(ValueError, match="available tiers"):
            BatchStreamingSession(
                video, BBAAlgorithm, lane_traces(2), SessionConfig(),
                kernel="warp-drive",
            )

    def test_engine_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="available tiers"):
            CounterfactualEngine(
                paper_veritas_config(), n_samples=2, seed=0, kernel="warp-drive"
            )

    def test_every_tier_constructs(self):
        from repro.tcp.connection import KERNEL_TIERS, BatchTCPConnection

        batch = TraceBatch(lane_traces(2))
        for tier in KERNEL_TIERS:
            conn = BatchTCPConnection(batch, kernel=tier)
            assert conn.kernel == tier
            # "compiled" may legitimately degrade to "numpy"; everything
            # else serves exactly the requested tier.
            if tier == "compiled":
                assert conn._tier in ("compiled", "numpy")
            else:
                assert conn._tier == tier


REPLAY_TIERS = ("reference", "numpy", "compiled")


class TestKernelTierParity:
    """Threshold-boundary parity across every replay kernel tier (PR 6).

    Lane counts 1/7/8 and downloads taking 3/11/12/13 reference rounds sit
    on the seams of earlier small-batch cutoffs; every case must stay
    bit-identical on every tier.
    """

    @pytest.mark.parametrize("n_lanes", [1, 7, 8])
    @pytest.mark.parametrize("tier", REPLAY_TIERS)
    def test_lane_count_boundaries(self, video, n_lanes, tier):
        traces = lane_traces(n_lanes, seed=31)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(
            video, BBAAlgorithm, traces, config, kernel=tier
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, BBAAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    @staticmethod
    def _size_for_rounds(n_rounds: int) -> float:
        """A chunk size whose reference loop runs exactly ``n_rounds``
        window-limited rounds (exiting via data exhaustion) from a fresh
        connection's (cwnd=10, default-ssthresh) schedule."""
        from repro.tcp.connection import _grow_window
        from repro.tcp.constants import INITIAL_SSTHRESH_SEGMENTS, MSS_BYTES

        cwnd, sent = 10, 0
        for _ in range(n_rounds - 1):
            sent += cwnd
            cwnd = _grow_window(cwnd, INITIAL_SSTHRESH_SEGMENTS)
        return (sent + cwnd) * MSS_BYTES - 750.0

    @pytest.mark.parametrize("tier", REPLAY_TIERS)
    def test_round_count_boundaries(self, tier):
        """Downloads engineered to take 3/11/12/13 reference rounds — all
        bit-identical."""
        from repro.tcp.connection import BatchTCPConnection, TCPConnection

        targets = [3, 11, 12, 13]
        # 400 Mbps: the BDP (4 MB) exceeds cwnd*MSS through round 13, so
        # the loop below never exits pipe-full before its target round.
        trace = PiecewiseConstantTrace.from_uniform([400.0] * 4, 50.0)
        sizes = np.array([self._size_for_rounds(r) for r in targets])
        starts = np.zeros(len(targets))

        refs = [TCPConnection(trace) for _ in targets]
        want_results = [
            ref.download(float(sizes[k]), 0.0) for k, ref in enumerate(refs)
        ]
        for k, (target, want) in enumerate(zip(targets, want_results)):
            assert want.rounds == target  # the sizes hit their targets

        conn = BatchTCPConnection(TraceBatch([trace] * len(targets)), kernel=tier)
        got = conn.download_batch(sizes, starts)
        for k, want in enumerate(want_results):
            assert got.end_times_s[k] == want.end_time_s
            assert conn._cwnd[k] == refs[k].state.cwnd_segments
            assert conn._ssthresh[k] == refs[k].state.ssthresh_segments

    @pytest.mark.parametrize("tier", REPLAY_TIERS)
    def test_zero_capacity_interval_downloads(self, tier):
        """Transfers that must wait out mid-trace zero-capacity intervals
        agree with the scalar kernel on every tier."""
        from repro.tcp.connection import BatchTCPConnection, TCPConnection

        vals = [4.0, 0.0, 0.0, 2.0, 6.0]
        trace = PiecewiseConstantTrace.from_uniform(vals, 5.0)
        n = 6
        rng = np.random.default_rng(17)
        conn = BatchTCPConnection(TraceBatch([trace] * n), kernel=tier)
        serial = [TCPConnection(trace) for _ in range(n)]
        starts = np.zeros(n)
        for _ in range(4):
            sizes = 10 ** rng.uniform(4.5, 6.5, n)
            got = conn.download_batch(sizes, starts)
            for k in range(n):
                want = serial[k].download(float(sizes[k]), float(starts[k]))
                assert got.end_times_s[k] == want.end_time_s
                assert conn._cwnd[k] == serial[k].state.cwnd_segments
            starts = got.end_times_s + rng.uniform(0.0, 0.4, n)

    @pytest.mark.parametrize("abr_factory", [BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm])
    @pytest.mark.parametrize("tier", REPLAY_TIERS)
    def test_every_abr_on_every_tier(self, video, abr_factory, tier):
        traces = lane_traces(5, seed=33)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            video, abr_factory, traces, config, kernel=tier
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, abr_factory(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))
