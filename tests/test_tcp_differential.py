"""Randomised differential test: every batch replay tier vs scalar TCP.

``TCPConnection`` runs the per-RTT golden loop; ``BatchTCPConnection``
advances K lanes in lockstep on the ``reference``, ``numpy`` or
``compiled`` tier.  Hypothesis draws shared-grid piecewise traces
(zero-bandwidth runs, positive trailing bandwidth, grids starting before or
after the first request), RTTs from 1 ms to 1 s, chunk sizes from 1 byte
to ~50 MB and idle gaps long enough to trigger slow-start restart, then
replays the same chunk sequence on K independent scalar connections and
on one batch connection per tier.  ``reference`` and ``numpy`` must match
bit for bit, ``compiled`` within ``rtol=1e-12``.

Short trace intervals against long RTTs make the numpy tier's
interval-crossing fallback (``_skip_rounds_scratch`` handing a lane to the
scalar loop) common; :func:`test_crossing_fallback_is_exercised` pins one
such case explicitly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.tcp.connection as connection_module
from repro.net.trace import PiecewiseConstantTrace, TraceBatch
from repro.tcp.connection import KERNEL_TIERS, BatchTCPConnection, TCPConnection

# Bandwidth per interval: a third of draws are zero-capacity runs.
_MBPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.05, max_value=200.0),
    st.floats(min_value=0.05, max_value=5.0),
)


@st.composite
def replay_cases(draw):
    # Fine grids (intervals shorter than most RTT windows) push the numpy
    # tier's window-limited phase across interval boundaries.
    fine = draw(st.booleans())
    n_intervals = draw(st.integers(min_value=1, max_value=40 if fine else 10))
    widths = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.3)
            if fine
            else st.floats(min_value=0.3, max_value=20.0),
            min_size=n_intervals,
            max_size=n_intervals,
        )
    )
    origin = draw(st.floats(min_value=-2.0, max_value=1.0))
    bounds = origin + np.concatenate([[0.0], np.cumsum(widths)])
    n_lanes = draw(st.integers(min_value=1, max_value=4))
    traces = []
    for _ in range(n_lanes):
        vals = draw(st.lists(_MBPS, min_size=n_intervals, max_size=n_intervals))
        # A trailing zero would stall a transfer forever; interior zero
        # runs stay in play.
        vals[-1] = draw(st.floats(min_value=0.05, max_value=200.0))
        traces.append(PiecewiseConstantTrace(bounds, vals))
    rtt = draw(st.floats(min_value=0.001, max_value=1.0))
    n_chunks = draw(st.integers(min_value=1, max_value=5))
    # 1 B .. ~50 MB, log-uniform.
    sizes = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=7.7).map(lambda e: 10.0**e),
            min_size=n_chunks * n_lanes,
            max_size=n_chunks * n_lanes,
        )
    )
    # Idle gaps before each request: back-to-back, short, or past the RTO
    # (>= 200 ms) so the window restarts.
    gaps = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=0.3),
                st.floats(min_value=0.5, max_value=30.0),
            ),
            min_size=n_chunks * n_lanes,
            max_size=n_chunks * n_lanes,
        )
    )
    shape = (n_chunks, n_lanes)
    return traces, rtt, np.reshape(sizes, shape), np.reshape(gaps, shape)


def assert_tiers_match_scalar(traces, rtt, sizes, gaps, tiers=KERNEL_TIERS):
    """Replay ``sizes`` chunk by chunk on K scalar connections and on one
    batch connection per tier; every lane must agree with its scalar twin."""
    n_chunks, n_lanes = sizes.shape
    serial = [TCPConnection(tr, rtt_s=rtt) for tr in traces]
    want_ends = np.empty((n_chunks, n_lanes))
    want_results = []
    last = np.zeros(n_lanes)
    for c in range(n_chunks):
        row = []
        for k, conn in enumerate(serial):
            res = conn.download(float(sizes[c, k]), float(last[k] + gaps[c, k]))
            row.append((res, conn.state.cwnd_segments, conn.state.ssthresh_segments))
            want_ends[c, k] = res.end_time_s
        want_results.append(row)
        last = want_ends[c]

    for tier in tiers:
        conn = BatchTCPConnection(TraceBatch(traces), rtt_s=rtt, kernel=tier)
        last = np.zeros(n_lanes)
        for c in range(n_chunks):
            got = conn.download_batch(sizes[c], last + gaps[c])
            ends = np.array(got.end_times_s, copy=True)
            if tier == "compiled":
                np.testing.assert_allclose(ends, want_ends[c], rtol=1e-12, atol=0)
            else:
                assert ends.tolist() == want_ends[c].tolist(), tier
            for k, (res, cwnd, ssthresh) in enumerate(want_results[c]):
                snap = res.tcp_state_at_start
                assert got.cwnd_segments[k] == snap.cwnd_segments, tier
                assert got.ssthresh_segments[k] == snap.ssthresh_segments, tier
                assert got.srtt_s == snap.srtt_s and got.rto_s == snap.rto_s
                assert conn._cwnd[k] == cwnd, tier
                assert conn._ssthresh[k] == ssthresh, tier
                if tier != "compiled":
                    assert (
                        got.time_since_last_send_s[k]
                        == snap.time_since_last_send_s
                    ), tier
            last = ends


# The size extremes: a 1-byte request and ~50 MB transfers that drain past
# the trace end, on lanes starting inside zero-capacity intervals.
_EXTREMES = (
    [
        PiecewiseConstantTrace([0.0, 1.0, 3.0, 4.0], [4.0, 0.0, 2.0]),
        PiecewiseConstantTrace([0.0, 1.0, 3.0, 4.0], [0.0, 90.0, 50.0]),
    ],
    0.05,
    np.array([[1.0, 5e7], [5e7, 1.0]]),
    np.array([[0.0, 0.5], [3.0, 0.0]]),
)


# Exact ties: fresh windows of 10 and then 10 + 15 segments carry exactly
# the chunk, so "the window covers the rest" holds with equality.
_TIES = (
    [PiecewiseConstantTrace([0.0, 100.0], [50.0])] * 2,
    0.05,
    np.array([[15_000.0, 37_500.0]]),
    np.zeros((1, 2)),
)


@given(case=replay_cases())
@example(case=_EXTREMES)
@example(case=_TIES)
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_batch_tiers_match_scalar_connections(case):
    assert_tiers_match_scalar(*case)


def test_crossing_fallback_is_exercised(monkeypatch):
    """A window-limited phase that crosses 50 ms intervals on a 300 ms RTT:
    the numpy tier must hand those lanes to the scalar per-RTT loop and
    still match the scalar connections bit for bit."""
    rng = np.random.default_rng(5)
    bounds = np.concatenate([[0.0], np.cumsum(np.full(200, 0.05))])
    traces = [
        PiecewiseConstantTrace(bounds, rng.uniform(20.0, 80.0, 200))
        for _ in range(3)
    ]
    sizes = np.full((3, 3), 2e6)
    gaps = np.array([[0.0] * 3, [0.0] * 3, [2.0] * 3])

    calls = []
    golden = connection_module._reference_download

    def spy(*args):
        calls.append(args)
        return golden(*args)

    monkeypatch.setattr(connection_module, "_reference_download", spy)
    conn = BatchTCPConnection(TraceBatch(traces), rtt_s=0.3, kernel="numpy")
    conn.download_batch(sizes[0], np.zeros(3))
    assert len(calls) == 3, "every lane should take the crossing fallback"
    monkeypatch.undo()
    assert_tiers_match_scalar(traces, 0.3, sizes, gaps)
