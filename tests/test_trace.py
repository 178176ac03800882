"""Unit and property tests for PiecewiseConstantTrace."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import PiecewiseConstantTrace
from repro.util import transfer_bytes


@pytest.fixture
def simple_trace():
    return PiecewiseConstantTrace.from_uniform([5.0, 1.0, 10.0], 5.0)


class TestConstruction:
    def test_from_uniform_bounds(self, simple_trace):
        assert simple_trace.start_time == 0.0
        assert simple_trace.end_time == 15.0
        assert len(simple_trace) == 3

    def test_constant(self):
        tr = PiecewiseConstantTrace.constant(4.0, 60.0)
        assert tr.value_at(30.0) == 4.0
        assert tr.duration == 60.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PiecewiseConstantTrace([0, 1, 2], [1.0])

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            PiecewiseConstantTrace([0, 2, 1], [1.0, 2.0])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            PiecewiseConstantTrace([0, 1], [-1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PiecewiseConstantTrace([0], [])

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PiecewiseConstantTrace.from_uniform([1.0], 0.0)


class TestQueries:
    def test_value_at_interior(self, simple_trace):
        assert simple_trace.value_at(2.0) == 5.0
        assert simple_trace.value_at(7.0) == 1.0
        assert simple_trace.value_at(12.0) == 10.0

    def test_value_at_boundaries(self, simple_trace):
        # Left-closed intervals: value at t_i belongs to interval i.
        assert simple_trace.value_at(5.0) == 1.0
        assert simple_trace.value_at(10.0) == 10.0

    def test_value_clamps_outside(self, simple_trace):
        assert simple_trace.value_at(-3.0) == 5.0
        assert simple_trace.value_at(100.0) == 10.0

    def test_values_at_vectorised(self, simple_trace):
        vals = simple_trace.values_at([2.0, 7.0, 12.0])
        assert list(vals) == [5.0, 1.0, 10.0]

    def test_mean_is_time_weighted(self, simple_trace):
        assert simple_trace.mean() == pytest.approx((5 + 1 + 10) / 3)

    def test_average_sub_interval(self, simple_trace):
        # [4, 6]: one second at 5, one second at 1 -> 3 Mbps average.
        assert simple_trace.average(4.0, 6.0) == pytest.approx(3.0)

    def test_average_degenerate_interval(self, simple_trace):
        assert simple_trace.average(2.0, 2.0) == 5.0

    def test_integrate_bytes_one_interval(self, simple_trace):
        expected = transfer_bytes(5.0, 2.0)
        assert simple_trace.integrate_bytes(1.0, 3.0) == pytest.approx(expected)

    def test_integrate_bytes_across_intervals(self, simple_trace):
        expected = transfer_bytes(5.0, 5.0) + transfer_bytes(1.0, 5.0)
        assert simple_trace.integrate_bytes(0.0, 10.0) == pytest.approx(expected)

    def test_integrate_beyond_end_holds_last(self, simple_trace):
        expected = transfer_bytes(10.0, 5.0)
        assert simple_trace.integrate_bytes(15.0, 20.0) == pytest.approx(expected)

    def test_integrate_rejects_reversed(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.integrate_bytes(5.0, 1.0)


def random_trace(rng: np.random.Generator) -> PiecewiseConstantTrace:
    """A random piecewise trace with zero-bandwidth intervals, starting at
    -2 s so queries land before, inside and after its span."""
    k = int(rng.integers(1, 14))
    bounds = np.cumsum(rng.uniform(0.05, 8.0, k + 1)) - 2.0
    vals = rng.uniform(0.0, 10.0, k)
    vals[rng.random(k) < 0.3] = 0.0
    if vals[-1] == 0.0 and rng.random() < 0.7:
        vals[-1] = float(rng.uniform(0.5, 5.0))
    return PiecewiseConstantTrace(bounds, vals)


class TestTimeToTransfer:
    def test_zero_bytes(self, simple_trace):
        assert simple_trace.time_to_transfer(0.0, 0.0) == 0.0
        assert simple_trace.time_to_transfer(7.5, 0.0) == 0.0

    def test_within_first_interval(self, simple_trace):
        size = transfer_bytes(5.0, 2.0)
        assert simple_trace.time_to_transfer(0.0, size) == pytest.approx(2.0)
        # Starting mid-interval and finishing well inside it.
        tr = PiecewiseConstantTrace([0.0, 5.0, 10.0], [8.0, 2.0])
        assert tr.time_to_transfer(1.0, 1e5) == pytest.approx(1e5 / 1e6)

    def test_spans_intervals(self, simple_trace):
        size = transfer_bytes(5.0, 5.0) + transfer_bytes(1.0, 2.5)
        assert simple_trace.time_to_transfer(0.0, size) == pytest.approx(7.5)

    def test_start_past_end(self, simple_trace):
        size = transfer_bytes(10.0, 1.0)
        assert simple_trace.time_to_transfer(20.0, size) == pytest.approx(1.0)
        # Exactly at end_time the final value already holds.
        assert simple_trace.time_to_transfer(15.0, size) == pytest.approx(1.0)

    def test_hold_before_start(self):
        tr = PiecewiseConstantTrace([2.0, 5.0], [4.0])
        # The first value (0.5 MB/s) holds before the trace begins.
        assert tr.time_to_transfer(0.0, 1e6) == pytest.approx(2.0)
        assert tr.time_to_transfer(0.0, 1.5e6) == pytest.approx(3.0)
        # A zero first value holds too: wait for the trace to resume.
        gap = PiecewiseConstantTrace([2.0, 4.0, 6.0], [0.0, 4.0])
        assert gap.time_to_transfer(0.0, 1e6) == pytest.approx(6.0)

    def test_zero_interval_is_skipped(self):
        tr = PiecewiseConstantTrace.from_uniform([5.0, 0.0, 5.0], 1.0)
        size = transfer_bytes(5.0, 1.5)
        # 1 s at 5, 1 s stalled at 0, 0.5 s at 5.
        assert tr.time_to_transfer(0.0, size) == pytest.approx(2.5)
        # Starting inside the zero interval waits for it to end.
        assert tr.time_to_transfer(1.5, size / 3) == pytest.approx(0.5 + 0.5)

    def test_trailing_zero_raises(self):
        tr = PiecewiseConstantTrace.from_uniform([5.0, 0.0], 1.0)
        with pytest.raises(RuntimeError):
            tr.time_to_transfer(0.0, transfer_bytes(5.0, 10.0))
        with pytest.raises(RuntimeError):
            PiecewiseConstantTrace([0.0, 2.0], [0.0]).time_to_transfer(0.0, 1e5)

    def test_rejects_negative_size(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.time_to_transfer(0.0, -1.0)

    def test_randomized_round_trip(self):
        """Random traces with zero-bandwidth intervals, starts before, inside
        and after the span: a transfer finishes exactly when the integral
        reaches its size, and stalls only when the trailing bandwidth is
        zero and the rest of the trace cannot carry it."""
        rng = np.random.default_rng(7)
        stalled = finished = 0
        for _ in range(1500):
            tr = random_trace(rng)
            start = float(rng.uniform(tr.start_time - 5, tr.end_time + 5))
            size = float(10 ** rng.uniform(-2, 7))
            try:
                dt = tr.time_to_transfer(start, size)
            except RuntimeError:
                stalled += 1
                assert tr.values[-1] == 0.0
                end = max(start, tr.end_time)
                assert tr.integrate_bytes(start, end) < size
                continue
            finished += 1
            assert dt >= 0.0
            moved = tr.integrate_bytes(start, start + dt)
            assert moved == pytest.approx(size, rel=1e-9, abs=1e-6)
        assert stalled and finished

    def test_inverse_of_integrate(self, simple_trace):
        for start in [0.0, 2.5, 6.0, 11.0]:
            for dt in [0.5, 3.0, 8.0, 20.0]:
                size = simple_trace.integrate_bytes(start, start + dt)
                got = simple_trace.time_to_transfer(start, size)
                assert got == pytest.approx(dt, abs=1e-6)


class TestTransformations:
    def test_quantized(self, simple_trace):
        tr = PiecewiseConstantTrace.from_uniform([1.2, 1.4], 1.0).quantized(0.5)
        assert list(tr.values) == [1.0, 1.5]

    def test_quantized_rejects_bad_epsilon(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.quantized(0.0)

    def test_resampled_preserves_mean(self, simple_trace):
        fine = simple_trace.resampled(1.0)
        assert fine.mean() == pytest.approx(simple_trace.mean())
        assert len(fine) == 15

    def test_extended_holds_last(self, simple_trace):
        ext = simple_trace.extended(30.0)
        assert ext.value_at(29.0) == 10.0
        assert ext.end_time == 30.0

    def test_extended_noop_if_shorter(self, simple_trace):
        assert simple_trace.extended(10.0) is simple_trace

    def test_shifted(self, simple_trace):
        sh = simple_trace.shifted(100.0)
        assert sh.value_at(102.0) == 5.0
        assert sh.start_time == 100.0

    def test_clipped(self, simple_trace):
        cl = simple_trace.clipped(2.0, 6.0)
        assert list(cl.values) == [5.0, 2.0, 6.0]

    def test_clipped_rejects_inverted(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.clipped(5.0, 1.0)

    def test_mae_zero_for_identical(self, simple_trace):
        assert simple_trace.mean_absolute_error(simple_trace) == 0.0


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

trace_values = st.lists(
    st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20
)


@given(values=trace_values, interval=st.floats(min_value=0.1, max_value=10.0))
def test_mean_within_bounds(values, interval):
    tr = PiecewiseConstantTrace.from_uniform(values, interval)
    assert min(values) - 1e-9 <= tr.mean() <= max(values) + 1e-9


@given(
    values=trace_values,
    start=st.floats(min_value=0.0, max_value=50.0),
    dt=st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=60)
def test_transfer_round_trip_property(values, start, dt):
    tr = PiecewiseConstantTrace.from_uniform(values, 1.0)
    size = tr.integrate_bytes(start, start + dt)
    assert tr.time_to_transfer(start, size) == pytest.approx(dt, abs=1e-6)


@given(values=trace_values)
def test_quantization_error_bounded(values):
    tr = PiecewiseConstantTrace.from_uniform(values, 1.0)
    q = tr.quantized(0.5)
    assert np.all(np.abs(q.values - tr.values) <= 0.25 + 1e-12)


@given(
    values=trace_values,
    t0=st.floats(min_value=-5.0, max_value=30.0),
    t1=st.floats(min_value=-5.0, max_value=30.0),
)
def test_integrate_is_additive(values, t0, t1):
    if t1 < t0:
        t0, t1 = t1, t0
    tr = PiecewiseConstantTrace.from_uniform(values, 1.0)
    mid = (t0 + t1) / 2
    whole = tr.integrate_bytes(t0, t1)
    parts = tr.integrate_bytes(t0, mid) + tr.integrate_bytes(mid, t1)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-6)
