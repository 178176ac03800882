"""Allocation and dispatch budgets of the replay kernel tiers (PR 6, PR 8).

``kernel="numpy"`` promises an **allocation-free steady state**: once a
``BatchTCPConnection`` has warmed up, a pipe-full chunk download (every
lane finishing inside its current trace interval — the overwhelmingly
common case once windows have opened) runs entirely through ``out=``
ufuncs on preallocated per-batch buffers.  This suite pins that budget
with ``tracemalloc`` so a stray temporary (an allocating ufunc, a
buffered ``take``, a mixed-dtype cast) fails loudly instead of silently
regressing the hot loop.

Detection works by scale separation: with ``K`` lanes, any per-call lane
array costs at least ``K`` bytes (bool) and typically ``8 * K`` (float64
/ int64), while the per-call Python-object noise (result handling, a few
boxed floats in ``observe_rtt``) stays under ~1 KiB regardless of ``K``.
At ``K = 4096`` the assertion threshold of ``K`` bytes sits far above
the noise and far below the smallest possible lane array.

``kernel="compiled"`` (the fused session kernel) makes a stronger
promise: the entire session — every chunk's download, ABR decision and
buffer/stall accounting — runs inside **one** compiled call,
eliminating per-chunk Python re-entry.
The dispatch-count test below pins that to exactly one
``_fused.run_session`` invocation per session, with zero per-chunk
``download_batch`` dispatches.

The compiled abduction tier (PR 9) makes the analogous promise for
inference: one :mod:`repro.core._kernels` entry per same-length session
stack for each of emission build, forward–backward, Viterbi and FFBS —
no per-chunk, per-session or per-sample Python re-entry inside a stack.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.net.trace import PiecewiseConstantTrace, TraceBatch
from repro.tcp.connection import BatchTCPConnection

K = 4096
WARMUP_CALLS = 10
STEADY_CALLS = 25


def steady_state_connection():
    """A warmed-up numpy-tier connection in the pipe-full regime.

    One long interval at 1.0 Mbps keeps the BDP (10 kB) below even the
    initial congestion window (15 kB), so every lane is pipe-full from
    round 0 and every download takes the hot fluid path; back-to-back
    requests (idle == 0) keep slow-start restart inert.
    """
    trace = PiecewiseConstantTrace([0.0, 1e9], [1.0])
    conn = BatchTCPConnection(TraceBatch([trace] * K), kernel="numpy")
    assert conn._tier == "numpy"
    rng = np.random.default_rng(0)
    sizes = rng.uniform(2e4, 6e4, K)
    starts = np.zeros(K)
    for _ in range(WARMUP_CALLS):
        result = conn.download_batch(sizes, starts)
        np.copyto(starts, result.end_times_s)
    return conn, sizes, starts


class TestScratchAllocationBudget:
    def test_steady_state_allocates_no_arrays(self):
        conn, sizes, starts = steady_state_connection()
        gc.collect()
        tracemalloc.start()
        try:
            # One more warm call inside tracing so lazily-created
            # Python-level caches (bound methods, interned scalars) exist
            # before the measured window opens.
            result = conn.download_batch(sizes, starts)
            np.copyto(starts, result.end_times_s)
            gc.collect()
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(STEADY_CALLS):
                result = conn.download_batch(sizes, starts)
                np.copyto(starts, result.end_times_s)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The high-water mark catches transient temporaries (allocated
        # and freed within a call); the current figure catches leaks.
        # Either way a single K-lane array (>= K bytes for bool,
        # 8 * K for float64) blows the budget.
        assert peak - base < K, (
            f"steady-state download_batch transiently allocated "
            f"{peak - base} bytes (budget: {K}); an array temporary has "
            f"crept into the scratch kernel's hot path"
        )
        assert current - base < K, (
            f"steady-state download_batch leaked {current - base} bytes "
            f"across {STEADY_CALLS} calls"
        )

    def test_steady_state_result_reuses_buffers(self):
        """The mutable result must alias the connection's own buffers —
        holding a reference across calls sees the next chunk's values."""
        conn, sizes, starts = steady_state_connection()
        first = conn.download_batch(sizes, starts)
        ends_buffer = first.end_times_s
        np.copyto(starts, first.end_times_s)
        second = conn.download_batch(sizes, starts)
        assert second is first  # one reusable result object
        assert second.end_times_s is ends_buffer  # same storage, new values


class TestFusedDispatchBudget:
    """``kernel="compiled"``: one fused-kernel call per session, no
    per-chunk Python re-entry."""

    def test_single_kernel_call_per_session(self, monkeypatch):
        from repro import BatchStreamingSession, SessionConfig, Video, default_ladder
        from repro.abr import BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm
        from repro.player import _fused
        from repro.player.batch_session import LaneGroup

        video = Video.generate(default_ladder(), duration_s=60.0, seed=7)
        rng = np.random.default_rng(3)
        traces = [
            PiecewiseConstantTrace.from_uniform(rng.uniform(0.3, 8.0, 40), 5.0)
            for _ in range(6)
        ]
        groups = [
            LaneGroup(BBAAlgorithm, SessionConfig(buffer_capacity_s=15.0), traces[:2]),
            LaneGroup(BOLAAlgorithm, SessionConfig(buffer_capacity_s=8.0), traces[2:4]),
            LaneGroup(MPCAlgorithm, SessionConfig(buffer_capacity_s=15.0), traces[4:]),
        ]

        kernel_calls = {"n": 0}
        real_run_session = _fused.run_session

        def counting_run_session(*args, **kwargs):
            kernel_calls["n"] += 1
            return real_run_session(*args, **kwargs)

        monkeypatch.setattr(_fused, "run_session", counting_run_session)

        chunk_dispatches = {"n": 0}
        real_download_batch = BatchTCPConnection.download_batch

        def counting_download_batch(self, *args, **kwargs):
            chunk_dispatches["n"] += 1
            return real_download_batch(self, *args, **kwargs)

        monkeypatch.setattr(
            BatchTCPConnection, "download_batch", counting_download_batch
        )

        log = BatchStreamingSession.fused(video, groups, kernel="compiled").run()
        assert log.n_chunks == video.n_chunks  # the session actually ran
        assert kernel_calls["n"] == 1, (
            f"fused session entered the kernel {kernel_calls['n']} times; "
            f"the whole chunk->decision->chunk loop must be one call"
        )
        assert chunk_dispatches["n"] == 0, (
            f"fused session made {chunk_dispatches['n']} per-chunk "
            f"download_batch dispatches; Python re-entry has crept back in"
        )


class TestAbductionDispatchBudget:
    """Compiled abduction tier (PR 9): one kernel entry per same-length
    session stack — emission once per corpus, forward–backward / Viterbi /
    FFBS once per stack, regardless of chunk, session or sample counts.

    Runs on the Python mirror (``FORCE_PYTHON``) so the dispatch counts
    are pinned on every CI leg, compiled backend or not — the routing
    layer is identical either way.
    """

    @staticmethod
    def _session_logs(seeds, duration_s):
        from repro import (
            MPCAlgorithm,
            SessionConfig,
            StreamingSession,
            random_walk_trace,
            short_video,
        )

        video = short_video(duration_s=duration_s, seed=3)
        return [
            StreamingSession(
                video,
                MPCAlgorithm(),
                random_walk_trace(
                    mean_mbps=5.0, duration=300.0, seed=s, low=2.0, high=9.0
                ),
                SessionConfig(),
            ).run()
            for s in seeds
        ]

    @staticmethod
    def _counting(monkeypatch):
        from repro.core import _kernels

        monkeypatch.setattr(_kernels, "FORCE_PYTHON", True)
        entries = {"emission": 0, "fb": 0, "viterbi": 0, "ffbs": 0}
        for key, name in (
            ("emission", "emission_log_probs"),
            ("fb", "forward_backward_stack"),
            ("viterbi", "viterbi_stack"),
            ("ffbs", "ffbs_stack"),
        ):
            real = getattr(_kernels, name)

            def counting(*args, _real=real, _key=key, **kwargs):
                entries[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(_kernels, name, counting)
        return entries

    def test_one_entry_per_stack(self, monkeypatch):
        from repro import VeritasAbduction, paper_veritas_config
        from repro.core.abduction import sample_traces_batch

        entries = self._counting(monkeypatch)
        # Two length groups (different videos => different chunk counts):
        # 3 sessions of one length, 2 of another => 2 stacks.
        logs = self._session_logs((40, 41, 42), 90.0)
        logs += self._session_logs((43, 44), 60.0)
        n_stacks = len({log.n_chunks for log in logs})
        assert n_stacks == 2  # the corpus actually spans two lengths

        abduction = VeritasAbduction(paper_veritas_config(), kernel="compiled")
        posteriors = abduction.solve_batch(logs)
        assert entries["emission"] == 1, (
            f"{entries['emission']} emission kernel entries for one corpus; "
            f"the concatenated matrix must be built in a single call"
        )
        assert entries["fb"] == n_stacks, (
            f"{entries['fb']} forward-backward kernel entries for "
            f"{n_stacks} stacks; per-session Python re-entry has crept in"
        )
        assert entries["viterbi"] == n_stacks

        sample_traces_batch(
            posteriors, 6, list(range(len(logs))), kernel="compiled"
        )
        assert entries["ffbs"] == n_stacks, (
            f"{entries['ffbs']} FFBS kernel entries for {n_stacks} stacks; "
            f"the sampler must draw all samples of a stack in one call"
        )
