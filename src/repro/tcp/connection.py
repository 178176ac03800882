"""Flow-level TCP download simulator.

This is the repo's substitute for the paper's Mahimahi + Linux TCP testbed
(see DESIGN.md §2).  A :class:`TCPConnection` downloads chunks over a
time-varying :class:`~repro.net.trace.PiecewiseConstantTrace` using the same
congestion-control mechanisms the paper's estimator models — slow start,
additive congestion avoidance, and RFC 2861 slow-start restart after idle
periods — but, unlike the estimator, it sees the *actual* bandwidth at each
instant of the download rather than a single constant.

The simulation alternates between two regimes:

* **window-limited rounds** while ``cwnd`` is below the instantaneous BDP:
  each round lasts one RTT and moves ``cwnd`` segments;
* **fluid transfer** once the pipe is full: the remaining bytes drain at
  the (time-varying) link rate via ``trace.time_to_transfer``.

This produces exactly the observable biases the paper documents: small
chunks see throughput far below GTBW (Fig. 2(c)), idle gaps reset the
window, and only > BDP transfers observe throughput close to GTBW.

A scalar :class:`TCPConnection` always runs the per-RTT loop
(:func:`_reference_download`): it is the one scalar download path and the
golden parity target.  :class:`BatchTCPConnection` advances K lanes in
lockstep through one of three kernel tiers, selected by the ``kernel=``
argument (``None`` picks the module-level ``DEFAULT_KERNEL``, the
compiled tier); the names match the abduction tiers
(:data:`repro.core.abduction.ABDUCTION_TIERS`):

* ``"reference"`` — the scalar per-RTT loop, lane by lane.
* ``"numpy"`` — the batched analytic pass over preallocated per-batch
  scratch buffers.  Each constant-bandwidth trace interval resolves in
  closed form: the slow-start/congestion-avoidance round schedule is
  precomputed once per ``(cwnd, ssthresh)`` (the same round-schedule
  trick the Algorithm-4 estimator uses), so the rounds until the pipe
  fills or the data runs out reduce to counts over it.  Every
  steady-state chunk runs through ``out=``/in-place ufuncs with zero new
  array allocations (``tests/test_dispatch_budget.py`` pins this).
  Lanes whose window-limited phase crosses an interval boundary run the
  scalar per-RTT loop.
* ``"compiled"`` — **the default**: the whole (lane-batch × session)
  chunk → decision → chunk loop in one compiled call
  (:mod:`repro.player._fused`): download, BBA/BOLA/RobustMPC decision
  (including the harmonic-mean predictor's ring-buffer state, via the
  decision kernels in :mod:`repro.abr._decisions`), buffer/stall
  accounting and the session-log column writes.  Sessions whose ABR mix
  cannot run in-kernel (custom algorithms, the per-lane scalar
  fallback, plain non-robust MPC, QoE tables over budget) keep the
  per-chunk loop, with each chunk's whole-batch download as one call
  into :mod:`repro.tcp._compiled`.  Backends are feature-detected at
  first use: numba-njit builds of the Python mirrors when numba is
  importable, else cc + cffi builds of line-for-line C transcriptions
  (compiled once with FMA contraction and fast-math disabled, cached on
  disk).  With neither, the default resolves to ``"numpy"`` silently
  (:func:`resolve_kernel`); a caller who named ``"compiled"`` runs as
  ``"numpy"`` with a once-per-process ``RuntimeWarning``
  (``BatchTCPConnection._tier`` records the effective tier).

All tiers evaluate the same float predicates in the same order, so their
batch columns and session logs are bit-identical to K independent scalar
connections (see ``tests/test_batch_replay.py`` and
``tests/test_tcp_differential.py``; the compiled tier is pinned at a
documented ``rtol=1e-12`` tolerance, bit-identical in practice on every
backend we test).  Unknown kernel names raise ``ValueError`` at
construction time, listing the available tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..net.trace import (
    _EPS_BYTES,
    PiecewiseConstantTrace,
    TraceBatch,
)
from ..util.compiled import warn_fallback
from ..util.units import mbps_to_bytes_per_sec, throughput_mbps
from . import _compiled
from .constants import (
    INIT_CWND_SEGMENTS,
    INITIAL_SSTHRESH_SEGMENTS,
    MAX_CWND_SEGMENTS,
    MSS_BYTES,
    SLOW_START_GROWTH,
)
from .state import MutableTCPState, TCPStateSnapshot, apply_slow_start_restart

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_TIERS",
    "BatchDownloadResult",
    "BatchTCPConnection",
    "DownloadResult",
    "TCPConnection",
    "resolve_kernel",
]

DEFAULT_KERNEL = "compiled"
"""Kernel used when a connection is constructed without an explicit one."""

KERNEL_TIERS = ("reference", "numpy", "compiled")
"""All selectable kernel tiers, slowest (golden reference) first."""


def resolve_kernel(kernel: str | None) -> str:
    """Resolve ``kernel`` against the tier registry or raise ``ValueError``.

    ``None`` picks the effective default: ``DEFAULT_KERNEL`` when a
    compiled backend is live, ``"numpy"`` otherwise (the default degrades
    silently).  Every batch construction path (batch connections, batch
    sessions, the engine, the CLI) funnels through here so an unknown name
    fails loudly with the list of available tiers instead of silently
    running a default.  A scalar :class:`TCPConnection` has no tier.
    """
    if kernel is None:
        return DEFAULT_KERNEL if _compiled.available() else "numpy"
    if kernel not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel {kernel!r}; available tiers: {KERNEL_TIERS}"
        )
    return kernel


def _grow_window(cwnd: int, ssthresh: int) -> int:
    """One round of window growth (slow start below ssthresh, else +1)."""
    if cwnd < ssthresh:
        return min(max(cwnd + 1, int(cwnd * SLOW_START_GROWTH)), MAX_CWND_SEGMENTS)
    return min(cwnd + 1, MAX_CWND_SEGMENTS)


class _ScheduleTable:
    """Padded 2D mirrors of the window schedules for the scratch kernel.

    One row per distinct ``(cwnd0, ssthresh)`` pair, every row populated
    out to a fixed ``HORIZON`` of rounds: ``cb[p, r]`` is the congestion
    window in bytes at the start of round ``r`` (the ``cwnd * MSS`` the
    per-RTT loop compares against the BDP), ``cum_mss`` the bytes sent
    over rounds ``0..r-1``, and ``cover = cb + cum_mss`` — all exact in
    float64, so the loop's ``cwnd_bytes >= size - sent * MSS`` and the
    countable ``cover[r] >= size`` agree bit for bit.  ``cwnds`` keeps one
    extra column so round ``r``'s post-growth window is a plain gather.

    Row lookup is a single ``searchsorted`` over the packed sorted keys,
    so a whole lane batch resolves its per-lane schedules without any
    per-group Python loop.  Rows build lazily on first sight of a pair —
    a whole miss batch at once through the same vectorised recurrence the
    round loop uses (:func:`_grow_window_batch`), appended into
    capacity-doubled stores with the sorted key index rebuilt per batch,
    so the table never pays per-row ``np.insert`` reallocation.
    """

    HORIZON = 32
    _INIT_CAP = 256

    def __init__(self):
        h = self.HORIZON
        self._cap = self._INIT_CAP
        self._n = 0
        self._keys = np.empty(self._cap, dtype=np.int64)
        self._cb = np.empty((self._cap, h))
        self._cover = np.empty((self._cap, h))
        self._cum_mss = np.empty((self._cap, h))
        self._cwnds = np.empty((self._cap, h + 1), dtype=np.int64)
        self._refresh()

    def _refresh(self) -> None:
        n = self._n
        self.cb = self._cb[:n]
        self.cover = self._cover[:n]
        self.cum_mss = self._cum_mss[:n]
        self.cwnds = self._cwnds[:n]
        # Flat views (leading slices of C-contiguous stores, so reshape
        # is a view) for `np.take(flat, row * width + col)` gathers.
        self.cum_mss_flat = self.cum_mss.reshape(-1)
        self.cwnds_flat = self.cwnds.reshape(-1)
        order = np.argsort(self._keys[:n], kind="stable")
        self.sorted_keys = self._keys[:n][order]
        self.order = order

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        for name in ("_keys", "_cb", "_cover", "_cum_mss", "_cwnds"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)
        self._cap = cap

    def _build_rows(self, missing: np.ndarray) -> None:
        p = missing.size
        if self._n + p > self._cap:
            self._grow(self._n + p)
        h = self.HORIZON
        s = slice(self._n, self._n + p)
        cb = self._cb[s]
        cover = self._cover[s]
        cum_mss = self._cum_mss[s]
        cwnds = self._cwnds[s]
        c = (missing >> 21).copy()
        ssthresh = missing & ((1 << 21) - 1)
        cum = np.zeros(p, dtype=np.int64)
        # All quantities are integers below 2**53, so the float columns
        # hold exactly the values the per-RTT loop computes.
        for r in range(h):
            cwnds[:, r] = c
            cb[:, r] = c * MSS_BYTES
            cum_mss[:, r] = cum * MSS_BYTES
            cover[:, r] = cb[:, r] + cum_mss[:, r]
            cum += c
            c = _grow_window_batch(c, ssthresh)
        cwnds[:, h] = c
        self._keys[s] = missing
        self._n += p
        self._refresh()

    def rows_for(self, keys: np.ndarray) -> np.ndarray:
        """Row index per packed key, building unseen rows on demand."""
        sk = self.sorted_keys
        if sk.size:
            pos = np.searchsorted(sk, keys)
            np.minimum(pos, sk.size - 1, out=pos)
            if (sk[pos] == keys).all():
                return self.order[pos]
            missing = np.unique(keys[sk[pos] != keys])
        else:
            missing = np.unique(keys)
        self._build_rows(missing)
        return self.order[np.searchsorted(self.sorted_keys, keys)]


_SCHED_TABLE = _ScheduleTable()


# The scalar download kernel, shared between TCPConnection and the per-lane
# paths of BatchTCPConnection.  Module-level (rather than a method) so the
# batch engine runs *exactly* this code for lanes its vectorised fast path
# cannot cover — bit-identity by construction.


def _fluid_finish(
    trace: PiecewiseConstantTrace,
    rtt: float,
    t: float,
    remaining: float,
    rounds: int,
    cwnd: int,
) -> tuple[float, int, int]:
    """Drain ``remaining`` bytes at the link rate starting at ``t``.

    time_to_transfer waits through zero-bandwidth intervals and raises
    only if bandwidth never resumes.  The window keeps opening ~1
    segment per RTT while the transfer proceeds in congestion
    avoidance.
    """
    fluid_s = trace.time_to_transfer(t, remaining)
    cwnd = min(cwnd + max(0, int(fluid_s / rtt)), MAX_CWND_SEGMENTS)
    rounds += max(1, math.ceil(fluid_s / rtt))
    return t + fluid_s, rounds, cwnd


def _reference_download(
    trace: PiecewiseConstantTrace,
    rtt: float,
    size_bytes: float,
    t0: float,
    cwnd: int,
    ssthresh: int,
) -> tuple[float, int, int]:
    """Per-RTT scalar loop: the golden reference kernel.

    Each window-limited round lasts one RTT and moves ``cwnd`` segments;
    once the pipe is full the rest drains as a fluid transfer.
    """
    rounds = 0
    sent_segments = 0
    while True:
        t = t0 + rounds * rtt
        remaining = size_bytes - sent_segments * MSS_BYTES
        bandwidth = trace.value_at(t)
        bdp_bytes = mbps_to_bytes_per_sec(bandwidth) * rtt
        cwnd_bytes = cwnd * MSS_BYTES
        if cwnd_bytes >= bdp_bytes:
            # Pipe is (or can be kept) full — drain at the link rate.
            return _fluid_finish(trace, rtt, t, remaining, rounds, cwnd)
        if cwnd_bytes >= remaining:
            # Final window-limited round: one RTT moves the rest.
            return t0 + (rounds + 1) * rtt, rounds + 1, _grow_window(cwnd, ssthresh)
        # Full window-limited round: one RTT moves cwnd segments.
        sent_segments += cwnd
        cwnd = _grow_window(cwnd, ssthresh)
        rounds += 1


@dataclass(frozen=True, slots=True)
class DownloadResult:
    """Outcome of a single chunk download."""

    start_time_s: float
    end_time_s: float
    size_bytes: float
    rounds: int
    slow_start_restarted: bool
    tcp_state_at_start: TCPStateSnapshot

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def throughput_mbps(self) -> float:
        return throughput_mbps(self.size_bytes, self.duration_s)


class TCPConnection:
    """A persistent TCP connection downloading chunks over a bandwidth trace.

    Parameters
    ----------
    trace:
        Ground-truth bandwidth over time (Mbps).
    rtt_s:
        End-to-end round-trip propagation delay (the paper uses 80 ms).
    start_time_s:
        Wall-clock time at which the connection is established.

    Every download runs the per-RTT loop :func:`_reference_download`, the
    golden model the batch tiers are pinned against.
    """

    def __init__(
        self,
        trace: PiecewiseConstantTrace,
        rtt_s: float = 0.08,
        start_time_s: float = 0.0,
    ):
        if rtt_s <= 0:
            raise ValueError(f"rtt must be positive, got {rtt_s}")
        self.trace = trace
        self.rtt_s = rtt_s
        self.state = MutableTCPState(last_send_time_s=start_time_s)
        # The handshake measures the first RTT sample.
        self.state.observe_rtt(rtt_s)

    # ------------------------------------------------------------------
    def snapshot(self, now_s: float) -> TCPStateSnapshot:
        """The ``tcp_info`` record a client would log at time ``now_s``."""
        return self.state.snapshot(now_s)

    # ------------------------------------------------------------------
    def download(self, size_bytes: float, start_time_s: float) -> DownloadResult:
        """Download ``size_bytes`` starting at ``start_time_s``.

        Advances the connection's congestion state and returns the timing of
        the transfer.  Raises :class:`RuntimeError` if the trace bandwidth is
        zero forever after the start time (the transfer would never finish).
        """
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        if start_time_s < self.state.last_send_time_s:
            raise ValueError(
                f"download at {start_time_s} precedes last send at "
                f"{self.state.last_send_time_s}; requests must move forward in time"
            )

        state = self.state
        snapshot = state.snapshot(start_time_s)

        cwnd, ssthresh, restarted = apply_slow_start_restart(
            state.cwnd_segments,
            state.ssthresh_segments,
            snapshot.time_since_last_send_s,
            snapshot.rto_s,
        )

        # The HTTP request consumes one round trip before payload flows;
        # the client-side download time (what logs record) includes it.
        t0 = float(start_time_s) + self.rtt_s
        end_time, rounds, cwnd = _reference_download(
            self.trace, self.rtt_s, float(size_bytes), t0, cwnd, ssthresh
        )

        state.cwnd_segments = cwnd
        state.ssthresh_segments = ssthresh
        state.observe_rtt(self.rtt_s)
        state.last_send_time_s = end_time

        return DownloadResult(
            start_time_s=start_time_s,
            end_time_s=end_time,
            size_bytes=size_bytes,
            rounds=rounds,
            slow_start_restarted=restarted,
            tcp_state_at_start=snapshot,
        )

    # ------------------------------------------------------------------
    def reset(self, start_time_s: float = 0.0) -> None:
        """Forget all congestion state (a brand-new connection)."""
        self.state = MutableTCPState(last_send_time_s=start_time_s)
        self.state.observe_rtt(self.rtt_s)
        self.state.cwnd_segments = INIT_CWND_SEGMENTS


def _grow_window_batch(cwnd: np.ndarray, ssthresh: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_grow_window` (element-wise identical)."""
    slow_start = cwnd < ssthresh
    grown = np.where(
        slow_start,
        np.maximum(cwnd + 1, (cwnd * SLOW_START_GROWTH).astype(np.int64)),
        cwnd + 1,
    )
    return np.minimum(grown, MAX_CWND_SEGMENTS)


def _fluid_grow_batch(
    cwnd: np.ndarray, fluid_s: np.ndarray, rtt: float
) -> np.ndarray:
    """Vectorised post-fluid-drain window growth.

    Mirrors :func:`_fluid_finish`'s ``min(cwnd + max(0, int(fluid/rtt)),
    MAX)`` update element-wise — the single spot the batch paths share so
    the scalar/batch mirror cannot drift.
    """
    ratio = fluid_s / rtt
    return np.minimum(
        cwnd + np.maximum(0, ratio.astype(np.int64)), MAX_CWND_SEGMENTS
    )


@dataclass(frozen=True, slots=True)
class BatchDownloadResult:
    """Column-oriented outcome of one lockstep chunk download over K lanes.

    The per-lane ``tcp_info`` snapshot decomposes into the per-lane columns
    below plus the shared scalars — RTT bookkeeping is identical across
    lanes (every lane observes the same RTT once per download), so
    ``srtt``/``min_rtt``/``rto`` are per-chunk scalars, not columns.
    """

    start_times_s: np.ndarray
    end_times_s: np.ndarray
    size_bytes: np.ndarray
    cwnd_segments: np.ndarray
    ssthresh_segments: np.ndarray
    time_since_last_send_s: np.ndarray
    srtt_s: float
    min_rtt_s: float
    rto_s: float


class _BatchScratch:
    """Per-batch scratch buffers shared by every batch kernel tier."""

    __slots__ = (
        "idle", "t0", "bdp", "fluid", "f3", "rem", "tf",
        "cwnd_pre", "ssthresh_pre", "i1", "ti", "ti2", "dec",
        "trig", "act", "m", "pf",
    )

    def __init__(self, n_lanes: int):
        for name in ("idle", "t0", "bdp", "fluid", "f3", "rem", "tf"):
            setattr(self, name, np.empty(n_lanes))
        for name in ("cwnd_pre", "ssthresh_pre", "i1", "ti", "ti2", "dec"):
            setattr(self, name, np.empty(n_lanes, dtype=np.int64))
        for name in ("trig", "act", "m", "pf"):
            setattr(self, name, np.empty(n_lanes, dtype=bool))


class _MutableBatchResult:
    """Reusable mutable mirror of :class:`BatchDownloadResult`.

    Every tier hands the same instance back on every ``download_batch``
    call with its columns aliasing per-batch buffers — valid only until
    the next call; callers copy what they keep.
    """

    __slots__ = (
        "start_times_s",
        "end_times_s",
        "size_bytes",
        "cwnd_segments",
        "ssthresh_segments",
        "time_since_last_send_s",
        "srtt_s",
        "min_rtt_s",
        "rto_s",
    )


class BatchTCPConnection:
    """K persistent TCP connections advanced in lockstep over a trace batch.

    One instance per :class:`~repro.net.trace.TraceBatch` lane set; the
    congestion state (cwnd, ssthresh, last send time) is array-valued while
    the RTT estimator state is shared (all lanes observe the same constant
    RTT, so their ``srtt``/``rto`` sequences are identical).

    Each tier advances every lane through one chunk per
    :meth:`download_batch` call: ``"reference"`` runs the scalar golden
    loop lane by lane, ``"numpy"`` the allocation-free analytic pass over
    all lanes at once, and ``"compiled"`` one compiled-kernel call.
    Results are bit-identical to K independent scalar connections (see
    ``tests/test_batch_replay.py``).
    """

    def __init__(
        self,
        batch: TraceBatch,
        rtt_s: float = 0.08,
        start_time_s: float = 0.0,
        kernel: str | None = None,
    ):
        if rtt_s <= 0:
            raise ValueError(f"rtt must be positive, got {rtt_s}")
        resolved = resolve_kernel(kernel)
        self.batch = batch
        self.rtt_s = rtt_s
        self.kernel = resolved
        # Effective tier: a "compiled" request runs as "numpy" when no
        # compiled backend (numba or cc+cffi) is buildable.  The parity
        # contract is unchanged either way.  Only a caller who named the
        # tier gets here: the default already resolved to "numpy".
        if resolved == "compiled" and not _compiled.available():
            warn_fallback('kernel="compiled"', "numpy")
            resolved = "numpy"
        self._tier = resolved
        n = batch.n_lanes
        self._shared = MutableTCPState(last_send_time_s=start_time_s)
        self._shared.observe_rtt(rtt_s)
        self._cwnd = np.full(n, INIT_CWND_SEGMENTS, dtype=np.int64)
        self._ssthresh = np.full(n, INITIAL_SSTHRESH_SEGMENTS, dtype=np.int64)
        self._last_send = np.full(n, float(start_time_s))
        self._lane_idx = np.arange(n)
        self._ws = batch.make_transfer_scratch()
        self._scratch = _BatchScratch(n)
        self._result = _MutableBatchResult()
        self._download = {
            "reference": self._download_reference,
            "numpy": self._download_scratch,
            "compiled": self._download_compiled,
        }[resolved]

    @property
    def n_lanes(self) -> int:
        return self.batch.n_lanes

    def download_batch(
        self, size_bytes: np.ndarray, start_times_s: np.ndarray
    ) -> BatchDownloadResult:
        """Download ``size_bytes[k]`` on every lane ``k`` starting at
        ``start_times_s[k]``; advances all K congestion states.

        Returns a reusable mutable result whose columns alias per-batch
        buffers: copy anything you keep before the next
        ``download_batch`` call.
        """
        return self._download(size_bytes, start_times_s)

    def _download_reference(
        self, size_bytes: np.ndarray, start_times_s: np.ndarray
    ) -> "_MutableBatchResult":
        """Lane by lane, exactly what :meth:`TCPConnection.download` runs:
        the scalar restart decay, then the per-RTT golden loop."""
        b = self._scratch
        tb = self.batch
        rtt = self.rtt_s
        shared = self._shared
        starts = np.asarray(start_times_s, dtype=float)
        sizes = np.asarray(size_bytes, dtype=float)
        srtt = shared.srtt_s
        min_rtt = shared.min_rtt_s
        rto = shared.rto_s
        idle = b.idle
        np.subtract(starts, self._last_send, out=idle)
        np.maximum(idle, 0.0, out=idle)
        np.copyto(b.cwnd_pre, self._cwnd)
        np.copyto(b.ssthresh_pre, self._ssthresh)
        ends = self._last_send
        for k in range(tb.n_lanes):
            cwnd, ssthresh, _ = apply_slow_start_restart(
                int(b.cwnd_pre[k]), int(b.ssthresh_pre[k]), float(idle[k]), rto
            )
            end, _, grown = _reference_download(
                tb.lane(k), rtt, float(sizes[k]), float(starts[k]) + rtt,
                cwnd, ssthresh,
            )
            ends[k] = end
            self._cwnd[k] = grown
            self._ssthresh[k] = ssthresh
        shared.observe_rtt(rtt)
        return self._fill_result(starts, ends, sizes, srtt, min_rtt, rto)

    # ------------------------------------------------------------------
    # The numpy tier: the scratch kernel (allocation-free steady state)
    # ------------------------------------------------------------------
    def _restart_scratch(self, idle: np.ndarray, rto: float) -> None:  # repro: scratch
        """In-place masked slow-start-restart decay of ``_cwnd``/``_ssthresh``.

        Element-wise identical to the scalar halving loop
        (:func:`~repro.tcp.state.apply_slow_start_restart`): untriggered
        lanes carry inert values
        through the masked iterations and are never written back.
        """
        b = self._scratch
        cwnd = self._cwnd
        np.greater(idle, rto, out=b.m)
        np.greater(cwnd, INIT_CWND_SEGMENTS, out=b.act)
        np.logical_and(b.m, b.act, out=b.trig)
        if not np.count_nonzero(b.trig):
            return
        np.copyto(b.rem, idle)
        np.copyto(b.dec, cwnd)
        np.copyto(b.act, b.trig)
        while True:
            # ``rem`` may decay unconditionally: lanes only ever leave the
            # active set (the loop mask is a monotone AND) and ``rem`` is
            # never read after the loop, so inactive lanes' values are
            # inert.  ``dec`` IS read after the loop and must freeze at
            # each lane's exit iteration, hence the masked write-back.
            np.subtract(b.rem, rto, out=b.rem)
            np.right_shift(b.dec, 1, out=b.ti)
            np.copyto(b.dec, b.ti, where=b.act)
            np.greater(b.rem, rto, out=b.m)
            np.logical_and(b.act, b.m, out=b.act)
            np.greater(b.dec, INIT_CWND_SEGMENTS, out=b.m)
            np.logical_and(b.act, b.m, out=b.act)
            if not np.count_nonzero(b.act):
                break
        np.maximum(b.dec, INIT_CWND_SEGMENTS, out=b.dec)
        np.copyto(cwnd, b.dec, where=b.trig)
        np.right_shift(b.dec, 1, out=b.ti)
        np.right_shift(b.dec, 2, out=b.ti2)
        np.add(b.ti, b.ti2, out=b.ti)
        np.maximum(b.ti, self._ssthresh, out=b.ti)
        np.maximum(b.ti, 2, out=b.ti)
        np.copyto(self._ssthresh, b.ti, where=b.trig)

    # repro: scratch
    def _download_scratch(
        self, size_bytes: np.ndarray, start_times_s: np.ndarray
    ) -> "_MutableBatchResult":
        """The numpy tier: every lane through one chunk, vectorised.

        Steady-state chunks (every lane pipe-full and finishing inside its
        current trace interval — the overwhelmingly common case once
        windows have opened) run entirely through ``out=`` ufuncs on
        per-batch buffers: zero new array allocations
        (``tests/test_dispatch_budget.py``).  Ragged chunks take the
        allocating round skip (:meth:`_skip_rounds_scratch`) and stay on
        the batch path.
        """
        b = self._scratch
        ws = self._ws
        tb = self.batch
        rtt = self.rtt_s
        shared = self._shared
        starts = np.asarray(start_times_s, dtype=float)
        sizes = np.asarray(size_bytes, dtype=float)

        idle = b.idle
        np.subtract(starts, self._last_send, out=idle)
        np.maximum(idle, 0.0, out=idle)
        srtt = shared.srtt_s
        min_rtt = shared.min_rtt_s
        rto = shared.rto_s
        np.copyto(b.cwnd_pre, self._cwnd)
        np.copyto(b.ssthresh_pre, self._ssthresh)

        self._restart_scratch(idle, rto)

        t0 = b.t0
        np.add(starts, rtt, out=t0)
        # Chunk start times are monotone per lane, so the interval cursor
        # only ever advances — no searchsorted needed.
        tb.advance_indices(t0, ws)
        bdp = b.bdp
        tb.values_at_indices(ws, out=bdp)
        np.multiply(bdp, 1_000_000, out=bdp)
        np.divide(bdp, 8, out=bdp)
        np.multiply(bdp, rtt, out=bdp)
        # Compare in float64 (exact: cwnd*MSS < 2**53) — an int64 operand
        # would make the ufunc buffer a casted temporary every chunk.
        np.copyto(b.f3, self._cwnd, casting="unsafe")
        np.multiply(b.f3, float(MSS_BYTES), out=b.f3)
        np.greater_equal(b.f3, bdp, out=b.pf)

        # ``ends`` aliases the live last-send state: idle (above) was the
        # only reader of the previous chunk's values.
        ends = self._last_send
        if np.count_nonzero(b.pf) == b.pf.size:
            if tb.transfer_hot(t0, sizes, ws, out=b.fluid):
                fluid_s = b.fluid
            else:
                fluid_s = b.fluid
                np.copyto(
                    fluid_s,
                    tb.transfer_drain(t0, sizes, self._lane_idx, ws.idx),
                )
            np.add(t0, fluid_s, out=ends)
            # _fluid_grow_batch via out=: min(cwnd + max(0, int(f/rtt)), MAX)
            np.divide(fluid_s, rtt, out=b.f3)
            np.copyto(b.i1, b.f3, casting="unsafe")
            np.maximum(b.i1, 0, out=b.i1)
            np.add(self._cwnd, b.i1, out=self._cwnd)
            np.minimum(self._cwnd, MAX_CWND_SEGMENTS, out=self._cwnd)
        else:
            self._skip_rounds_scratch(t0, sizes, ends)

        shared.observe_rtt(rtt)
        return self._fill_result(starts, ends, sizes, srtt, min_rtt, rto)

    def _skip_rounds_scratch(
        self, t0: np.ndarray, sizes: np.ndarray, ends: np.ndarray
    ) -> None:
        """Vectorised analytic round skip for a ragged chunk (all lanes).

        The closed form of :func:`_reference_download` for lanes whose
        window-limited phase stays inside one constant-bandwidth interval:
        there the BDP is constant, so the first pipe-full round (``kf``)
        and the data-exhaustion round (``kd``) are monotone-predicate
        counts over the per-lane window schedule — no per-RTT loop.
        Per-lane schedules resolve through the shared
        :class:`_ScheduleTable` (one ``searchsorted`` row lookup, then a
        broadcast count against the padded rows — bisect_left as a
        monotone-predicate sum), pipe-full-at-round-0 lanes fall out with
        ``k == 0``, and all fluid drains merge into one batched
        :meth:`~repro.net.trace.TraceBatch.transfer_drain` call.
        Lanes whose window-limited phase would cross an interval boundary
        or outrun the table horizon run the scalar per-RTT loop
        (:func:`_reference_download`) per lane — the same code a scalar
        connection runs, so they stay bit-identical by construction.
        """
        b = self._scratch
        ws = self._ws
        tb = self.batch
        rtt = self.rtt_s
        cwnd = self._cwnd
        ssthresh = self._ssthresh
        bounds = tb._bounds
        last = tb.n_intervals - 1
        bdp = b.bdp
        idx0 = ws.idx
        table = _SCHED_TABLE
        h = table.HORIZON

        # ssthresh only ever rises toward (and never beyond) max(initial,
        # 3/4 * MAX_CWND), so the packed key is collision-free.
        rows = table.rows_for(cwnd * (1 << 21) + ssthresh)
        kf = np.add.reduce(table.cb[rows] < bdp[:, None], axis=1)
        kd = np.add.reduce(table.cover[rows] < sizes[:, None], axis=1)
        k = np.minimum(kf, kd)
        tk = t0 + k * rtt
        # Valid while round k stays within the table horizon and its BDP
        # probe still lands in the starting interval (the final interval's
        # value holds forever, mirroring value_at's clamp).
        ok = (k < h) & ((idx0 == last) | (tk < bounds[idx0 + 1]))
        if np.count_nonzero(ok) != ok.size:
            # Interval crossing mid-phase (or a horizon overrun): the
            # per-lane scalar loop.
            for j in np.flatnonzero(~ok):
                e, _, grown = _reference_download(
                    tb.lane(int(j)),
                    rtt,
                    float(sizes[j]),
                    float(t0[j]),
                    int(cwnd[j]),
                    int(ssthresh[j]),
                )
                ends[j] = e
                cwnd[j] = grown
        fl = ok & (kf <= kd)
        if np.count_nonzero(fl):
            # Pipe full at round k: drain the remainder at the link rate
            # (ties between the checks go to the fluid branch, mirroring
            # the reference loop's per-round order).  The dominant hot
            # case — the drain completes inside the interval containing
            # round k, or past the trace end where the final rate holds —
            # runs full-width under the mask with the same float
            # expressions the scalar kernel evaluates; spill-over lanes
            # compact into one :meth:`TraceBatch.transfer_drain` call.
            kc = np.minimum(k, h - 1)
            rows1 = rows * (h + 1)
            np.add(rows1, kc, out=rows1)  # flat index of cwnds[rows, kc]
            rowh = rows * h
            np.add(rowh, kc, out=rowh)  # flat index of cum_mss[rows, kc]
            frem = b.rem
            table.cum_mss_flat.take(rowh, out=frem, mode="clip")
            np.subtract(sizes, frem, out=frem)
            rate0 = ws.rate0
            np.add(idx0, tb._row_off, out=ws.flat_idx)
            tb._rates_flat.take(ws.flat_idx, out=rate0, mode="clip")
            np.add(idx0, 1, out=ws.idx1)
            bounds.take(ws.idx1, out=ws.f1, mode="clip")
            np.subtract(ws.f1, tk, out=ws.f1)
            np.multiply(rate0, ws.f1, out=ws.f1)  # interval capacity
            np.subtract(frem, _EPS_BYTES, out=ws.f2)
            hot = ws.b1
            np.greater_equal(ws.f1, ws.f2, out=hot)
            np.greater_equal(tk, bounds[-1], out=ws.b2)
            np.logical_or(hot, ws.b2, out=hot)
            np.greater(rate0, 0.0, out=ws.b2)
            np.logical_and(hot, ws.b2, out=hot)
            np.greater_equal(tk, bounds[0], out=ws.b2)
            np.logical_and(hot, ws.b2, out=hot)
            np.logical_and(hot, fl, out=hot)
            if np.count_nonzero(hot):
                q = b.fluid
                q.fill(0.0)
                np.divide(frem, rate0, out=q, where=hot)
                np.add(tk, q, out=b.tf)
                np.subtract(b.tf, tk, out=q)  # fluid seconds, hot lanes
                np.add(tk, q, out=b.tf)
                np.copyto(ends, b.tf, where=hot)
                # _fluid_grow_batch under the mask: min(cwnd_k +
                # max(0, int(fluid/rtt)), MAX).
                np.divide(q, rtt, out=b.f3)
                np.copyto(b.i1, b.f3, casting="unsafe")
                np.maximum(b.i1, 0, out=b.i1)
                table.cwnds_flat.take(rows1, out=b.ti, mode="clip")
                np.add(b.ti, b.i1, out=b.i1)
                np.minimum(b.i1, MAX_CWND_SEGMENTS, out=b.i1)
                np.copyto(cwnd, b.i1, where=hot)
            np.logical_not(hot, out=ws.b2)
            np.logical_and(ws.b2, fl, out=ws.b2)
            cold = np.flatnonzero(ws.b2)
            if cold.size:
                ft = tk[cold]
                fluid_s = tb.transfer_drain(
                    ft, frem[cold], cold, idx0[cold], known_cold=True
                )
                ends[cold] = ft + fluid_s
                cwnd[cold] = _fluid_grow_batch(
                    table.cwnds_flat.take(rows1[cold]), fluid_s, rtt
                )
        gd = ok & (kf > kd)
        if np.count_nonzero(gd):
            # Data exhausted first: round kd is the final window-limited
            # round; the post-growth window is the next schedule column.
            kk = np.minimum(kd + 1, h)
            np.multiply(kk, rtt, out=b.f3)
            np.add(b.f3, t0, out=b.f3)
            np.copyto(ends, b.f3, where=gd)
            rowk = rows * (h + 1)
            np.add(rowk, kk, out=rowk)
            table.cwnds_flat.take(rowk, out=b.ti, mode="clip")
            np.copyto(cwnd, b.ti, where=gd)

    # ------------------------------------------------------------------
    # The compiled tier's per-chunk download (the fused session kernel's
    # fallback for sessions it cannot run)
    # ------------------------------------------------------------------
    # repro: scratch
    def _download_compiled(
        self, size_bytes: np.ndarray, start_times_s: np.ndarray
    ) -> "_MutableBatchResult":
        """One compiled-kernel call advances every lane through the chunk."""
        b = self._scratch
        tb = self.batch
        rtt = self.rtt_s
        shared = self._shared
        starts = np.asarray(start_times_s, dtype=float)
        sizes = np.asarray(size_bytes, dtype=float)
        srtt = shared.srtt_s
        min_rtt = shared.min_rtt_s
        rto = shared.rto_s
        ends = self._last_send  # read-before-write per lane in the kernel
        status = _compiled.download_chunk(
            tb._bounds,
            tb._values2d,
            tb._rates2d,
            tb._cum2d,
            sizes,
            starts,
            rtt,
            rto,
            self._cwnd,
            self._ssthresh,
            self._last_send,
            ends,
            b.idle,
            b.cwnd_pre,
            b.ssthresh_pre,
        )
        if status:
            raise RuntimeError(
                "transfer cannot complete: trailing bandwidth is zero"
            )
        shared.observe_rtt(rtt)
        return self._fill_result(starts, ends, sizes, srtt, min_rtt, rto)

    def _fill_result(self, starts, ends, sizes, srtt, min_rtt, rto):  # repro: scratch
        """Populate the reusable result record (columns alias buffers)."""
        b = self._scratch
        res = self._result
        res.start_times_s = starts
        res.end_times_s = ends
        res.size_bytes = sizes
        res.cwnd_segments = b.cwnd_pre
        res.ssthresh_segments = b.ssthresh_pre
        res.time_since_last_send_s = b.idle
        res.srtt_s = srtt if srtt > 0 else 1.0
        res.min_rtt_s = min_rtt if min_rtt != float("inf") else (srtt or 1.0)
        res.rto_s = rto
        return res
