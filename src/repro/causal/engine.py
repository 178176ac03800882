"""The counterfactual replay engine (paper Fig. 6).

For each ground-truth trace:

1. **Deploy** Setting A over the true bandwidth → the observed
   :class:`~repro.player.logs.SessionLog` (this is all any scheme may see,
   except the oracle).
2. **Reconstruct** the bandwidth with each scheme:
   oracle (the truth), Baseline (observed throughput + interpolation), and
   Veritas (K posterior samples).
3. **Replay** Setting B over every reconstructed trace and compute QoE.

The result object keeps everything per-trace so benchmarks can print the
paper's per-trace series (Figs. 9-11, 13-14) and summary numbers.

Steps 1-2 depend only on Setting A, so a corpus can be **prepared** once
(:meth:`CounterfactualEngine.prepare_corpus`) and then replayed against any
number of Setting-B queries (:meth:`CounterfactualEngine.evaluate_many`) —
the deployment, abduction and posterior sampling are amortised across
queries, which is what makes sweeping many what-ifs over a large corpus
cheap.  ``evaluate_corpus`` is the single-query convenience wrapper over
the same path and stays bit-identical to evaluating each trace end to end.

**Fault tolerance** (see :mod:`repro.runtime`): the corpus-level entry
points take an ``on_error`` policy (``"raise"`` | ``"degrade"`` |
``"skip"``).  Under ``"degrade"``/``"skip"`` a trace that fails in the
batch fast path is deterministically retried on the scalar reference path
with the same seeds (bit-identical when it succeeds); under ``"skip"`` a
trace whose scalar retry also fails is dropped with a structured
:class:`~repro.runtime.faults.TraceFault` instead of killing the run, and
every incident lands in the :class:`~repro.runtime.faults.FaultLog`
attached to the result.  The fork pool is supervised (per-shard timeouts,
worker-death detection, bounded retries, in-process fallback) and
``prepare_corpus(checkpoint_dir=...)`` persists each completed trace's
artifacts content-addressed by (trace, Setting-A, model, seed) so a
restart re-does zero deployment/abduction work for finished traces.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..baselines.observed import baseline_trace
from ..core.abduction import VeritasAbduction, VeritasConfig, sample_traces_batch
from ..net.trace import PiecewiseConstantTrace, TraceBatch, boundary_key
from ..net.validation import check_corpus, validate_corpus
from ..runtime.checkpoint import CheckpointStore, fingerprint
from ..runtime.faults import FaultLog, TraceFault, resolve_on_error
from ..runtime.supervisor import SupervisorConfig, run_supervised
from ..player.batch_session import (
    BatchStreamingSession,
    LaneGroup,
    abr_supports_batch_replay,
)
from ..player.logs import SessionLog, SessionLogBatch
from ..player.metrics import QoEMetrics, compute_metrics, compute_metrics_batch
from ..player.session import StreamingSession
from ..tcp.connection import resolve_kernel
from ..util.rng import SeedLike, ensure_rng, spawn_seeds
from .queries import Setting

__all__ = [
    "VeritasRange",
    "TraceCounterfactual",
    "CounterfactualResult",
    "PreparedTrace",
    "PreparedCorpus",
    "CounterfactualEngine",
    "run_setting",
    "run_setting_batch",
]


def run_setting(setting: Setting, trace: PiecewiseConstantTrace) -> SessionLog:
    """Emulate one session of ``setting`` over ``trace``."""
    session = StreamingSession(
        video=setting.video,
        abr=setting.make_abr(),
        trace=trace,
        config=setting.config,
    )
    return session.run()


def run_setting_batch(
    setting: Setting,
    traces: "TraceBatch | list[PiecewiseConstantTrace]",
    kernel: str | None = None,
) -> SessionLogBatch:
    """Emulate one session of ``setting`` over every trace lane in lockstep.

    All lanes must share a boundary grid and the setting's ABR must pass
    :func:`~repro.player.batch_session.abr_supports_batch_replay`; lane
    ``k`` of the result is bit-identical to ``run_setting`` over lane ``k``
    under every replay kernel tier (``kernel=None`` picks the default).
    """
    session = BatchStreamingSession(
        video=setting.video,
        abr_factory=setting.make_abr,
        traces=traces,
        config=setting.config,
        kernel=kernel,
    )
    return session.run()


@dataclass(frozen=True)
class VeritasRange:
    """Per-metric low/high band across the K Veritas samples.

    Matches the paper's reporting: "we consider the second lowest and
    second largest prediction for each metric across the samples, which we
    refer to as Veritas (Low) and Veritas (High)" (§4.3).  With fewer than
    three samples the plain min/max is used.
    """

    values: tuple[float, ...]

    @property
    def _sorted(self) -> tuple[float, ...]:
        ordered = self.__dict__.get("_sorted_cache")
        if ordered is None:
            ordered = tuple(sorted(self.values))
            object.__setattr__(self, "_sorted_cache", ordered)
        return ordered

    @property
    def low(self) -> float:
        ordered = self._sorted
        return ordered[1] if len(ordered) >= 3 else ordered[0]

    @property
    def high(self) -> float:
        ordered = self._sorted
        return ordered[-2] if len(ordered) >= 3 else ordered[-1]

    @property
    def median(self) -> float:
        return float(np.median(self.values))


@dataclass(frozen=True)
class TraceCounterfactual:
    """All Setting-B predictions for one ground-truth trace."""

    trace_index: int
    setting_a_metrics: QoEMetrics
    truth_metrics: QoEMetrics
    baseline_metrics: QoEMetrics
    veritas_metrics: tuple[QoEMetrics, ...]

    def veritas_range(self, metric: str) -> VeritasRange:
        """Low/high band of ``metric`` (a QoEMetrics attribute name)."""
        return VeritasRange(
            tuple(getattr(m, metric) for m in self.veritas_metrics)
        )


@dataclass
class CounterfactualResult:
    """Counterfactual answers across a whole trace corpus.

    ``faults`` reports everything an ``on_error="degrade"``/``"skip"`` run
    survived; traces it lists as skipped are absent from ``per_trace``
    (every surviving entry is bit-identical to a clean run's).  When one
    :meth:`CounterfactualEngine.evaluate_many` call answers several
    queries, its results share one :class:`~repro.runtime.faults.FaultLog`
    instance.
    """

    setting_a: str
    setting_b: str
    per_trace: list[TraceCounterfactual] = field(default_factory=list)
    faults: FaultLog = field(default_factory=FaultLog)

    def metric_table(self, metric: str) -> dict[str, np.ndarray]:
        """Per-trace arrays of ``metric`` for every scheme.

        Keys: ``truth``, ``baseline``, ``veritas_low``, ``veritas_high``,
        ``veritas_median``, ``setting_a``.
        """
        truth = np.asarray([getattr(t.truth_metrics, metric) for t in self.per_trace])
        base = np.asarray(
            [getattr(t.baseline_metrics, metric) for t in self.per_trace]
        )
        # One (traces, K) sort yields low/high/median for every trace at
        # once instead of re-sorting the K samples per accessor per trace.
        samples = np.asarray(
            [
                [getattr(m, metric) for m in t.veritas_metrics]
                for t in self.per_trace
            ]
        )
        samples.sort(axis=1)
        k = samples.shape[1]
        low = samples[:, 1] if k >= 3 else samples[:, 0]
        high = samples[:, -2] if k >= 3 else samples[:, -1]
        med = np.median(samples, axis=1)
        orig = np.asarray(
            [getattr(t.setting_a_metrics, metric) for t in self.per_trace]
        )
        return {
            "truth": truth,
            "baseline": base,
            "veritas_low": low,
            "veritas_high": high,
            "veritas_median": med,
            "setting_a": orig,
        }

    def prediction_errors(self, metric: str) -> dict[str, np.ndarray]:
        """Absolute error vs the truth for Baseline and Veritas (median)."""
        table = self.metric_table(metric)
        return {
            "baseline": np.abs(table["baseline"] - table["truth"]),
            "veritas": np.abs(table["veritas_median"] - table["truth"]),
        }


@dataclass(frozen=True)
class PreparedTrace:
    """Everything Setting-A-dependent for one ground-truth trace.

    Holds the deployed log, its metrics, and the reconstructions (baseline
    trace + K posterior samples) so any Setting-B query can be answered
    with replays alone.
    """

    trace_index: int
    ground_truth: PiecewiseConstantTrace
    log_a: SessionLog
    setting_a_metrics: QoEMetrics
    replay_horizon_s: float
    baseline: PiecewiseConstantTrace
    samples: tuple[PiecewiseConstantTrace, ...]


@dataclass
class PreparedCorpus:
    """A corpus with Setting A deployed and abduction solved, ready to replay.

    Produced by :meth:`CounterfactualEngine.prepare_corpus`; consumed by
    :meth:`CounterfactualEngine.evaluate_many`.  ``faults`` reports the
    traces an ``on_error="skip"`` preparation dropped (they are absent
    from ``per_trace``; surviving entries are bit-identical to a clean
    run's) plus any pool-supervision incidents.
    """

    setting_a: Setting
    n_samples: int
    per_trace: list[PreparedTrace] = field(default_factory=list)
    faults: FaultLog = field(default_factory=FaultLog)

    def __len__(self) -> int:
        return len(self.per_trace)


# Shared state for forked pool workers.  Settings carry ABR factory
# closures that cannot cross a pickle boundary, so the parallel paths rely
# on fork inheritance: the state is installed before the pool spawns and
# workers receive only indices.  The lock serialises concurrent calls for
# the span where workers may still fork, so one call's state cannot leak
# into another's workers.
_FORK_STATE: tuple | None = None
_FORK_LOCK = threading.Lock()


# repro: pool-worker
def _prepare_shard(
    indices: "tuple[int, ...]",
) -> "tuple[list[PreparedTrace], list[TraceFault]]":
    engine, traces, setting_a, seeds, policy, checkpoint = _FORK_STATE
    return engine._prepare_traces_safe(
        indices, traces, setting_a, seeds, policy, checkpoint
    )


# repro: pool-worker
def _replay_task(
    task: tuple[int, int],
) -> "tuple[int, int, TraceCounterfactual | None, list[TraceFault]]":
    engine, per_trace, settings_b, policy = _FORK_STATE
    setting_index, trace_index = task
    outcome, faults = engine._replay_one_safe(
        per_trace[trace_index], settings_b[setting_index], policy
    )
    return setting_index, trace_index, outcome, faults


# ----------------------------------------------------------------------
# Checkpoint payloads: a PreparedTrace round-trips through a dict of numpy
# arrays (what CheckpointStore persists as one .npz).  The session log
# travels as JSON (repr-round-tripped floats are exact), the baseline and
# posterior-sample traces as boundary/value arrays; metrics and the replay
# horizon are recomputed deterministically, so a reloaded PreparedTrace is
# bit-identical to the one that was saved.
def _prepared_payload(prepared: PreparedTrace) -> dict:
    arrays: dict = {
        "log_json": np.array(json.dumps(prepared.log_a.to_dict())),
        "baseline_boundaries": np.asarray(prepared.baseline.boundaries),
        "baseline_values": np.asarray(prepared.baseline.values),
        "n_samples": np.asarray(len(prepared.samples)),
    }
    for k, sample in enumerate(prepared.samples):
        arrays[f"sample{k}_boundaries"] = np.asarray(sample.boundaries)
        arrays[f"sample{k}_values"] = np.asarray(sample.values)
    return arrays


def _prepared_from_payload(
    payload: dict,
    trace_index: int,
    ground_truth: PiecewiseConstantTrace,
    horizon_floor: float,
) -> PreparedTrace | None:
    """Rebuild a PreparedTrace, or ``None`` if the payload is damaged."""
    try:
        log = SessionLog.from_dict(json.loads(str(payload["log_json"][()])))
        baseline = PiecewiseConstantTrace(
            payload["baseline_boundaries"], payload["baseline_values"]
        )
        samples = tuple(
            PiecewiseConstantTrace(
                payload[f"sample{k}_boundaries"], payload[f"sample{k}_values"]
            )
            for k in range(int(payload["n_samples"]))
        )
    except Exception:
        return None
    return PreparedTrace(
        trace_index=trace_index,
        ground_truth=ground_truth,
        log_a=log,
        setting_a_metrics=compute_metrics(log),
        replay_horizon_s=max(ground_truth.end_time, horizon_floor),
        baseline=baseline,
        samples=samples,
    )


def _abr_fingerprint(abr) -> str:
    """A stable identity string for an ABR instance.

    Captures the registered name plus every scalar attribute of a freshly
    constructed instance — enough to distinguish parameterised variants
    (e.g. different MPC horizons) without trying to hash arbitrary
    objects.
    """
    simple = {
        key: value
        for key, value in sorted(vars(abr).items())
        if isinstance(value, (bool, int, float, str, type(None)))
    }
    return f"{abr.name}:{simple!r}"


class CounterfactualEngine:
    """Runs the full Fig.-6 pipeline over a corpus of ground-truth traces.

    ``n_workers`` > 1 fans the corpus-level methods out over a process
    pool.  Every trace gets its seed from the same ``spawn_seeds`` schedule
    and each per-trace step is deterministic given its seed, so parallel
    results are bit-identical to serial ones.

    ``use_batch`` (the default) routes both halves of the pipeline
    through the lockstep batch engine.  On the replay side, all lanes of
    a query — truth, baseline and the K posterior samples, across every
    trace being answered — are grouped by boundary grid and each group
    advances chunk by chunk as one
    :class:`~repro.player.batch_session.BatchStreamingSession`.  On the
    preparation side, :meth:`prepare_corpus` deploys Setting A the same
    way over the ground-truth traces and stacks same-shape session logs
    through batched abduction and posterior sampling.  Both are
    bit-identical to the per-lane/per-trace serial paths; ABRs the batch
    loop cannot drive (``observe_download`` hooks) fall back to the
    serial path automatically, so ``use_batch=False`` is only an escape
    hatch for benchmarking the serial engine.

    ``kernel`` and ``abduction_kernel`` select the replay and abduction
    kernel tiers from one vocabulary, ``"reference"`` / ``"numpy"`` /
    ``"compiled"`` (``repro.tcp.connection.KERNEL_TIERS`` and
    ``repro.core.abduction.ABDUCTION_TIERS``).  ``None``, the default
    for both, picks ``"compiled"``:

    * replay runs each batch session — downloads, BBA/BOLA/RobustMPC
      decisions and buffer accounting — as one compiled call, with a
      per-chunk compiled download loop for sessions the session kernel
      cannot run (custom ABRs, plain MPC).  Every replay tier is
      bit-identical to the scalar reference;
    * abduction runs each same-length stack's emission build,
      forward-backward, Viterbi and FFBS as single compiled-kernel calls.
      Viterbi paths and sampled traces stay bit-identical, float
      posteriors are within ``rtol=1e-12``; ``"numpy"`` is bit-identical
      to ``"reference"``.

    When no compiled backend (numba or cc+cffi) exists, both stages run
    their ``"numpy"`` tier: silently for the default, which then resolves
    to ``"numpy"`` (``kernel`` / ``abduction_kernel`` report the tier that
    really runs), and with a once-per-process ``RuntimeWarning`` when
    ``"compiled"`` was named.
    Checkpoint fingerprints do not include the tier: a corpus prepared
    on one tier reloads cleanly on another.

    ``on_error`` sets the engine-wide fault policy (overridable per call):
    ``"raise"`` fail-stops (the default), ``"degrade"`` retries failing
    traces on the scalar reference path with the same seeds (bit-identical
    when the retry succeeds, loud when it does not), and ``"skip"``
    additionally drops traces whose scalar retry also fails, recording a
    :class:`~repro.runtime.faults.TraceFault` in the result's
    :class:`~repro.runtime.faults.FaultLog`.  ``shard_timeout_s`` /
    ``max_retries`` / ``retry_backoff_s`` configure the pool supervisor:
    a worker killed mid-shard or hung past the timeout is detected, its
    shard retried on a fresh pool with the same deterministic seeds, and
    an irrecoverable pool falls back to in-process execution — results
    stay bit-identical to serial whenever every retry succeeds.
    """

    def __init__(
        self,
        veritas_config: VeritasConfig | None = None,
        n_samples: int = 5,
        seed: SeedLike = 0,
        n_workers: int | None = None,
        use_batch: bool = True,
        kernel: str | None = None,
        abduction_kernel: str | None = None,
        on_error: str = "raise",
        shard_timeout_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.abduction = VeritasAbduction(veritas_config, kernel=abduction_kernel)
        self.abduction_kernel = self.abduction.kernel
        self.n_samples = n_samples
        self.n_workers = n_workers
        self.use_batch = use_batch
        self.kernel = resolve_kernel(kernel)
        self.on_error = resolve_on_error(on_error)
        self.supervisor = SupervisorConfig(
            timeout_s=shard_timeout_s,
            max_retries=max_retries,
            backoff_s=retry_backoff_s,
        )
        self._seed = seed

    # ------------------------------------------------------------------
    def evaluate_trace(
        self,
        trace_index: int,
        ground_truth: PiecewiseConstantTrace,
        setting_a: Setting,
        setting_b: Setting,
        seed: SeedLike = None,
    ) -> TraceCounterfactual:
        """Answer the counterfactual for one ground-truth trace."""
        # 1. Deploy Setting A; this log is the only observable.
        log_a = run_setting(setting_a, ground_truth)
        metrics_a = compute_metrics(log_a)

        # Replays can outlast the original session (different ABR/buffer),
        # so reconstructions are extended well past the video duration.
        replay_horizon = max(
            ground_truth.end_time, 3.0 * setting_b.video.duration_s
        )

        # 2a/2b/2c. Truth, Baseline reconstruction, and the K Veritas
        # posterior samples, replayed under Setting B — batched in lockstep
        # groups when enabled (bit-identical to per-lane serial replay).
        base = baseline_trace(log_a, duration_s=replay_horizon)
        posterior = self.abduction.solve(log_a, trace_duration_s=replay_horizon)
        rng = ensure_rng(seed)
        samples = posterior.sample_traces(self.n_samples, seed=rng)
        lanes = [ground_truth.extended(replay_horizon), base]
        lanes.extend(sample.extended(replay_horizon) for sample in samples)
        metrics = self._replay_tasks([(setting_b, lane) for lane in lanes])

        return TraceCounterfactual(
            trace_index=trace_index,
            setting_a_metrics=metrics_a,
            truth_metrics=metrics[0],
            baseline_metrics=metrics[1],
            veritas_metrics=tuple(metrics[2:]),
        )

    # ------------------------------------------------------------------
    def _prepare_trace(
        self,
        trace_index: int,
        ground_truth: PiecewiseConstantTrace,
        setting_a: Setting,
        seed: SeedLike,
    ) -> PreparedTrace:
        """Deploy Setting A, solve abduction and draw the K samples once."""
        log_a = run_setting(setting_a, ground_truth)
        metrics_a = compute_metrics(log_a)
        replay_horizon = max(
            ground_truth.end_time, 3.0 * setting_a.video.duration_s
        )
        base = baseline_trace(log_a, duration_s=replay_horizon)
        posterior = self.abduction.solve(log_a, trace_duration_s=replay_horizon)
        rng = ensure_rng(seed)
        samples = tuple(posterior.sample_traces(self.n_samples, seed=rng))
        return PreparedTrace(
            trace_index=trace_index,
            ground_truth=ground_truth,
            log_a=log_a,
            setting_a_metrics=metrics_a,
            replay_horizon_s=replay_horizon,
            baseline=base,
            samples=samples,
        )

    def _prepare_traces(
        self,
        indices: "Iterable[int]",
        traces: "list[PiecewiseConstantTrace]",
        setting_a: Setting,
        seeds: "list[int]",
    ) -> "list[PreparedTrace]":
        """Prepare ``traces[i]`` for every ``i`` in ``indices``, batched.

        The corpus-lockstep twin of :meth:`_prepare_trace`: ground-truth
        traces sharing a boundary grid deploy Setting A as one fused
        :class:`~repro.player.batch_session.BatchStreamingSession`
        (BBA/BOLA/MPC decide vectorised; other ABRs take the per-lane
        scalar-decision fallback inside the batch loop), and the
        resulting logs run
        abduction and posterior sampling through the stacked inference
        pipeline (:meth:`VeritasAbduction.solve_batch` /
        :func:`~repro.core.abduction.sample_traces_batch`).  Every
        per-trace output is bit-identical to :meth:`_prepare_trace` under
        the same seed (pinned by ``tests/test_batch_prepare.py``); traces
        with no same-grid peers, and everything when ``use_batch`` is off
        or the ABR needs serial replay, fall back to the per-trace path.
        """
        indices = list(indices)
        if (
            not self.use_batch
            or len(indices) == 1
            or not abr_supports_batch_replay(setting_a.make_abr())
        ):
            return [
                self._prepare_trace(i, traces[i], setting_a, seeds[i])
                for i in indices
            ]

        # 1. Deployment: one lockstep session per shared boundary grid
        #    (the corpus generators emit one uniform grid by construction,
        #    so this is usually a single group).
        groups: "dict[tuple, list[int]]" = {}
        for pos, i in enumerate(indices):
            groups.setdefault(boundary_key(traces[i]), []).append(pos)
        logs: "list[SessionLog | None]" = [None] * len(indices)
        metrics: "list[QoEMetrics | None]" = [None] * len(indices)
        for positions in groups.values():
            if len(positions) == 1:
                pos = positions[0]
                log = run_setting(setting_a, traces[indices[pos]])
                logs[pos] = log
                metrics[pos] = compute_metrics(log)
                continue
            lanes = [traces[indices[pos]] for pos in positions]
            log_batch = run_setting_batch(setting_a, lanes, kernel=self.kernel)
            lane_metrics = compute_metrics_batch(log_batch)
            for k, pos in enumerate(positions):
                logs[pos] = log_batch.lane(k)
                metrics[pos] = lane_metrics[k]

        # 2. Reconstructions: baselines per trace, then abduction and the
        #    K posterior samples once per same-shape session stack.
        horizon_floor = 3.0 * setting_a.video.duration_s
        horizons = [max(traces[i].end_time, horizon_floor) for i in indices]
        baselines = [
            baseline_trace(log, duration_s=horizon)
            for log, horizon in zip(logs, horizons)
        ]
        posteriors = self.abduction.solve_batch(logs, trace_duration_s=horizons)
        samples = sample_traces_batch(
            posteriors, self.n_samples, [seeds[i] for i in indices],
            kernel=self.abduction_kernel,
        )

        return [
            PreparedTrace(
                trace_index=i,
                ground_truth=traces[i],
                log_a=logs[pos],
                setting_a_metrics=metrics[pos],
                replay_horizon_s=horizons[pos],
                baseline=baselines[pos],
                samples=tuple(samples[pos]),
            )
            for pos, i in enumerate(indices)
        ]

    def _replay_tasks(
        self, tasks: "list[tuple[Setting, PiecewiseConstantTrace]]"
    ) -> "list[QoEMetrics]":
        """QoE metrics of one session per ``(setting, trace)`` task.

        The batch path fuses tasks sharing a boundary grid, video, RTT and
        request overhead into one lockstep replay — across *different*
        settings (ABR / buffer capacity become per-partition / per-lane),
        so a query sweep's truth, baseline and posterior-sample lanes all
        amortise the chunk loop — and reads metrics straight off the
        column logs.  Leftover singleton lanes, and every lane when
        ``use_batch`` is off or a setting's ABR needs per-chunk feedback,
        replay serially.  Both paths produce bit-identical metrics (pinned
        by ``tests/test_batch_replay.py``).
        """
        metrics: "list[QoEMetrics | None]" = [None] * len(tasks)
        batchable: dict[int, bool] = {}
        # Lane traces repeat across tasks (extended() returns self when the
        # span already covers the horizon), so hash each boundary array
        # once per distinct object, not once per task.
        boundary_keys: dict[int, tuple] = {}
        groups: dict[tuple, list[int]] = {}
        for i, (setting, trace) in enumerate(tasks):
            sid = id(setting)
            ok = batchable.get(sid)
            if ok is None:
                ok = batchable[sid] = self.use_batch and abr_supports_batch_replay(
                    setting.make_abr()
                )
            if not ok:
                metrics[i] = compute_metrics(run_setting(setting, trace))
                continue
            tid = id(trace)
            bkey = boundary_keys.get(tid)
            if bkey is None:
                bkey = boundary_keys[tid] = boundary_key(trace)
            config = setting.config
            groups.setdefault(
                (bkey, id(setting.video), config.rtt_s, config.request_overhead_s),
                [],
            ).append(i)

        for indices in groups.values():
            if len(indices) == 1:
                i = indices[0]
                setting, trace = tasks[i]
                metrics[i] = compute_metrics(run_setting(setting, trace))
                continue
            # One partition per run of same-setting tasks (tasks arrive
            # setting-major, so each setting contributes one partition).
            lane_groups: "list[LaneGroup]" = []
            current_sid = None
            for i in indices:
                setting, trace = tasks[i]
                if id(setting) != current_sid:
                    current_sid = id(setting)
                    lane_groups.append(
                        LaneGroup(setting.make_abr, setting.config, [trace])
                    )
                else:
                    lane_groups[-1].traces.append(trace)
            video = tasks[indices[0]][0].video
            log_batch = BatchStreamingSession.fused(
                video, lane_groups, kernel=self.kernel
            ).run()
            for i, m in zip(indices, compute_metrics_batch(log_batch)):
                metrics[i] = m
        return metrics

    def _replay_settings(
        self,
        prepared_traces: "list[PreparedTrace]",
        settings_b: "list[Setting]",
    ) -> "list[list[TraceCounterfactual]]":
        """Answer several Setting-B queries for several prepared traces.

        Collects every replay lane of every query — truth, baseline and
        the K posterior samples per trace — into one task list so
        :meth:`_replay_tasks` can fuse lanes across both traces and
        settings, then reassembles the per-setting per-trace
        counterfactuals.  Mirrors the replay half of
        :meth:`evaluate_trace` exactly: the reconstructions hold their
        final value beyond their span, so extending them to the
        (Setting-B-dependent) replay horizon yields bit-identical session
        logs.
        """
        tasks: "list[tuple[Setting, PiecewiseConstantTrace]]" = []
        lane_counts: "list[int]" = []
        # Settings sharing a replay horizon (the common sweep shape) reuse
        # one extended lane list per trace instead of rebuilding identical
        # trace objects once per setting.
        lane_cache: "dict[tuple[int, float], list[PiecewiseConstantTrace]]" = {}
        for setting_b in settings_b:
            for prepared in prepared_traces:
                gt = prepared.ground_truth
                horizon = max(gt.end_time, 3.0 * setting_b.video.duration_s)
                key = (id(prepared), horizon)
                lanes = lane_cache.get(key)
                if lanes is None:
                    lanes = [
                        gt.extended(horizon),
                        prepared.baseline.extended(horizon),
                    ]
                    lanes.extend(s.extended(horizon) for s in prepared.samples)
                    lane_cache[key] = lanes
                lane_counts.append(len(lanes))
                tasks.extend((setting_b, lane) for lane in lanes)

        metrics = self._replay_tasks(tasks)

        out: "list[list[TraceCounterfactual]]" = []
        pos = 0
        counts = iter(lane_counts)
        for setting_b in settings_b:
            per_setting = []
            for prepared in prepared_traces:
                count = next(counts)
                chunk = metrics[pos : pos + count]
                pos += count
                per_setting.append(
                    TraceCounterfactual(
                        trace_index=prepared.trace_index,
                        setting_a_metrics=prepared.setting_a_metrics,
                        truth_metrics=chunk[0],
                        baseline_metrics=chunk[1],
                        veritas_metrics=tuple(chunk[2:]),
                    )
                )
            out.append(per_setting)
        return out

    def _replay_prepared(
        self, prepared: PreparedTrace, setting_b: Setting
    ) -> TraceCounterfactual:
        """Answer one Setting-B query from one trace's cached reconstructions."""
        return self._replay_settings([prepared], [setting_b])[0][0]

    def _replay_prepared_serial(
        self, prepared: PreparedTrace, setting_b: Setting
    ) -> TraceCounterfactual:
        """The scalar reference path for one (trace, setting) answer.

        One :func:`run_setting` session per lane, no batching and no fast
        kernels anywhere — the deterministic retry target the ``on_error``
        degrade policy falls back to (bit-identical to the batch path by
        the parity contract).
        """
        gt = prepared.ground_truth
        horizon = max(gt.end_time, 3.0 * setting_b.video.duration_s)
        lanes = [gt.extended(horizon), prepared.baseline.extended(horizon)]
        lanes.extend(s.extended(horizon) for s in prepared.samples)
        metrics = [
            compute_metrics(run_setting(setting_b, lane)) for lane in lanes
        ]
        return TraceCounterfactual(
            trace_index=prepared.trace_index,
            setting_a_metrics=prepared.setting_a_metrics,
            truth_metrics=metrics[0],
            baseline_metrics=metrics[1],
            veritas_metrics=tuple(metrics[2:]),
        )

    # ------------------------------------------------------------------
    # Fault-isolation wrappers: same work as the methods they wrap, but a
    # failure in the batch fast path degrades to the scalar reference path
    # (same seeds, bit-identical when it succeeds) before — under "skip"
    # only — a trace is dropped with a structured TraceFault.
    # ------------------------------------------------------------------
    def _prepare_traces_safe(
        self,
        indices: "Iterable[int]",
        traces: "list[PiecewiseConstantTrace]",
        setting_a: Setting,
        seeds: "list[int]",
        policy: str,
        checkpoint: "tuple[CheckpointStore, dict] | None" = None,
    ) -> "tuple[list[PreparedTrace], list[TraceFault]]":
        """Prepare a shard under ``policy``; returns ``(prepared, faults)``.

        Runs in pool workers and in-process alike.  Newly prepared traces
        are persisted to ``checkpoint`` as soon as the shard completes, so
        a crash later in the run never loses finished work.
        """
        indices = list(indices)
        faults: "list[TraceFault]" = []
        if policy == "raise":
            prepared = self._prepare_traces(indices, traces, setting_a, seeds)
        else:
            try:
                prepared = self._prepare_traces(
                    indices, traces, setting_a, seeds
                )
            except Exception as batch_exc:
                faults.append(
                    TraceFault.from_exception(
                        -1, "prepare", batch_exc, tier="batch", skipped=False
                    )
                )
                prepared = []
                for i in indices:
                    try:
                        prepared.append(
                            self._prepare_trace(
                                i, traces[i], setting_a, seeds[i]
                            )
                        )
                    except Exception as exc:
                        if policy == "degrade":
                            raise
                        faults.append(
                            TraceFault.from_exception(
                                i,
                                "prepare",
                                exc,
                                tier="reference",
                                retries=1,
                                skipped=True,
                            )
                        )
        self._checkpoint_save(checkpoint, prepared)
        return prepared, faults

    def _replay_one_safe(
        self, prepared: PreparedTrace, setting_b: Setting, policy: str
    ) -> "tuple[TraceCounterfactual | None, list[TraceFault]]":
        """One (trace, setting) answer under ``policy``.

        Returns ``(outcome, faults)`` where ``outcome`` is ``None`` only
        when ``policy == "skip"`` and the scalar retry also failed.
        """
        if policy == "raise":
            return self._replay_prepared(prepared, setting_b), []
        try:
            return self._replay_prepared(prepared, setting_b), []
        except Exception as batch_exc:
            try:
                outcome = self._replay_prepared_serial(prepared, setting_b)
            except Exception as exc:
                if policy == "degrade":
                    raise
                return None, [
                    TraceFault.from_exception(
                        prepared.trace_index,
                        "replay",
                        exc,
                        tier="reference",
                        retries=1,
                        skipped=True,
                        setting=setting_b.describe(),
                    )
                ]
            return outcome, [
                TraceFault.from_exception(
                    prepared.trace_index,
                    "replay",
                    batch_exc,
                    tier="batch",
                    retries=1,
                    skipped=False,
                    setting=setting_b.describe(),
                )
            ]

    # ------------------------------------------------------------------
    # Checkpointing: content-addressed (trace, Setting-A, model, seed)
    # fingerprints name each prepared trace's artifact file.
    # ------------------------------------------------------------------
    def _checkpoint_base(self, setting_a: Setting) -> list:
        """Fingerprint parts shared by every trace of a prepared corpus."""
        config = self.abduction.config
        video = setting_a.video
        session = setting_a.config
        return [
            "prepared-trace",
            _abr_fingerprint(setting_a.make_abr()),
            session.buffer_capacity_s,
            session.rtt_s,
            session.request_overhead_s,
            video.chunk_duration_s,
            np.asarray([level.bitrate_mbps for level in video.ladder]),
            video._sizes,
            video._ssim,
            repr(sorted(dataclasses.asdict(config).items())),
            self.n_samples,
        ]

    def _checkpoint_key(self, base: list, trace, seed: int) -> str:
        return fingerprint(
            [*base, np.asarray(trace.boundaries), np.asarray(trace.values), seed]
        )

    @staticmethod
    def _checkpoint_save(
        checkpoint: "tuple[CheckpointStore, dict] | None",
        prepared: "list[PreparedTrace]",
    ) -> None:
        if checkpoint is None:
            return
        store, keys = checkpoint
        for item in prepared:
            key = keys.get(item.trace_index)
            if key is not None and key not in store:
                store.save(key, _prepared_payload(item))

    # ------------------------------------------------------------------
    def prepare_corpus(
        self,
        traces: list[PiecewiseConstantTrace],
        setting_a: Setting,
        n_workers: int | None = None,
        on_error: str | None = None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> PreparedCorpus:
        """Deploy Setting A and solve abduction for a whole corpus, once.

        The returned :class:`PreparedCorpus` answers any number of
        Setting-B queries through :meth:`evaluate_many` without re-running
        deployment or inference.  Per-trace seeding follows the same
        ``spawn_seeds`` schedule as :meth:`evaluate_corpus` — indexed by
        *original* corpus position, so traces keep their seeds even when
        ``on_error="skip"`` drops neighbours — and downstream replays are
        bit-identical to the end-to-end path.

        With ``use_batch`` (the default) the preparation itself runs
        corpus-lockstep: same-grid traces deploy Setting A as one fused
        batch session and same-shape logs share stacked abduction and
        sampling passes (see :meth:`_prepare_traces`) — bit-identical to
        the per-trace path.  ``n_workers`` > 1 fans contiguous trace
        shards over the supervised fork pool; each worker batches within
        its shard, so pooled results equal serial ones float for float.

        ``on_error`` (default: the engine-level policy) gates three fault
        classes: invalid input traces (NaN/Inf bandwidths etc. — rejected
        by validation with a ``stage="validate"`` fault under
        ``"degrade"``/``"skip"``, raised as
        :class:`~repro.net.validation.TraceValidationError` under
        ``"raise"``), per-trace preparation failures (degraded to the
        scalar path, then skipped), and pool failures (supervised
        retries, then in-process fallback).

        ``checkpoint_dir`` enables checkpoint/resume: each completed
        trace's artifacts (Setting-A log + posterior draws) are persisted
        as one content-addressed ``.npz`` keyed by (trace, Setting-A,
        abduction model, seed), and traces already present are reloaded
        bit-identically without re-running deployment or abduction.
        """
        if not traces:
            raise ValueError("need at least one ground-truth trace")
        policy = resolve_on_error(on_error, self.on_error)
        workers = self._resolve_workers(n_workers)
        traces = list(traces)
        seeds = spawn_seeds(self._seed, len(traces))
        faults = FaultLog()
        corpus = PreparedCorpus(
            setting_a=setting_a, n_samples=self.n_samples, faults=faults
        )

        # Input validation gate (malformed traces would otherwise send the
        # replay kernels into undefined behaviour, NaN poisoning included).
        if policy == "raise":
            check_corpus(traces)
            valid = list(range(len(traces)))
        else:
            diagnostics = validate_corpus(traces)
            for i, findings in diagnostics.items():
                faults.record_trace(
                    TraceFault(
                        trace_index=i,
                        stage="validate",
                        error_type="TraceValidationError",
                        message="; ".join(str(d) for d in findings),
                        tier="input",
                        skipped=True,
                    )
                )
            valid = [i for i in range(len(traces)) if i not in diagnostics]

        # Checkpoint resume: reload every already-prepared trace.
        checkpoint = None
        loaded: "dict[int, PreparedTrace]" = {}
        if checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
            base = self._checkpoint_base(setting_a)
            keys = {
                i: self._checkpoint_key(base, traces[i], seeds[i])
                for i in valid
            }
            horizon_floor = 3.0 * setting_a.video.duration_s
            for i in valid:
                payload = store.load(keys[i])
                if payload is not None:
                    prepared = _prepared_from_payload(
                        payload, i, traces[i], horizon_floor
                    )
                    if prepared is not None:
                        loaded[i] = prepared
            checkpoint = (store, keys)

        todo = [i for i in valid if i not in loaded]
        prepared_all = list(loaded.values())
        if todo and self._use_pool(workers, len(todo)):
            shard_count = min(workers, len(todo))
            shards = [
                tuple(int(i) for i in shard)
                for shard in np.array_split(np.asarray(todo), shard_count)
                if shard.size
            ]
            for prepared, shard_faults in self._run_pool(
                _prepare_shard,
                shards,
                (self, traces, setting_a, seeds, policy, checkpoint),
                shard_count,
                fault_log=faults,
            ):
                prepared_all.extend(prepared)
                faults.traces.extend(shard_faults)
        elif todo:
            prepared, shard_faults = self._prepare_traces_safe(
                todo, traces, setting_a, seeds, policy, checkpoint
            )
            prepared_all.extend(prepared)
            faults.traces.extend(shard_faults)

        prepared_all.sort(key=lambda item: item.trace_index)
        corpus.per_trace.extend(prepared_all)
        return corpus

    def evaluate_many(
        self,
        prepared: PreparedCorpus,
        settings_b: "list[Setting]",
        n_workers: int | None = None,
        on_error: str | None = None,
    ) -> "list[CounterfactualResult]":
        """Answer several Setting-B queries against one prepared corpus.

        Fans the (trace × setting) replay tasks over the supervised
        process pool when ``n_workers`` > 1; results are bit-identical to
        running :meth:`evaluate_corpus` once per setting (see the parity
        suite).

        ``on_error`` (default: the engine-level policy) controls per-trace
        replay isolation: under ``"degrade"``/``"skip"`` a replay that
        fails in the fused batch path is retried per trace (batch first,
        then the scalar reference path — same inputs, bit-identical when
        it succeeds), and under ``"skip"`` a trace whose scalar retry also
        fails is dropped from that query's ``per_trace`` with a
        :class:`~repro.runtime.faults.TraceFault`.  All returned results
        share one :class:`~repro.runtime.faults.FaultLog` via their
        ``faults`` field.
        """
        if not prepared.per_trace:
            raise ValueError("prepared corpus is empty")
        if not settings_b:
            raise ValueError("need at least one Setting-B query")
        policy = resolve_on_error(on_error, self.on_error)
        workers = self._resolve_workers(n_workers)
        faults = FaultLog()
        results = [
            CounterfactualResult(
                setting_a=prepared.setting_a.describe(),
                setting_b=setting_b.describe(),
                per_trace=[None] * len(prepared.per_trace),
                faults=faults,
            )
            for setting_b in settings_b
        ]
        tasks = [
            (si, ti)
            for si in range(len(settings_b))
            for ti in range(len(prepared.per_trace))
        ]
        if self._use_pool(workers, len(tasks)):
            outcomes = self._run_pool(
                _replay_task,
                tasks,
                (self, list(prepared.per_trace), list(settings_b), policy),
                min(workers, len(tasks)),
                fault_log=faults,
            )
            for si, ti, outcome, task_faults in outcomes:
                results[si].per_trace[ti] = outcome
                faults.traces.extend(task_faults)
        else:
            # In-process: hand the whole (setting x trace) grid over at
            # once so the lockstep batch path can fuse replay lanes across
            # traces AND settings.
            try:
                per_setting = self._replay_settings(
                    prepared.per_trace, settings_b
                )
                for si in range(len(settings_b)):
                    results[si].per_trace = per_setting[si]
            except Exception as batch_exc:
                if policy == "raise":
                    raise
                # The fused replay died: isolate per (trace, setting),
                # degrading each casualty to the scalar reference path.
                faults.record_trace(
                    TraceFault.from_exception(
                        -1, "replay", batch_exc, tier="batch", skipped=False
                    )
                )
                for si, setting_b in enumerate(settings_b):
                    for ti, item in enumerate(prepared.per_trace):
                        outcome, task_faults = self._replay_one_safe(
                            item, setting_b, policy
                        )
                        results[si].per_trace[ti] = outcome
                        faults.traces.extend(task_faults)
        # Skipped (trace, setting) answers leave None placeholders.
        for result in results:
            result.per_trace = [t for t in result.per_trace if t is not None]
        return results

    def evaluate_corpus(
        self,
        traces: list[PiecewiseConstantTrace],
        setting_a: Setting,
        setting_b: Setting,
        n_workers: int | None = None,
        on_error: str | None = None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> CounterfactualResult:
        """Answer the counterfactual across a whole corpus.

        ``n_workers`` overrides the engine-level setting for this call;
        values > 1 evaluate on a process pool with the same deterministic
        per-trace seeding as the serial path (the results are bit-identical,
        only wall time changes).  ``on_error`` and ``checkpoint_dir`` are
        forwarded to :meth:`prepare_corpus` / :meth:`evaluate_many`; the
        returned result's ``faults`` log covers both stages.
        """
        prepared = self.prepare_corpus(
            traces,
            setting_a,
            n_workers=n_workers,
            on_error=on_error,
            checkpoint_dir=checkpoint_dir,
        )
        result = self.evaluate_many(
            prepared, [setting_b], n_workers=n_workers, on_error=on_error
        )[0]
        # One log covering both stages, preparation incidents first.
        result.faults.traces[:0] = prepared.faults.traces
        result.faults.pool[:0] = prepared.faults.pool
        return result

    # ------------------------------------------------------------------
    def _resolve_workers(self, n_workers: int | None) -> int | None:
        workers = self.n_workers if n_workers is None else n_workers
        if workers is not None and workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {workers}")
        return workers

    @staticmethod
    def _use_pool(workers: int | None, n_tasks: int) -> bool:
        return (
            workers is not None
            and workers > 1
            and n_tasks > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _run_pool(
        self,
        fn,
        tasks,
        state: tuple,
        workers: int,
        fault_log: FaultLog | None = None,
    ) -> list:
        """Fan ``fn`` over ``tasks`` on supervised forked workers.

        The supervisor (:func:`repro.runtime.supervisor.run_supervised`)
        adds per-shard timeouts, worker-death detection, bounded retries
        with backoff and in-process fallback; its incidents land on
        ``fault_log``.  The in-process fallback executes ``fn`` in the
        parent, where ``_FORK_STATE`` is also installed, so it sees the
        exact state the workers would have inherited.
        """
        global _FORK_STATE
        context = multiprocessing.get_context("fork")
        with _FORK_LOCK:
            _FORK_STATE = state
            try:
                return run_supervised(
                    fn,
                    list(tasks),
                    workers=workers,
                    mp_context=context,
                    config=self.supervisor,
                    fault_log=fault_log,
                )
            finally:
                _FORK_STATE = None
