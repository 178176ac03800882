"""The benchmark's workloads: inputs, one closed-loop round, and checks.

Every workload drives the public ``repro`` API with default arguments
only (no ``kernel=`` / ``abduction_kernel=``).  Its inputs come from the
``--seed`` alone.  A *round* is the unit the closed loop repeats:

* counterfactual workloads (``sweep``, ``corpus``): one
  ``prepare_corpus`` followed by one ``evaluate_many`` over every query.
  An answer is one (trace x Setting-B query) counterfactual; every answer
  of a round becomes available when the round returns, so each answer's
  latency is the round's wall time;
* ``interventional``: one pass over the prepared decision points.  An
  answer is one decision: ``VeritasDownloadPredictor.predict`` for every
  ladder quality of the next chunk, back to back; its latency is the
  decision's own wall time.

After the timed phase each workload recomputes a fixed subsample of its
answers on the scalar reference path (``use_batch=False``,
``kernel="reference"``, ``abduction_kernel="reference"``, or the §4.4
steps of an interventional prediction on the reference abduction tier)
and counts every answer that differs beyond ``rtol=1e-12`` as failed.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RTOL = 1e-12
"""The tier contract: compiled floats agree with the reference within this."""

VIDEO_SEED = 7
N_SAMPLES = 5
N_SESSIONS = 8
"""Interventional sessions, with means spread over 0.5-10 Mbps."""
EVERY = 10
"""An interventional decision point every ``EVERY``-th chunk."""


@dataclass
class RoundResult:
    """What one round produced."""

    attempted: int
    answered: int
    """Answers the round asked for / got back (a skipped trace is missing)."""
    wall_s: float
    latencies_s: "list[tuple[float, int]]"
    """(latency, number of answers with that latency)."""
    errors: "dict[str, list[float]]" = field(default_factory=dict)
    """Per-answer absolute errors vs the truth, by accuracy metric."""
    faults_degraded: int = 0
    faults_skipped: int = 0
    decisions: int = 0


def _setting_a():
    from repro import Setting, SessionConfig, make_abr, paper_video

    return Setting(
        name="settingA",
        abr_factory=lambda: make_abr("mpc"),
        config=SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08),
        video=paper_video(seed=VIDEO_SEED),
    )


def _queries(setting_a, names):
    from repro import cap_bitrate, change_abr, change_buffer, change_ladder, higher_ladder

    make = {
        "bba": lambda a: change_abr(a, "bba"),
        "bola": lambda a: change_abr(a, "bola"),
        "buffer10": lambda a: change_buffer(a, 10.0),
        "buffer30": lambda a: change_buffer(a, 30.0),
        "higher_ladder": lambda a: change_ladder(a, higher_ladder(), seed=0),
        "cap1.5": lambda a: cap_bitrate(a, 1.5),
        "bba_buffer30": lambda a: change_abr(change_buffer(a, 30.0), "bba"),
        "bola_buffer30": lambda a: change_abr(change_buffer(a, 30.0), "bola"),
    }
    return [make[name](setting_a) for name in names]


def _metrics_close(a, b) -> bool:
    """Two QoEMetrics agree field by field within the tier contract."""
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if not math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0):
            return False
    return True


def _answers_close(a, b) -> bool:
    return (
        a.trace_index == b.trace_index
        and _metrics_close(a.truth_metrics, b.truth_metrics)
        and _metrics_close(a.baseline_metrics, b.baseline_metrics)
        and len(a.veritas_metrics) == len(b.veritas_metrics)
        and all(_metrics_close(x, y) for x, y in zip(a.veritas_metrics, b.veritas_metrics))
    )


class Counterfactual:
    """prepare_corpus + evaluate_many over a seeded corpus.

    ``groups`` lists (trace count, trace duration) pairs; traces of one
    duration share a boundary grid, so several groups make Setting-A
    deployment split into several lockstep sessions.  ``checkpoint``
    points ``prepare_corpus`` at a checkpoint directory that set-up fills
    for the first half of the corpus; each round then loads that half and
    writes the other, and the files a round wrote are removed (untimed)
    before the next one.
    """

    REFERENCE_TRACES = 2

    def __init__(self, name, groups, queries, workdir: Path, checkpoint: bool = False):
        self.groups = groups
        self.query_names = queries
        self.checkpoint = checkpoint
        self.checkpoint_dir = workdir / f"checkpoint-{name}" if checkpoint else None
        self._kept: "list[list]" = []

    def setup(self, seed: int) -> None:
        from repro import CounterfactualEngine, paper_corpus, paper_veritas_config

        rng = np.random.default_rng(seed)
        groups = [
            paper_corpus(count=count, duration_s=duration, seed=int(rng.integers(2**31)))
            for count, duration in self.groups
        ]
        # Interleave the duration groups so every prefix of the corpus
        # (the warm-up, the checkpointed half, the reference subsample) spans
        # all of them.
        longest = max(len(g) for g in groups)
        self.traces = [g[i] for i in range(longest) for g in groups if i < len(g)]
        self.setting_a = _setting_a()
        self.queries = _queries(self.setting_a, self.query_names)
        self.engine_seed = int(rng.integers(2**31))
        self.engine = CounterfactualEngine(
            paper_veritas_config(), n_samples=N_SAMPLES, seed=self.engine_seed
        )
        if self.checkpoint:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
            half = len(self.traces) // 2
            self.engine.prepare_corpus(
                self.traces[:half], self.setting_a, checkpoint_dir=self.checkpoint_dir
            )
            self._initial = set(p.name for p in self.checkpoint_dir.iterdir())

    def warm_up(self) -> None:
        """One full round, so the library's first-use caches (TCP round
        schedules, ABR decision tables, compiled-kernel builds) fill
        before the timed phase."""
        self.round()
        self.after_round()
        self._kept.clear()

    @property
    def round_size(self) -> int:
        return len(self.traces) * len(self.queries)

    def round(self) -> RoundResult:
        attempted = self.round_size
        kwargs = {"checkpoint_dir": self.checkpoint_dir} if self.checkpoint else {}
        t0 = time.perf_counter()
        prepared = self.engine.prepare_corpus(self.traces, self.setting_a, **kwargs)
        results = self.engine.evaluate_many(prepared, self.queries)
        wall = time.perf_counter() - t0
        answered = sum(len(r.per_trace) for r in results)
        faults = list(prepared.faults.traces) + list(results[0].faults.traces)
        out = RoundResult(
            attempted=attempted,
            answered=answered,
            wall_s=wall,
            latencies_s=[(wall, answered)],
            faults_degraded=sum(not f.skipped for f in faults),
            faults_skipped=sum(f.skipped for f in faults),
        )
        errors = out.errors
        for result in results:
            for metric, key in (
                ("avg_bitrate_mbps", "cf_bitrate_err_mbps"),
                ("rebuffer_percent", "cf_rebuf_err_pct"),
            ):
                errors.setdefault(key, []).extend(
                    result.prediction_errors(metric)["veritas"].tolist()
                )
        self._kept.append(
            [
                [t for t in result.per_trace if t.trace_index < self.REFERENCE_TRACES]
                for result in results
            ]
        )
        return out

    def advance(self) -> None:
        """Every round replays the same corpus."""

    def after_round(self) -> None:
        """Undo a round's side effects (untimed)."""
        if self.checkpoint:
            for path in self.checkpoint_dir.iterdir():
                if path.name not in self._initial:
                    path.unlink()

    def reference_check(self) -> "tuple[int, int]":
        """(answers checked, mismatches) against the scalar reference path."""
        from repro import CounterfactualEngine, paper_veritas_config

        engine = CounterfactualEngine(
            paper_veritas_config(),
            n_samples=N_SAMPLES,
            seed=self.engine_seed,
            use_batch=False,
            kernel="reference",
            abduction_kernel="reference",
        )
        # Per-trace seeds are a prefix-stable schedule, so the first
        # traces of the corpus prepare identically on their own.
        prepared = engine.prepare_corpus(self.traces[: self.REFERENCE_TRACES], self.setting_a)
        reference = engine.evaluate_many(prepared, self.queries)
        checked = mismatches = 0
        for kept in self._kept:
            for answers, ref in zip(kept, reference):
                expected = {t.trace_index: t for t in ref.per_trace}
                for index in range(self.REFERENCE_TRACES):
                    checked += 1
                    got = next((t for t in answers if t.trace_index == index), None)
                    if got is None or index not in expected or not _answers_close(
                        got, expected[index]
                    ):
                        mismatches += 1
        return checked, mismatches

    def close(self) -> None:
        if self.checkpoint:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


class Interventional:
    """Per-request download-time predictions on RandomABR sessions.

    Set-up plays ``N_SESSIONS`` RandomABR sessions over random-walk traces
    whose means span 0.5-10 Mbps (the Fig. 12 shape) and cuts a history
    prefix at every ``EVERY``-th chunk.  A decision predicts the download
    time of that next chunk at every ladder quality.  A round is the
    decisions of one session; :meth:`advance` moves on to the next
    session.  Every session has the same decision points, so rounds do
    equal work.
    """

    def __init__(self):
        self._kept: "dict[int, list[list[float]]]" = {}
        self._next = 0

    def setup(self, seed: int) -> None:
        from repro import (
            RandomABRAlgorithm,
            SessionConfig,
            StreamingSession,
            VeritasDownloadPredictor,
            paper_veritas_config,
            paper_video,
            random_walk_trace,
        )

        rng = np.random.default_rng(seed)
        video = paper_video(seed=VIDEO_SEED)
        config = SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08)
        self.decisions = []
        self.sessions = []
        for mean in np.linspace(0.5, 10.0, N_SESSIONS):
            trace = random_walk_trace(
                mean_mbps=float(mean), duration=1800.0, interval=5.0, step_mbps=0.5,
                stay_prob=0.6, low=0.3, high=10.0, seed=int(rng.integers(2**31)),
            )
            abr = RandomABRAlgorithm(seed=int(rng.integers(2**31)))
            log = StreamingSession(video, abr, trace, config).run()
            self.sessions.append(len(self.decisions))
            for n in range(EVERY, log.n_chunks, EVERY):
                record = log.records[n]
                sizes = [video.chunk_size_bytes(n, q) for q in range(video.n_qualities)]
                self.decisions.append((log.truncated(n), sizes, record))
        self.config = paper_veritas_config()
        self.predictor = VeritasDownloadPredictor(self.config)
        self.sessions.append(len(self.decisions))
        self._next = 0

    def warm_up(self) -> None:
        """One decision per session: the first-use caches of the solve
        and the TCP estimator fill before the timed phase."""
        for first in self.sessions[:-1]:
            self._predict(*self.decisions[first])

    @property
    def round_size(self) -> int:
        k = self._next
        return self.sessions[k + 1] - self.sessions[k]

    def _predict(self, history, sizes, record) -> "list[float]":
        return [
            self.predictor.predict(
                history, size, record.start_time_s, record.tcp_state
            ).download_time_s
            for size in sizes
        ]

    def round(self) -> RoundResult:
        latencies = []
        dl_err = []
        clock = time.perf_counter
        k = self._next
        first, stop = self.sessions[k], self.sessions[k + 1]
        t0 = clock()
        for i in range(first, stop):
            history, sizes, record = self.decisions[i]
            start = clock()
            predicted = self._predict(history, sizes, record)
            latencies.append((clock() - start, 1))
            if i % 10 == 0:
                self._kept.setdefault(i, []).append(predicted)
            dl_err.append(abs(predicted[record.quality] - record.download_time_s))
        wall = clock() - t0
        n = stop - first
        return RoundResult(
            attempted=n,
            answered=n,
            wall_s=wall,
            latencies_s=latencies,
            errors={"dl_time_err_s": dl_err},
            decisions=n,
        )

    def advance(self) -> None:
        self._next = (self._next + 1) % N_SESSIONS

    def after_round(self) -> None:
        pass

    def _reference(self, history, sizes, record) -> "list[float]":
        """The §4.4 steps of ``predict`` on the reference abduction tier:
        solve the prefix, project the GTBW over the window gap, and run
        Algorithm 4 for each size."""
        from repro import VeritasAbduction, estimate_download_time
        from repro.core.interpolation import window_index

        posterior = VeritasAbduction(self.config, kernel="reference").solve(history)
        delta_s = self.config.delta_s
        last_start = float(history.start_times_s()[-1])
        gap = window_index(record.start_time_s, delta_s) - window_index(last_start, delta_s)
        capacity = posterior.expected_capacity_after(gap)
        return [estimate_download_time(capacity, record.tcp_state, size) for size in sizes]

    def reference_check(self) -> "tuple[int, int]":
        checked = mismatches = 0
        for i, runs in sorted(self._kept.items()):
            expected = self._reference(*self.decisions[i])
            for got in runs:
                checked += 1
                if not all(
                    math.isclose(g, e, rel_tol=RTOL, abs_tol=0.0)
                    for g, e in zip(got, expected)
                ):
                    mismatches += 1
        return checked, mismatches

    def close(self) -> None:
        pass


def make(name: str, workdir: Path):
    """The workload called ``name``."""
    if name == "sweep":
        return Counterfactual(
            name,
            groups=[(20, 900.0)],
            queries=["bba", "bola", "buffer10", "buffer30", "higher_ladder", "cap1.5",
                     "bba_buffer30", "bola_buffer30"],
            workdir=workdir,
            checkpoint=True,
        )
    if name == "corpus":
        return Counterfactual(
            name,
            groups=[(67, 900.0), (67, 1200.0), (66, 1800.0)],
            queries=["bba"],
            workdir=workdir,
        )
    if name == "interventional":
        return Interventional()
    raise ValueError(f"unknown workload {name!r}")
