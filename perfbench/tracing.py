"""Outside-in layer tracing for the benchmark.

The benchmark never edits the library.  In a traced run it replaces the
public functions and methods of each ``repro`` layer with thin wrappers
that record one span per call: a name, a start and end time
(``time.perf_counter_ns``), the index of the enclosing span, and an
optional work count (lanes, sessions, bytes, ...).  Spans are kept in a
list in memory and written out when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  The benchmark is single-threaded, so children never overlap
and, by construction, the self times of all spans of a round add up to
the time the round spent inside any wrapped call.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives and what its spans mean."""

    module: str
    qualname: str
    layer: str
    kind: str
    count: "Callable[[tuple, dict, Any], Any] | None" = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.kind}:{self.qualname}"


def _batch_lanes(args, kwargs, out) -> "tuple[int, int]":
    """(lanes, lane-chunks) of one lockstep session."""
    return out.n_lanes, out.n_lanes * out.n_chunks


def _scalar_lane(args, kwargs, out) -> "tuple[int, int]":
    return 1, out.n_chunks


def _n_logs(args, kwargs, out) -> int:
    return len(out)


def _hit(args, kwargs, out) -> int:
    return int(out is not None)


def _payload_bytes(args, kwargs, out) -> int:
    import numpy as np

    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    return int(sum(np.asarray(v).nbytes for v in arrays.values()))


def _abr_targets() -> "list[Target]":
    from repro import abr

    out = []
    for cls in (
        abr.BBAAlgorithm,
        abr.BOLAAlgorithm,
        abr.MPCAlgorithm,
        abr.RateBasedAlgorithm,
        abr.RandomABRAlgorithm,
    ):
        for method in ("choose_quality_batch", "choose_quality"):
            if method in cls.__dict__:
                out.append(
                    Target(cls.__module__, f"{cls.__name__}.{method}", "abr", "decide")
                )
    return out


def default_targets() -> "list[Target]":
    """The public calls of every layer the benchmark attributes time to."""
    T = Target
    return [
        T("repro.causal.engine", "CounterfactualEngine.prepare_corpus", "causal", "prepare"),
        T("repro.causal.engine", "CounterfactualEngine.evaluate_many", "causal", "evaluate"),
        T("repro.player.batch_session", "BatchStreamingSession.run", "player", "session",
          _batch_lanes),
        T("repro.player.session", "StreamingSession.run", "player", "session",
          _scalar_lane),
        T("repro.causal.engine", "run_setting", "player", "run_setting"),
        T("repro.causal.engine", "run_setting_batch", "player", "run_setting_batch"),
        T("repro.player.logs", "SessionLogBatch.lane", "player", "lane"),
        T("repro.player.logs", "SessionLog.to_dict", "player", "log_codec"),
        T("repro.player.logs", "SessionLog.from_dict", "player", "log_codec"),
        T("repro.player.metrics", "compute_metrics_batch", "player", "metrics"),
        T("repro.player.metrics", "compute_metrics", "player", "metrics"),
        *_abr_targets(),
        T("repro.tcp.connection", "BatchTCPConnection.download_batch", "tcp", "download"),
        T("repro.tcp.connection", "TCPConnection.download", "tcp", "download"),
        T("repro.tcp.estimator", "chunk_state_arrays", "tcp", "chunk_state"),
        T("repro.tcp.estimator", "estimate_download_time", "tcp", "estimate"),
        T("repro.core.ehmm", "build_problems_batch", "core", "emission"),
        T("repro.core.ehmm", "build_problem", "core", "emission"),
        T("repro.core.forward_backward", "forward_backward_batch", "core", "forward_backward"),
        T("repro.core.forward_backward", "forward_backward", "core", "forward_backward"),
        T("repro.core.viterbi", "viterbi_path_batch", "core", "viterbi"),
        T("repro.core.viterbi", "viterbi_path", "core", "viterbi"),
        T("repro.core.abduction", "sample_traces_batch", "core", "sample"),
        T("repro.core.abduction", "VeritasPosterior.sample_traces", "core", "sample"),
        T("repro.core.abduction", "VeritasAbduction.solve_batch", "core", "solve_batch",
          _n_logs),
        T("repro.core.abduction", "VeritasAbduction.solve", "core", "solve"),
        T("repro.core.interventional", "VeritasDownloadPredictor.predict", "core", "predict"),
        T("repro.baselines.observed", "baseline_trace", "baselines", "baseline"),
        T("repro.net.validation", "check_corpus", "net", "validate"),
        T("repro.net.validation", "validate_corpus", "net", "validate"),
        T("repro.net.trace", "PiecewiseConstantTrace.extended", "net", "extend"),
        T("repro.runtime.checkpoint", "fingerprint", "runtime", "fingerprint"),
        T("repro.runtime.checkpoint", "CheckpointStore.load", "runtime", "checkpoint_load",
          _hit),
        T("repro.runtime.checkpoint", "CheckpointStore.save", "runtime", "checkpoint_save",
          _payload_bytes),
    ]


class Patch:
    """Replace one callable everywhere ``repro`` refers to it, reversibly.

    A method is replaced on its defining class.  A module-level function
    is replaced in its defining module and in every loaded ``repro``
    module that imported the same object by name.
    """

    def __init__(self, module: str, qualname: str, make: "Callable[[Callable], Callable]"):
        owner: Any = sys.modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.original = original
        if isinstance(original, (classmethod, staticmethod)):
            self.replacement = type(original)(make(original.__func__))
        else:
            self.replacement = make(original)
        if isinstance(owner, type):
            self.sites = [(owner, attr)]
        else:
            self.sites = [
                (mod, name)
                for mod_name, mod in sorted(sys.modules.items())
                if mod_name == "repro" or mod_name.startswith("repro.")
                for name, value in list(vars(mod).items())
                if value is original
            ]

    def apply(self) -> None:
        for owner, attr in self.sites:
            setattr(owner, attr, self.replacement)

    def revert(self) -> None:
        for owner, attr in self.sites:
            setattr(owner, attr, self.original)


class Tracer:
    """Records spans for every :class:`Target` while installed."""

    def __init__(self):
        self.targets = default_targets()
        # [target index, start ns, end ns, parent span index, count]; the
        # count is 1 unless the target names a count function.
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self._patches = [
            Patch(t.module, t.qualname, functools.partial(self._wrap, i, t))
            for i, t in enumerate(self.targets)
        ]

    def _wrap(self, index: int, target: Target, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        count = target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else -1, 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for patch in self._patches:
            patch.apply()
        return self

    def __exit__(self, *exc) -> None:
        for patch in reversed(self._patches):
            patch.revert()

    def export(self) -> "list[dict]":
        """Every span as a plain record (times in ns since the first span)."""
        t0 = self.spans[0][1] if self.spans else 0
        return [
            {
                "name": self.targets[idx].name,
                "start_ns": start - t0,
                "end_ns": end - t0,
                "parent": parent,
                "count": count,
            }
            for idx, start, end, parent, count in self.spans
        ]

    def summarise(self) -> dict:
        """Per-layer totals over every recorded span.

        Returns a flat ``{metric: value}`` dict of totals; the caller
        divides by the number of traced rounds.  Session spans are split
        into ``deploy`` (under ``prepare_corpus``) and ``replay`` (under
        ``evaluate_many``).
        """
        spans = self.spans
        targets = self.targets
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start

        def ancestor_kinds(i: int):
            parent = spans[i][3]
            while parent >= 0:
                yield targets[spans[parent][0]].kind
                parent = spans[parent][3]

        def phase(i: int) -> str:
            for kind in ancestor_kinds(i):
                if kind == "prepare":
                    return "deploy"
                if kind == "evaluate":
                    return "replay"
            return "replay"

        totals: "dict[str, float]" = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0.0) + value

        for i, (idx, start, end, parent, count) in enumerate(spans):
            target = targets[idx]
            layer, kind = target.layer, target.kind
            dur = (end - start) / 1e9
            self_s = dur - child_ns[i] / 1e9
            add(f"{layer}.self_s", self_s)
            if layer != "causal" and (
                parent < 0 or targets[spans[parent][0]].layer == "causal"
            ):
                add("trace.below_causal_s", dur)
            if kind in ("prepare", "evaluate"):
                add(f"causal.{kind}_s", dur)
            elif kind == "session":
                which = phase(i)
                lanes, chunks = count
                add(f"player.{which}_s", self_s)
                add(f"player.{which}_wall_s", dur)
                add(f"player.{which}_lanes", lanes)
                add(f"player.{which}_chunks", chunks)
            elif kind == "run_setting":
                add("player.scalar_sessions", 1)
            elif kind == "lane":
                add("player.lane_materialise_s", self_s)
                add("player.lanes_materialised", 1)
            elif kind == "log_codec":
                add("player.log_codec_s", self_s)
            elif kind == "metrics":
                add("player.metrics_s", self_s)
            elif kind == "decide":
                add("abr.decide_s", self_s)
                add("abr.decide_calls", 1)
            elif kind == "download":
                add("tcp.download_s", self_s)
                add("tcp.download_calls", 1)
            elif kind == "chunk_state":
                add("tcp.chunk_state_s", self_s)
            elif kind == "estimate":
                add("tcp.estimate_s", self_s)
                add("tcp.estimates", 1)
            elif kind in ("emission", "forward_backward", "viterbi", "sample"):
                add(f"core.{kind}_s", self_s)
                if kind == "forward_backward" and target.qualname.endswith("_batch"):
                    add("core.stacks", 1)
            elif kind == "solve_batch":
                add("core.solves", count)
            elif kind == "solve":
                add("core.solve_s", dur)
                add("core.scalar_solves", 1)
                if "solve_batch" not in ancestor_kinds(i):
                    add("core.solves", 1)
            elif kind == "baseline":
                add("baselines.baseline_s", self_s)
            elif kind == "validate":
                add("net.validate_s", self_s)
            elif kind == "extend":
                add("net.extend_s", self_s)
                add("net.extends", 1)
            elif kind == "fingerprint":
                add("runtime.fingerprint_s", self_s)
            elif kind == "checkpoint_load":
                add("runtime.checkpoint_load_s", self_s)
                add("runtime.checkpoint_hits", count)
            elif kind == "checkpoint_save":
                add("runtime.checkpoint_save_s", self_s)
                add("runtime.checkpoint_bytes", count)
        return totals
