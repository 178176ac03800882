"""The repository benchmark: default-path Veritas queries, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

One closed-loop, single-process client drives the public ``repro`` API
with default arguments only.  A run

1. imports ``repro`` from ``src/`` and builds its compiled kernels into
   a fresh, per-run cache directory (so every run pays the same cold
   build), sets the workload up several times (input generation from
   ``--seed``, engine construction) and then runs one warm-up call,
   reporting import and build time + median set-up + warm-up as
   ``setup_s``;
2. repeats the workload's round until ``--seconds`` have passed;
3. recomputes a fixed subsample of the answers on the scalar reference
   path and counts every mismatch as a failed answer;
4. prints a report and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace
1`` the rounds alternate between untraced and traced (see
``tracing.py``), both rounds of a pair on the same inputs; the metrics are the per-layer ones, averaged per traced
round, and the spans are written to ``.perfbench/`` in the repository
root.  See ``perfbench/README.md`` for every metric's definition.

``--inject NAME`` (for ``selftest.py``) slows one public library function
down by running it twice per call.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

SETUP_REPEATS = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

INJECTIONS = {
    "core.forward_backward_batch": ("repro.core.forward_backward", "forward_backward_batch"),
}

END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
}

PER_LAYER = {
    "causal.prepare_s": "s",
    "causal.evaluate_s": "s",
    "causal.glue_s": "s",
    "causal.unattributed_share": "ratio",
    "player.self_s": "s",
    "player.deploy_s": "s",
    "player.deploy_lanes": "count",
    "player.replay_s": "s",
    "player.replay_lanes": "count",
    "player.replay_chunks_per_s": "1/s",
    "player.lane_materialise_s": "s",
    "player.lanes_materialised": "count",
    "player.metrics_s": "s",
    "player.log_codec_s": "s",
    "player.scalar_sessions": "count",
    "abr.self_s": "s",
    "abr.decide_s": "s",
    "abr.decide_calls": "count",
    "tcp.self_s": "s",
    "tcp.download_s": "s",
    "tcp.download_calls": "count",
    "tcp.chunk_state_s": "s",
    "tcp.estimate_s": "s",
    "tcp.estimates": "count",
    "core.self_s": "s",
    "core.emission_s": "s",
    "core.forward_backward_s": "s",
    "core.viterbi_s": "s",
    "core.sample_s": "s",
    "core.solves": "count",
    "core.stacks": "count",
    "core.solve_s": "s",
    "core.solves_per_decision": "ratio",
    "baselines.self_s": "s",
    "baselines.baseline_s": "s",
    "net.self_s": "s",
    "net.validate_s": "s",
    "net.extend_s": "s",
    "net.extends": "count",
    "runtime.self_s": "s",
    "runtime.fingerprint_s": "s",
    "runtime.checkpoint_load_s": "s",
    "runtime.checkpoint_hits": "count",
    "runtime.checkpoint_save_s": "s",
    "runtime.checkpoint_bytes": "bytes",
    "runtime.faults_degraded": "count",
    "runtime.faults_skipped": "count",
    "runtime.fallback_warnings": "count",
    "trace_overhead_frac": "ratio",
    "cf_bitrate_err_mbps": "Mbps",
    "cf_rebuf_err_pct": "%",
    "dl_time_err_s": "s",
    "failed_frac": "ratio",
    "decision_tail_pct": "%",
    "decision_samples": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "corpus", "interventional")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=sorted(INJECTIONS))
    return parser.parse_args(argv)


def blas_threads() -> "int | str":
    """OpenBLAS's thread count, read from the loaded library if possible."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def load_kernels() -> dict:
    """Build and load every compiled kernel; the backend of each layer.

    The library builds its kernels lazily, on first use.  Asking each
    kernel module for its backend triggers that build now.
    """
    from repro.abr import _decisions
    from repro.core import _kernels
    from repro.player import _fused
    from repro.tcp import _compiled

    return {
        "tcp": _compiled.backend(),
        "abr": _decisions.backend(),
        "player": _fused.backend(),
        "core": _kernels.backend(),
    }


def effective_path(backends, caught) -> dict:
    """The configuration the default path actually ran on."""
    import numpy as np

    from repro import CounterfactualEngine
    from repro.tcp import connection
    from repro.util import compiled

    return {
        "kernel_backends": backends,
        "default_kernel": connection.DEFAULT_KERNEL,
        "abduction_kernel": CounterfactualEngine().abduction_kernel,
        "numba": compiled.HAVE_NUMBA,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fallback_warnings": [str(w.message) for w in fallback_warnings(caught)],
    }


def fallback_warnings(caught) -> list:
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning) and "falling back" in str(w.message)
    ]


def tail(latencies: "list[tuple[float, int]]") -> "tuple[float, float, float, int]":
    """(median, tail value, tail percentile, samples) of weighted latencies.

    The tail is the highest percentile with at least ten samples beyond
    it; with fewer than eleven samples it is the maximum.
    """
    values = sorted(latencies)
    total = sum(n for _, n in values)
    if not total:
        return 0.0, 0.0, 0.0, 0

    def at(rank: int) -> float:
        seen = 0
        for value, n in values:
            seen += n
            if seen > rank:
                return value
        return values[-1][0]

    median = (at((total - 1) // 2) + at(total // 2)) / 2
    rank = total - 11 if total >= 11 else total - 1
    pct = 100.0 * (rank + 1) / total
    return median, at(rank), math.floor(pct * 10) / 10, total


def inject(name: str):
    """Run one library function twice per call (the self-test's slowdown)."""
    import functools

    from tracing import Patch

    module, qualname = INJECTIONS[name]

    def twice(fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            fn(*args, **kwargs)
            return fn(*args, **kwargs)

        return slowed

    patch = Patch(module, qualname, twice)
    patch.apply()
    return patch


def run(args, caught) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of set-up)

    backends = load_kernels()
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    workload = workloads.make(args.workload, OUT)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm_up()
    setup_s = import_s + statistics.median(setups) + time.perf_counter() - start

    # Every round starts from a collected heap, so peak_rss_mb is one
    # round's working set and not garbage that earlier rounds left in
    # reference cycles, which the collector frees at moments that depend
    # on the seed.
    gc.collect()
    if args.inject:
        inject(args.inject)
    tracer = tracing.Tracer() if args.trace else None

    rounds, traced = [], []
    attempted = failed = 0
    # A traced run alternates untraced and traced rounds, swapping which
    # goes first in every pair so drift hits both sides equally.
    # Both rounds of a pair run on the same inputs; the workload advances
    # to its next inputs between pairs.
    pattern = [(False,)] if tracer is None else [(False, True), (True, False)]
    started = time.perf_counter()
    for pair in itertools.count():
        for with_trace in pattern[pair % len(pattern)]:
            size = workload.round_size
            attempted += size
            try:
                with tracer if with_trace else contextlib.nullcontext():
                    result = workload.round()
            except Exception as exc:  # every answer of a failed round fails
                print(f"perfbench: round failed: {exc!r}", file=sys.stderr)
                failed += size
                continue
            finally:
                workload.after_round()
                gc.collect()
            failed += result.attempted - result.answered
            (traced if with_trace else rounds).append(result)
        workload.advance()
        if time.perf_counter() - started >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked, mismatches = workload.reference_check()
    failed += mismatches
    workload.close()

    every = rounds + traced
    p50, tail_s, tail_pct, samples = tail(
        [lat for r in every for lat in r.latencies_s]
    )
    errors: "dict[str, list[float]]" = {}
    for r in every:
        for key, values in r.errors.items():
            errors.setdefault(key, []).extend(values)

    report = {
        "attempted": attempted,
        "failed": failed,
        "reference_checked": checked,
        "reference_mismatches": mismatches,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "decision_tail_pct": tail_pct,
        "decision_samples": samples,
        "failed_frac": failed / max(1, attempted),
        "accuracy": {k: statistics.fmean(v) for k, v in errors.items()},
        "path": effective_path(backends, caught),
    }
    report["fallback_warnings"] = len(report["path"]["fallback_warnings"])
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "answers_per_s": (
                sum(r.answered for r in rounds) / sum(r.wall_s for r in rounds)
                if rounds else 0.0
            ),
            "peak_rss_mb": peak_rss_mb,
            "decision_p50_ms": 1e3 * p50,
            "decision_tail_ms": 1e3 * tail_s,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, rounds, traced, errors, report)
        units = PER_LAYER
        report["spans_file"] = str(write_spans(args, tracer, metrics))
    report["metrics"] = metrics
    report["units"] = units
    return report


def layer_metrics(tracer, rounds, traced, errors, report) -> dict:
    """Per-layer metrics per traced round, plus the run-level ratios."""
    n = max(1, len(traced))
    totals = tracer.summarise()
    traced_wall = sum(r.wall_s for r in traced)
    pairs = min(len(rounds), len(traced))
    untraced_wall = sum(r.wall_s for r in rounds[:pairs])
    decisions = sum(r.decisions for r in traced)
    metrics = {name: totals.get(name, 0.0) / n for name in PER_LAYER}
    metrics["causal.glue_s"] = totals.get("causal.self_s", 0.0) / n
    metrics["causal.unattributed_share"] = (
        1.0 - totals.get("trace.below_causal_s", 0.0) / traced_wall if traced_wall else 0.0
    )
    replay_wall = totals.get("player.replay_wall_s", 0.0)
    metrics["player.replay_chunks_per_s"] = (
        totals.get("player.replay_chunks", 0.0) / replay_wall if replay_wall else 0.0
    )
    metrics["core.solves_per_decision"] = (
        totals.get("core.scalar_solves", 0.0) / decisions if decisions else 0.0
    )
    metrics["runtime.faults_degraded"] = sum(r.faults_degraded for r in traced) / n
    metrics["runtime.faults_skipped"] = sum(r.faults_skipped for r in traced) / n
    metrics["runtime.fallback_warnings"] = float(report["fallback_warnings"])
    metrics["trace_overhead_frac"] = (
        sum(r.wall_s for r in traced[:pairs]) / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    for key in ("cf_bitrate_err_mbps", "cf_rebuf_err_pct", "dl_time_err_s"):
        metrics[key] = report["accuracy"].get(key, 0.0)
    for key in ("failed_frac", "decision_tail_pct", "decision_samples"):
        metrics[key] = float(report[key])
    return metrics


def write_spans(args, tracer, metrics) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"metrics": metrics, "spans": tracer.export()}, f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    # Compiled-kernel builds run the C compiler; keep its scratch files
    # inside the checkout.  The kernels build into a cache of this run's
    # own, so set-up time never depends on what earlier runs left behind.
    kernel_cache = OUT / "tmp" / f"kernels-{os.getpid()}"
    shutil.rmtree(kernel_cache, ignore_errors=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["REPRO_COMPILED_CACHE"] = str(kernel_cache)
    sys.path.insert(0, str(SRC))

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            report = run(args, caught)
    finally:
        shutil.rmtree(kernel_cache, ignore_errors=True)

    metrics = report.pop("metrics")
    units = report.pop("units")
    print("perfbench " + json.dumps({"workload": args.workload, "seed": args.seed, **report}))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
