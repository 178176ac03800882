"""Inference-engine microbenchmarks (not a paper figure).

Times the hot path of every other benchmark: ``VeritasAbduction.solve`` and
posterior sampling on a synthetic 200-chunk session at the paper's default
configuration (K = 21 capacity states), plus ``evaluate_corpus`` at bench
scale.  Throughputs (chunks/sec, traces/sec) land in
``benchmark.extra_info`` so the ``BENCH_*.json`` trajectories accumulate a
performance history across PRs.

Scale knobs: ``REPRO_BENCH_TRACES`` / ``REPRO_BENCH_VIDEO_S`` as elsewhere,
plus ``REPRO_BENCH_WORKERS`` for the corpus-evaluation process pool (the
pool is bit-identical to serial; it only changes wall time).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from common import (
    CORPUS_SEED,
    ENGINE_SEED,
    N_SAMPLES,
    N_TRACES,
    TRACE_DURATION_S,
    bench_setting_a,
    print_header,
    run_once,
    shape_check,
)
from repro import (
    CounterfactualEngine,
    change_abr,
    paper_corpus,
    paper_veritas_config,
    run_setting,
)
from repro.core import VeritasAbduction
from repro.player.logs import ChunkRecord, SessionLog
from repro.tcp import TCPStateSnapshot

N_CHUNKS = 200
N_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def synthetic_session(n_chunks: int = N_CHUNKS, seed: int = 0) -> SessionLog:
    """A deterministic DASH-like session log with ``n_chunks`` chunks."""
    rng = np.random.default_rng(seed)
    records = []
    now = 0.0
    for index in range(n_chunks):
        size = float(rng.uniform(50_000, 1_200_000))
        download_s = float(rng.uniform(0.2, 1.5))
        state = TCPStateSnapshot(
            cwnd_segments=int(rng.integers(10, 200)),
            ssthresh_segments=int(rng.integers(10, 300)),
            srtt_s=0.08,
            min_rtt_s=0.08,
            rto_s=0.25,
            time_since_last_send_s=float(rng.uniform(0.0, 2.0)),
        )
        records.append(
            ChunkRecord(
                index=index,
                quality=0,
                size_bytes=size,
                start_time_s=now,
                end_time_s=now + download_s,
                tcp_state=state,
                buffer_before_s=5.0,
                buffer_after_s=5.0,
                rebuffer_s=0.0,
                ssim=0.9,
                bitrate_mbps=1.0,
            )
        )
        now += download_s + float(rng.uniform(0.1, 1.0))
    return SessionLog(
        abr_name="synthetic",
        buffer_capacity_s=5.0,
        chunk_duration_s=2.0,
        rtt_s=0.08,
        startup_time_s=0.0,
        total_rebuffer_s=0.0,
        records=records,
    )


def test_perf_abduction_solve(benchmark):
    """solve() on a 200-chunk session at the paper's default config."""
    log = synthetic_session()
    solver = VeritasAbduction(paper_veritas_config())

    posterior = benchmark(solver.solve, log)

    mean_s = benchmark.stats.stats.mean
    chunks_per_sec = log.n_chunks / mean_s
    print_header(
        "Perf — VeritasAbduction.solve",
        "vectorized engine; acceptance: >= 5x over the seed's scalar loops",
    )
    print(
        f"  solve: {mean_s * 1e3:.2f} ms/session "
        f"({chunks_per_sec:,.0f} chunks/sec, K={solver.grid.n_states})"
    )
    benchmark.extra_info.update(
        n_chunks=log.n_chunks,
        n_states=solver.grid.n_states,
        solve_ms=mean_s * 1e3,
        chunks_per_sec=chunks_per_sec,
    )
    assert shape_check(
        "posterior covers every chunk",
        posterior.smoothing.gamma.shape == (log.n_chunks, solver.grid.n_states),
    )


def test_perf_posterior_sampling(benchmark):
    """Batched FFBS sampling + trace interpolation for K = 5 samples."""
    log = synthetic_session()
    solver = VeritasAbduction(paper_veritas_config())
    posterior = solver.solve(log)

    traces = benchmark(posterior.sample_traces, N_SAMPLES, seed=1)

    mean_s = benchmark.stats.stats.mean
    samples_per_sec = N_SAMPLES / mean_s
    print_header(
        "Perf — posterior trace sampling",
        "one uniform draw per chunk instead of count x N rng.choice calls",
    )
    print(
        f"  sample_traces({N_SAMPLES}): {mean_s * 1e3:.2f} ms "
        f"({samples_per_sec:,.1f} traces/sec)"
    )
    benchmark.extra_info.update(
        n_chunks=log.n_chunks,
        n_samples=N_SAMPLES,
        sampling_ms=mean_s * 1e3,
        samples_per_sec=samples_per_sec,
    )
    assert shape_check("drew every requested sample", len(traces) == N_SAMPLES)


def test_perf_replay_kernel(benchmark):
    """Scalar replay session at bench scale.

    ``TCPConnection`` runs the per-RTT golden loop, the one scalar TCP
    download path: ``run_setting``, ``use_batch=False`` and the
    ``on_error="degrade"`` retry all replay through it.  Min of 3 timed
    rounds of 5 sessions each, after one warm-up session.
    """
    setting_b = change_abr(bench_setting_a(), "bba")
    trace = paper_corpus(count=1, duration_s=TRACE_DURATION_S, seed=CORPUS_SEED)[0]
    logs = []

    def run_sessions(repeats: int = 5) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            logs.append(run_setting(setting_b, trace))
        return (time.perf_counter() - start) / repeats

    run_setting(setting_b, trace)  # warm caches
    reference_s = run_once(benchmark, run_sessions)
    for _ in range(2):
        reference_s = min(reference_s, run_sessions())
    replays_per_sec = 1.0 / reference_s

    print_header(
        "Perf — scalar replay session (per-RTT reference TCP loop)",
        "the path run_setting, use_batch=False and the degrade retry take",
    )
    print(
        f"  bench-scale replay session: {reference_s * 1e3:.2f} ms "
        f"({replays_per_sec:.1f} replays/sec)"
    )
    benchmark.extra_info.update(
        reference_ms=reference_s * 1e3,
        replays_per_sec=replays_per_sec,
    )
    assert shape_check(
        "every timed session replays the whole video",
        all(log.n_chunks == setting_b.video.n_chunks for log in logs),
    )


def test_perf_evaluate_trace(benchmark):
    """Single-trace end-to-end counterfactual (deploy + abduct + replays)."""
    from repro import change_abr, paper_corpus

    setting_a = bench_setting_a()
    setting_b = change_abr(setting_a, "bba")
    trace = paper_corpus(count=1, duration_s=TRACE_DURATION_S, seed=CORPUS_SEED)[0]
    engine = CounterfactualEngine(
        paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED
    )
    engine.evaluate_trace(0, trace, setting_a, setting_b, seed=1)  # warm

    start = time.perf_counter()
    outcome = run_once(
        benchmark,
        lambda: engine.evaluate_trace(0, trace, setting_a, setting_b, seed=1),
    )
    elapsed_ms = (time.perf_counter() - start) * 1e3

    print_header(
        "Perf — evaluate_trace (single trace, 2 + K replays + abduction)",
        "seed measured ~108 ms at this scale (interleaved A/B, see ROADMAP)",
    )
    print(f"  evaluate_trace: {elapsed_ms:.1f} ms")
    benchmark.extra_info.update(evaluate_trace_ms=elapsed_ms)
    assert shape_check(
        "all replay schemes answered",
        len(outcome.veritas_metrics) == N_SAMPLES,
    )


def test_perf_query_sweep(benchmark):
    """Five fig9-style queries against one PreparedCorpus.

    Measures the amortisation win in-process: a prepared sweep answers
    every extra query with replays only, while the single-query path pays
    deployment + abduction each time.
    """
    from repro import change_abr, paper_corpus

    setting_a = bench_setting_a()
    queries = ["bba", "bola", "bba", "bola", "bba"]
    settings_b = [change_abr(setting_a, q) for q in queries]
    corpus = paper_corpus(
        count=min(N_TRACES, 4), duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    engine = CounterfactualEngine(
        paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED
    )

    def sweep():
        prepared = engine.prepare_corpus(corpus, setting_a)
        return engine.evaluate_many(prepared, settings_b)

    sweep()  # warm caches
    start = time.perf_counter()
    results = run_once(benchmark, sweep)
    sweep_s = time.perf_counter() - start

    start = time.perf_counter()
    single = engine.evaluate_corpus(corpus, setting_a, settings_b[0])
    single_query_s = time.perf_counter() - start

    queries_per_sec = len(queries) / sweep_s
    amortized_speedup = len(queries) * single_query_s / sweep_s
    print_header(
        "Perf — 5-query sweep via PreparedCorpus",
        "abduction amortised across queries; replays are the whole marginal cost",
    )
    print(
        f"  sweep of {len(queries)} queries x {len(corpus)} traces: {sweep_s:.2f} s "
        f"({queries_per_sec:.2f} queries/sec); single query: {single_query_s:.2f} s; "
        f"amortised speedup {amortized_speedup:.2f}x vs per-query pipelines"
    )
    benchmark.extra_info.update(
        n_queries=len(queries),
        n_traces=len(corpus),
        sweep_s=sweep_s,
        single_query_s=single_query_s,
        queries_per_sec=queries_per_sec,
        amortized_speedup=amortized_speedup,
    )
    ok = shape_check(
        "every query answered for every trace",
        all(len(r.per_trace) == len(corpus) for r in results),
    )
    ok &= shape_check(
        "prepared sweep beats per-query pipelines", amortized_speedup > 1.0
    )
    assert ok


def test_perf_batch_replay(benchmark):
    """Lockstep batch replay vs per-lane serial replay on evaluate_many.

    The PR-4 tentpole: one prepared corpus, five fig9-style queries, and
    the whole (setting x trace x lane) replay grid either fused into
    lockstep batch sessions (the default) or replayed lane by lane
    (``use_batch=False``).  Both paths are bit-identical (see
    ``tests/test_batch_replay.py``); the interleaved A/B cancels container
    CPU noise out of the ratio.
    """
    from repro import change_abr, paper_corpus

    setting_a = bench_setting_a()
    queries = ["bba", "bola", "bba", "bola", "bba"]
    settings_b = [change_abr(setting_a, q) for q in queries]
    corpus = paper_corpus(
        count=min(N_TRACES, 4), duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    engine_batch = CounterfactualEngine(
        paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED
    )
    engine_serial = CounterfactualEngine(
        paper_veritas_config(),
        n_samples=N_SAMPLES,
        seed=ENGINE_SEED,
        use_batch=False,
    )
    prepared = engine_batch.prepare_corpus(corpus, setting_a)

    engine_batch.evaluate_many(prepared, settings_b)  # warm caches
    engine_serial.evaluate_many(prepared, settings_b)

    batch_times, serial_times = [], []
    for _ in range(3):
        start = time.perf_counter()
        results = engine_batch.evaluate_many(prepared, settings_b)
        batch_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        engine_serial.evaluate_many(prepared, settings_b)
        serial_times.append(time.perf_counter() - start)
    run_once(benchmark, lambda: engine_batch.evaluate_many(prepared, settings_b))

    batch_s = min(batch_times)
    serial_s = min(serial_times)
    batch_speedup = serial_s / batch_s
    # 2 (truth + baseline) + K sample replays per (setting, trace) pair.
    n_replays = len(settings_b) * len(corpus) * (2 + N_SAMPLES)
    batch_replays_per_sec = n_replays / batch_s

    print_header(
        "Perf — lockstep batch replay (evaluate_many, batch vs per-lane)",
        "bit-identical paths; acceptance: >= 2x at bench scale (interleaved A/B)",
    )
    print(
        f"  {len(settings_b)} queries x {len(corpus)} traces "
        f"({n_replays} replays): batch {batch_s * 1e3:.0f} ms vs serial "
        f"{serial_s * 1e3:.0f} ms ({batch_speedup:.2f}x, "
        f"{batch_replays_per_sec:.0f} replays/sec)"
    )
    benchmark.extra_info.update(
        n_replays=n_replays,
        evaluate_many_ms=batch_s * 1e3,
        serial_evaluate_many_ms=serial_s * 1e3,
        batch_replays_per_sec=batch_replays_per_sec,
        batch_speedup=batch_speedup,
    )
    ok = shape_check(
        "every query answered for every trace",
        all(len(r.per_trace) == len(corpus) for r in results),
    )
    ok &= shape_check(
        "batch replay beats per-lane serial (>= 1.3x)", batch_speedup >= 1.3
    )
    assert ok


def test_perf_kernel_tiers(benchmark, monkeypatch):
    """Replay kernel tiers on evaluate_many.

    The same bench-scale query sweep as ``test_perf_batch_replay``, run
    once per replay tier: ``reference`` (the per-RTT scalar loop, lane by
    lane), ``numpy`` (the allocation-free vectorised chunk loop) and
    ``compiled`` (the default: whole sessions — downloads, ABR decisions
    and buffer accounting — in one compiled call, when a numba or cc+cffi
    backend is live).  A fourth arm, ``per_chunk``, times the compiled
    tier with the session kernel switched off: the per-chunk compiled
    download loop the tier falls back to for sessions the session kernel
    cannot run.  All arms are bit-identical
    (``tests/test_batch_replay.py``, ``tests/test_compiled_kernel.py``);
    the interleaved A/B cancels container CPU noise out of the ratios.
    Acceptance on a real backend: compiled beats numpy by >= 1.5x, and
    the session kernel beats its per-chunk fallback by >= 1.5x (so a
    session kernel that slows to its fallback's speed, or stops being
    used, fails here).  The reference ratio is informational: ABR
    decisions and the chunk loop are shared by every tier, so the
    per-lane scalar downloads cost numpy only ~1.2x at this scale.
    """
    from repro import change_abr, paper_corpus
    from repro.player import _fused
    from repro.tcp import _compiled

    setting_a = bench_setting_a()
    queries = ["bba", "bola", "bba", "bola", "bba"]
    settings_b = [change_abr(setting_a, q) for q in queries]
    corpus = paper_corpus(
        count=min(N_TRACES, 4), duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    tiers = ["reference", "numpy"]
    if _compiled.backend() != "python":
        tiers.append("compiled")
    engines = {
        tier: CounterfactualEngine(
            paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED,
            kernel=tier,
        )
        for tier in tiers
    }
    fastest = tiers[-1]
    prepared = engines[fastest].prepare_corpus(corpus, setting_a)

    def evaluate(arm):
        if arm != "per_chunk":
            return engines[arm].evaluate_many(prepared, settings_b)
        with monkeypatch.context() as patch:
            patch.setattr(_fused, "available", lambda: False)
            return engines["compiled"].evaluate_many(prepared, settings_b)

    arms = list(tiers)
    if "compiled" in tiers and _fused.backend() != "python":
        arms.insert(-1, "per_chunk")
    for arm in arms:  # warm caches (and the compiled build)
        evaluate(arm)

    times: dict[str, list[float]] = {arm: [] for arm in arms}
    for _ in range(3):
        for arm in arms:
            start = time.perf_counter()
            results = evaluate(arm)
            times[arm].append(time.perf_counter() - start)
    run_once(benchmark, lambda: evaluate(fastest))

    # 2 (truth + baseline) + K sample replays per (setting, trace) pair,
    # each replaying every chunk of the bench video.
    n_replays = len(settings_b) * len(corpus) * (2 + N_SAMPLES)
    n_chunks = n_replays * setting_a.video.n_chunks
    best = {arm: min(times[arm]) for arm in arms}
    numpy_s = best["numpy"]

    print_header(
        "Perf — replay kernel tiers (evaluate_many, interleaved A/B)",
        "bit-identical tiers; acceptance: compiled >= 1.5x over numpy "
        "and over its per-chunk fallback",
    )
    for arm in arms:
        speedup = numpy_s / best[arm]
        chunks_per_sec = n_chunks / best[arm]
        replays_per_sec = n_replays / best[arm]
        print(
            f"  {arm:9s}: {best[arm] * 1e3:6.0f} ms "
            f"({speedup:.2f}x vs numpy, {chunks_per_sec:,.0f} chunks/sec, "
            f"{replays_per_sec:.0f} replays/sec)"
        )
        benchmark.extra_info.update(
            {
                f"{arm}_evaluate_many_ms": best[arm] * 1e3,
                f"{arm}_chunks_per_sec": chunks_per_sec,
                f"{arm}_batch_replays_per_sec": replays_per_sec,
                f"{arm}_kernel_speedup": speedup,
            }
        )
    benchmark.extra_info.update(
        n_replays=n_replays, n_chunks=n_chunks, kernel_tiers=",".join(arms)
    )

    ok = shape_check(
        "every query answered for every trace",
        all(len(r.per_trace) == len(corpus) for r in results),
    )
    if "compiled" in best:
        ok &= shape_check(
            "compiled tier >= 1.5x over the numpy tier",
            numpy_s / best["compiled"] >= 1.5,
        )
    if "per_chunk" in best:
        session_vs_chunk = best["per_chunk"] / best["compiled"]
        print(f"  session kernel vs per-chunk fallback: {session_vs_chunk:.2f}x")
        benchmark.extra_info.update(
            compiled_vs_per_chunk_speedup=session_vs_chunk
        )
        ok &= shape_check(
            "session kernel >= 1.5x over the per-chunk compiled loop",
            session_vs_chunk >= 1.5,
        )
    assert ok


def test_perf_decision_kernels(benchmark):
    """Compiled ABR decision kernels (PR 8).

    Per-decision throughput of the BBA / BOLA / MPC batch deciders over a
    full session-shaped sweep (every chunk of the bench video, K lanes,
    MPC's predictor state advancing chunk to chunk), on the production
    path — the compiled kernels when a backend (numba or cc+cffi) is
    live — and on the vectorised NumPy path they replace
    (``FORCE_PYTHON`` routes the deciders back to NumPy).  Both paths are
    bit-identical (``tests/test_compiled_kernel.py``); the interleaved
    min-of-3 cancels container CPU noise out of the ratios.
    """
    from repro.abr import BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm, _decisions
    from repro.abr.base import BatchABRContext

    video = bench_setting_a().video
    # A session-length sweep at a bounded cost: the NumPy MPC reference
    # sweep is ~50x slower than the kernel, so oversized shapes here
    # starve the rest of the suite of quiet CPU time.
    n_chunks = min(video.n_chunks, 120)
    k = 1024
    capacity = 15.0
    rng = np.random.default_rng(9)
    buffers = rng.uniform(0.0, capacity, (n_chunks, k))
    throughputs = rng.uniform(0.3, 30.0, (n_chunks, k))

    def sweep(abr):
        abr.reset()
        # MPC's decider allocates its own output (its kernel gate sits on
        # use_kernel() alone); BBA/BOLA take the engine's out= buffer.
        out = (
            np.empty(k, dtype=np.int64)
            if getattr(abr, "batch_out_safe", False)
            else None
        )
        last = None
        history: list[np.ndarray] = []
        for n in range(n_chunks):
            context = BatchABRContext(
                chunk_index=n,
                buffer_s=buffers[n],
                buffer_capacity_s=capacity,
                last_quality=last,
                video=video,
                throughput_history_mbps=history,
            )
            if out is None:
                result = abr.choose_quality_batch(context)
            else:
                result = abr.choose_quality_batch(context, out=out)
            last = np.array(result, dtype=np.int64)
            history.append(throughputs[n])
        return last

    def time_sweep(abr) -> float:
        start = time.perf_counter()
        sweep(abr)
        return time.perf_counter() - start

    abrs = {"bba": BBAAlgorithm(), "bola": BOLAAlgorithm(), "mpc": MPCAlgorithm()}
    kernel_live = _decisions.use_kernel()
    n_decisions = n_chunks * k

    for abr in abrs.values():  # warm plan/table caches on both paths
        sweep(abr)
    run_once(benchmark, lambda: sweep(abrs["bba"]))

    kernel_s = {name: time_sweep(abr) for name, abr in abrs.items()}
    _decisions.FORCE_PYTHON = True
    try:
        for abr in abrs.values():
            sweep(abr)  # warm the NumPy path's scratch caches
        numpy_s = {name: time_sweep(abr) for name, abr in abrs.items()}
        # One interleaved re-measurement per path (min-of-2): the NumPy
        # MPC sweep is expensive enough that more rounds cost more noise
        # elsewhere in the suite than they remove here.
        _decisions.FORCE_PYTHON = False
        for name, abr in abrs.items():
            kernel_s[name] = min(kernel_s[name], time_sweep(abr))
        _decisions.FORCE_PYTHON = True
        for name, abr in abrs.items():
            numpy_s[name] = min(numpy_s[name], time_sweep(abr))
    finally:
        _decisions.FORCE_PYTHON = False

    print_header(
        "Perf — compiled ABR decision kernels (session-shaped sweep)",
        f"backend: {_decisions.backend()}; bit-identical to the NumPy "
        f"deciders they replace",
    )
    ok = True
    for name in abrs:
        per_sec = n_decisions / kernel_s[name]
        speedup = numpy_s[name] / kernel_s[name]
        print(
            f"  {name:4s}: {kernel_s[name] * 1e3:6.1f} ms for "
            f"{n_decisions:,} decisions ({per_sec:,.0f} decisions/sec, "
            f"{speedup:.2f}x vs numpy)"
        )
        benchmark.extra_info.update(
            {
                f"{name}_decisions_per_sec": per_sec,
                f"{name}_decision_kernel_ms": kernel_s[name] * 1e3,
                f"{name}_decision_speedup": speedup,
            }
        )
    benchmark.extra_info.update(
        n_decisions=n_decisions,
        n_decision_lanes=k,
        decision_backend=_decisions.backend(),
    )
    if kernel_live:
        # The kernels must not lose to the NumPy deciders they replace
        # (gate at 0.8x for container CPU noise; typical wins are larger,
        # dominated by MPC's in-kernel horizon search).
        worst = min(numpy_s[n] / kernel_s[n] for n in abrs)
        ok &= shape_check(
            "decision kernels at least match the NumPy path (>= 0.8x)",
            worst >= 0.8,
        )
    finals = [sweep(abr) for abr in abrs.values()]
    ok &= shape_check(
        "every lane decided a valid ladder index",
        all(
            final.min() >= 0 and final.max() < video.n_qualities
            for final in finals
        ),
    )
    assert ok


def test_perf_prepare_corpus(benchmark):
    """Corpus-lockstep preparation vs per-trace preparation (PR 5).

    One fused Setting-A deployment over all shared-grid traces (MPC
    decides vectorised across lanes), then stacked abduction and FFBS
    sampling — against the per-trace ``use_batch=False`` pipeline.  Both
    paths are bit-identical (``tests/test_batch_prepare.py``); the
    interleaved A/B cancels container CPU noise out of the ratio.
    """
    from repro import paper_corpus

    setting_a = bench_setting_a()
    n_prepare = max(20, 2 * N_TRACES)
    corpus = paper_corpus(
        count=n_prepare, duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    engine_batch = CounterfactualEngine(
        paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED
    )
    engine_serial = CounterfactualEngine(
        paper_veritas_config(),
        n_samples=N_SAMPLES,
        seed=ENGINE_SEED,
        use_batch=False,
    )

    engine_batch.prepare_corpus(corpus, setting_a)  # warm caches
    engine_serial.prepare_corpus(corpus, setting_a)

    batch_times, serial_times = [], []
    for _ in range(3):
        start = time.perf_counter()
        prepared = engine_batch.prepare_corpus(corpus, setting_a)
        batch_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        engine_serial.prepare_corpus(corpus, setting_a)
        serial_times.append(time.perf_counter() - start)
    run_once(benchmark, lambda: engine_batch.prepare_corpus(corpus, setting_a))

    batch_s = min(batch_times)
    serial_s = min(serial_times)
    prepare_speedup = serial_s / batch_s
    prepares_per_sec = n_prepare / batch_s

    print_header(
        "Perf — corpus-lockstep prepare_corpus (batch vs per-trace)",
        "bit-identical paths; target >= 1.5x at corpus scale "
        "(interleaved A/B; the assertion gates at 1.3x for CPU noise)",
    )
    print(
        f"  {n_prepare} shared-grid traces: batch {batch_s * 1e3:.0f} ms vs "
        f"serial {serial_s * 1e3:.0f} ms ({prepare_speedup:.2f}x, "
        f"{prepares_per_sec:.1f} prepares/sec)"
    )
    benchmark.extra_info.update(
        n_prepare_traces=n_prepare,
        prepare_corpus_ms=batch_s * 1e3,
        serial_prepare_corpus_ms=serial_s * 1e3,
        prepares_per_sec=prepares_per_sec,
        prepare_speedup=prepare_speedup,
    )
    ok = shape_check(
        "every trace prepared", len(prepared.per_trace) == n_prepare
    )
    ok &= shape_check(
        "batch preparation beats per-trace (>= 1.3x)", prepare_speedup >= 1.3
    )

    # --- abduction kernel tiers (PR 9) ------------------------------------
    # Two views per tier, interleaved min-of-3 each: the full
    # ``prepare_corpus`` (fused replay so abduction dominates the residual)
    # and the isolated abduction stage (solve_batch + sample_traces_batch on
    # pre-deployed logs) — the stage the compiled kernels actually speed up.
    from repro.core import _kernels
    from repro.core.abduction import ABDUCTION_TIERS, sample_traces_batch
    from repro.util.rng import spawn_seeds

    kernel_live = _kernels.backend() != "python"
    tier_engines = {
        tier: CounterfactualEngine(
            paper_veritas_config(),
            n_samples=N_SAMPLES,
            seed=ENGINE_SEED,
            kernel="compiled",
            abduction_kernel=tier,
        )
        for tier in ABDUCTION_TIERS
    }
    logs = [run_setting(setting_a, trace) for trace in corpus]
    seeds = list(spawn_seeds(ENGINE_SEED, len(logs)))
    solvers = {
        tier: VeritasAbduction(paper_veritas_config(), kernel=tier)
        for tier in ABDUCTION_TIERS
    }
    prepare_s = {tier: float("inf") for tier in ABDUCTION_TIERS}
    abduct_s = {tier: float("inf") for tier in ABDUCTION_TIERS}
    for engine in tier_engines.values():  # warm caches per tier
        engine.prepare_corpus(corpus, setting_a)
    for _ in range(3):
        for tier in ABDUCTION_TIERS:
            start = time.perf_counter()
            tier_engines[tier].prepare_corpus(corpus, setting_a)
            prepare_s[tier] = min(
                prepare_s[tier], time.perf_counter() - start
            )
            start = time.perf_counter()
            posteriors = solvers[tier].solve_batch(logs)
            sample_traces_batch(posteriors, N_SAMPLES, seeds, kernel=tier)
            abduct_s[tier] = min(abduct_s[tier], time.perf_counter() - start)

    print_header(
        "Perf — abduction kernel tiers (reference / numpy / compiled)",
        f"backend: {_kernels.backend()}; numpy bit-identical to reference, "
        f"compiled within rtol=1e-12 (integer outputs bit-identical)",
    )
    for tier in ABDUCTION_TIERS:
        solves_per_sec = n_prepare / abduct_s[tier]
        speedup = abduct_s["numpy"] / abduct_s[tier]
        print(
            f"  {tier:9s}: abduction {abduct_s[tier] * 1e3:5.0f} ms "
            f"({solves_per_sec:5.0f} solves/sec, {speedup:.2f}x vs numpy); "
            f"prepare_corpus {prepare_s[tier] * 1e3:5.0f} ms"
        )
        benchmark.extra_info.update(
            {
                f"{tier}_prepare_corpus_ms": prepare_s[tier] * 1e3,
                f"{tier}_abduction_ms": abduct_s[tier] * 1e3,
                f"{tier}_solves_per_sec": solves_per_sec,
                f"{tier}_abduction_speedup": speedup,
            }
        )
    benchmark.extra_info.update(abduction_backend=_kernels.backend())
    if kernel_live:
        # The compiled kernels must clear the PR-9 acceptance bar on a real
        # backend: >= 2x over the numpy tier on the abduction stage
        # (typical: ~2.7x on cc; the full prepare_corpus gains ~1.6x with
        # the residual spent in fused deployment and trace interpolation).
        ok &= shape_check(
            "compiled abduction at least 2x the numpy tier",
            abduct_s["numpy"] / abduct_s["compiled"] >= 2.0,
        )
    ok &= shape_check(
        "numpy tier at least matches the scalar reference",
        abduct_s["reference"] / abduct_s["numpy"] >= 1.0,
    )
    assert ok


def test_perf_fault_overhead(benchmark):
    """Clean-path cost of the fault-tolerant runtime (PR 7).

    ``on_error="skip"`` wraps every corpus stage in isolation try/excepts
    and threads a FaultLog through the call tree; on a healthy corpus that
    bookkeeping must be invisible.  The same bench-scale ``evaluate_many``
    sweep runs under ``"raise"`` (the historical fail-stop path) and
    ``"skip"`` in 25 back-to-back pairs of 5-sweep samples (alternating
    which goes first); the overhead is the median of the per-pair ratios,
    so container CPU noise cancels out of it.  On the compiled default
    one sweep takes only ~7 ms and its times are bimodal, so a ratio of
    per-arm minima swings by +-20% whenever one arm alone catches a fast
    run.  Acceptance: < 2% overhead.
    """
    from repro import change_abr, paper_corpus

    setting_a = bench_setting_a()
    settings_b = [change_abr(setting_a, q) for q in ["bba", "bola"]]
    corpus = paper_corpus(
        count=min(N_TRACES, 4), duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    engines = {
        policy: CounterfactualEngine(
            paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED,
            on_error=policy,
        )
        for policy in ["raise", "skip"]
    }
    prepared = engines["raise"].prepare_corpus(corpus, setting_a)

    for engine in engines.values():  # warm caches
        engine.evaluate_many(prepared, settings_b)

    times = {policy: [] for policy in engines}
    for i in range(25):
        for policy in ("raise", "skip") if i % 2 == 0 else ("skip", "raise"):
            start = time.perf_counter()
            for _ in range(5):
                results = engines[policy].evaluate_many(prepared, settings_b)
            times[policy].append((time.perf_counter() - start) / 5)
    run_once(
        benchmark, lambda: engines["skip"].evaluate_many(prepared, settings_b)
    )

    raise_s = min(times["raise"])
    skip_s = min(times["skip"])
    ratios = [b / a for a, b in zip(times["raise"], times["skip"])]
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0

    print_header(
        "Perf — fault-isolation overhead (evaluate_many, clean corpus)",
        "FaultLog bookkeeping must be free on the happy path; gate < 2%",
    )
    print(
        f"  on_error='raise' {raise_s * 1e3:.0f} ms vs 'skip' "
        f"{skip_s * 1e3:.0f} ms (min; median paired overhead "
        f"{overhead_pct:+.2f}%)"
    )
    benchmark.extra_info.update(
        raise_evaluate_many_ms=raise_s * 1e3,
        skip_evaluate_many_ms=skip_s * 1e3,
        fault_overhead_pct=overhead_pct,
    )
    ok = shape_check(
        "every query answered for every trace",
        all(len(r.per_trace) == len(corpus) for r in results),
    )
    ok &= shape_check(
        "no faults on a clean corpus", not any(r.faults for r in results)
    )
    ok &= shape_check(
        "fault bookkeeping adds < 2% to the clean path", overhead_pct < 2.0
    )
    assert ok


def test_perf_corpus_evaluation(benchmark):
    """Full counterfactual corpus evaluation at bench scale."""
    setting_a = bench_setting_a()
    setting_b = change_abr(setting_a, "bba")
    corpus = paper_corpus(
        count=N_TRACES, duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    engine = CounterfactualEngine(
        paper_veritas_config(),
        n_samples=N_SAMPLES,
        seed=ENGINE_SEED,
        n_workers=N_WORKERS,
    )

    start = time.perf_counter()
    result = run_once(
        benchmark, lambda: engine.evaluate_corpus(corpus, setting_a, setting_b)
    )
    elapsed_s = time.perf_counter() - start

    traces_per_sec = len(corpus) / elapsed_s
    print_header(
        "Perf — evaluate_corpus",
        "process-pool fan-out via n_workers (bit-identical to serial)",
    )
    print(
        f"  {len(corpus)} traces with n_workers={N_WORKERS}: {elapsed_s:.2f} s "
        f"({traces_per_sec:.2f} traces/sec)"
    )
    benchmark.extra_info.update(
        n_traces=len(corpus),
        n_workers=N_WORKERS,
        corpus_s=elapsed_s,
        traces_per_sec=traces_per_sec,
    )
    assert shape_check(
        "every trace answered", len(result.per_trace) == len(corpus)
    )
