"""Self-test: does the benchmark see a 2x slowdown injected into one layer?

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seconds 10] [--seeds 1,2,3]

It runs ``run.py`` with and without ``--inject
core.forward_backward_batch`` (the corpus-stacked forward-backward runs
twice per call) and checks three predictions:

1. on ``corpus``, the traced ``core.forward_backward_s`` at least 1.5x
   its clean value;
2. on ``corpus``, ``answers_per_s`` drops: the injected median is lower
   than the lowest clean run;
3. on ``interventional``, which solves one prefix at a time on the scalar
   path and never calls the batched function, ``answers_per_s`` stays
   within its bound from ``BENCHMARK.json``.

Exit code 0 when all three hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INJECTION = "core.forward_backward_batch"


def run(workload: str, seed: int, seconds: int, trace: int, inject: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if inject:
        cmd += ["--inject", INJECTION]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: answers failed the reference check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def answers_per_s(workload, seeds, seconds) -> "tuple[list[float], list[float]]":
    clean, slowed = [], []
    for i, seed in enumerate(seeds):
        # Alternate which side runs first so drift hits both equally.
        for inject in (False, True) if i % 2 == 0 else (True, False):
            value = run(workload, seed, seconds, 0, inject)["answers_per_s"]
            (slowed if inject else clean).append(value)
    return clean, slowed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "answers_per_s")
    ok = True

    clean = run("corpus", seeds[0], args.seconds, 1, False)["core.forward_backward_s"]
    slowed = run("corpus", seeds[0], args.seconds, 1, True)["core.forward_backward_s"]
    ratio = slowed / clean
    passed = ratio >= 1.5
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} corpus core.forward_backward_s "
          f"{clean:.4f} -> {slowed:.4f} s/round ({ratio:.2f}x, want >= 1.5x)")

    clean_runs, slowed_runs = answers_per_s("corpus", seeds, args.seconds)
    base, hit = statistics.median(clean_runs), statistics.median(slowed_runs)
    passed = hit < min(clean_runs)
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} corpus answers_per_s median {base:.3f} -> "
          f"{hit:.3f} ({hit / base - 1:+.1%}); clean runs {clean_runs}, "
          f"injected runs {slowed_runs}")

    clean_runs, slowed_runs = answers_per_s("interventional", seeds, args.seconds)
    base, hit = statistics.median(clean_runs), statistics.median(slowed_runs)
    passed = hit >= base * (1 - bound)
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} interventional answers_per_s median "
          f"{base:.3f} -> {hit:.3f} ({hit / base - 1:+.1%}, bound -{bound:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
