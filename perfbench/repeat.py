"""Repeat a workload over several seeds and print each metric's spread.

    python3 perfbench/repeat.py --workload chaos_streams --runs 10
    python3 perfbench/repeat.py --runs 5 --trace 1        # every workload

Each run is a fresh ``run.py`` process with its own ``--seed``.  For
every metric the table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  For end-to-end metrics it also gives
the bound from BENCHMARK.json; a spread under a third of it is marked
steady.  The last column checks that the failed share of operations is
identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; its last stdout line parsed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, results, bounds) -> bool:
    """Print the spread table; True when every run was correct and the
    failed shares agree."""
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {failed / attempted for failed, attempted in shares}
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, "
          f"failed/attempted={sorted(shares)} "
          f"({'same share' if len(ratios) == 1 else 'SHARE DIFFERS'})")
    print(f"  {'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (median,) * 3)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = f"{bound:6.2f} {'steady' if spread < bound / 3 else 'NOISY'}"
        print(f"  {name:34} {first['unit']:6} {median:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:7.3f} {mark}")
    return correct and len(ratios) == 1


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first run; later runs count up")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    ok = True
    for workload in [args.workload] if args.workload else names:
        results = [
            run_once(workload, args.seed + i, args.seconds, args.trace)
            for i in range(args.runs)
        ]
        ok = summarise(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
