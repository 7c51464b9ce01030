"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper_recovery --seed 0 --seconds 20 --trace 0

A run repeats whole rounds of the workload's operations (at least two,
then until ``--seconds`` have passed; the default is BENCHMARK.json's
``run_seconds``), checks every output, and prints
``{"correct", "attempted", "failed", "metrics"}`` as its last line.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median host
seconds of one round), ``setup_s`` (median over fresh processes of the
seconds from process start to the first timed operation) and
``peak_rss_mb``.  ``--trace 1`` reports the per-layer metrics instead,
each per round: two rounds without the profiler give dispatches per
second and the untraced round time, profiled rounds give the rest, and
``trace.overhead`` is the profiled round time over the untraced one.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

MIN_ROUNDS = 2
SETUP_PROBES = 5


def _import_program():
    """Import the program from this checkout's ``src``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median seconds from spawning a fresh process to its ready line."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
            code = probe.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: setup probe failed (exit {code})")
    return statistics.median(samples)


def _run_round(ops, workload, tally, profile=None):
    """Run every op once and return the host seconds they took.

    Only the operations are timed; their outputs are checked after.
    """
    gc.collect()
    outputs = []
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    for op in ops:
        try:
            outputs.append((op.key, op.run()))
        except Exception as exc:  # a crash is a failed operation
            tally.failed += 1
            print(f"perfbench: {op.key} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    if profile is not None:
        profile.disable()
    seconds = time.perf_counter() - start
    tally.attempted += len(ops)
    for key, value in outputs:
        workload.check(key, value, tally)
    return seconds


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, Tally, prepare

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"options: {sorted(WORKLOADS)}")
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    workload, ops = prepare(args.workload, args.seed)
    tally = Tally()
    round_seconds = []

    if args.trace:
        from layers import KernelMeter
        meter = KernelMeter()
        with meter.installed():
            for _ in range(MIN_ROUNDS):  # the last one is warm
                meter.dispatches, meter.seconds = 0, 0.0
                untraced_s = _run_round(ops, workload, tally)
            dispatches_per_s = meter.dispatches / meter.seconds
            sim_before = Counter(tally.sim)
            meter.dispatches = 0
            profile = cProfile.Profile()
            started = time.perf_counter()
            while not round_seconds or time.perf_counter() - started < args.seconds:
                round_seconds.append(_run_round(ops, workload, tally, profile))
        profile.create_stats()
        metrics = _layer_metrics(
            profile.stats, meter.dispatches, dispatches_per_s,
            tally.sim - sim_before, len(round_seconds),
            statistics.median(round_seconds) / untraced_s,
        )
    else:
        started = time.perf_counter()
        while (len(round_seconds) < MIN_ROUNDS
               or time.perf_counter() - started < args.seconds):
            round_seconds.append(_run_round(ops, workload, tally))
        metrics = _declared("end_to_end", {
            "wall_s": statistics.median(round_seconds),
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
        })

    for error in tally.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _layer_metrics(stats, dispatches, dispatches_per_s, sim, rounds, overhead):
    """Every per-layer metric, per profiled round, with its unit."""
    from layers import SELF_TIME_LAYERS, boundary_metrics, self_time_by_layer
    from workloads import SIM_COUNTERS

    root = str(SRC / "repro") + os.sep
    self_time = self_time_by_layer(stats, root)
    values = {f"{layer}.self_s": self_time[layer] for layer in SELF_TIME_LAYERS}
    values.update(boundary_metrics(stats, root))
    values["sim.dispatches"] = dispatches
    values.update({name: sim[name] for name in SIM_COUNTERS})
    values = {name: value / rounds for name, value in values.items()}
    values["sim.dispatches_per_s"] = dispatches_per_s
    values["trace.overhead"] = overhead
    return _declared("per_layer", values)


def _declared(kind, values):
    """The values as ``{name: {value, unit}}`` for BENCHMARK.json's list."""
    units = {metric["name"]: metric["unit"] for metric in DECLARED[kind]}
    if units.keys() != values.keys():
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(units.keys() ^ values.keys())}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
