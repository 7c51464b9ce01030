"""Per-layer attribution for the traced run.

The layers are the packages of ``src/repro``.  Host self time comes from
the interpreter's profiling hook (``cProfile``): each function's own time
is charged to its package, and time in a built-in or standard-library
function is passed up to the callers that spent it, so ``heappush`` under
the kernel counts as kernel time.  Boundary times and call counts
(Controller construction, ingest, repair planning, invariant checks,
digests) are the profile's cumulative figures for the named functions.
Dispatch counts and dispatches per second come from thin wrappers around
``Environment.run`` and ``Environment.run_until_process``, which are the
only callers of the kernel's step loop.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.sim.engine import Environment

#: Layers whose self time is reported.
SELF_TIME_LAYERS = (
    "sim", "cluster", "ec", "core", "chaos", "tenancy", "adversary", "geo",
)

#: metric -> ((file path prefix, function name), ...) summed; "_s" metrics take
#: cumulative time, the others call counts.
BOUNDARIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.processes": (("sim/engine.py", "process"),),
    "sim.timeouts": (("sim/engine.py", "timeout"),),
    "cluster.build_s": (("core/controller.py", "__init__"),),
    "cluster.ingest_s": (("core/coordinator.py", "ingest_workload"),),
    "cluster.log_records": (("cluster/logs.py", "emit"),),
    "ec.repair_plan_calls": (("ec/", "repair_plan"),),
    "ec.repair_plan_s": (("ec/", "repair_plan"),),
    "core.timeline_s": (("core/timeline.py", "build_timeline"),),
    "chaos.check_s": (
        ("chaos/invariants.py", "check_step"),
        ("chaos/invariants.py", "check_final"),
    ),
    "chaos.checks": (
        ("chaos/invariants.py", "check_step"),
        ("chaos/invariants.py", "check_final"),
    ),
    "chaos.digest_s": (
        ("chaos/engine.py", "outcome_digest"),
        ("chaos/engine.py", "hash_digest"),
    ),
    "chaos.sample_s": (("chaos/sampler.py", "sample_campaign"),),
}

_PASS_UP_ROUNDS = 32


class KernelMeter:
    """Counts dispatches and the host time spent inside the kernel loop."""

    def __init__(self) -> None:
        self.dispatches = 0
        self.seconds = 0.0
        self._depth = 0

    @contextmanager
    def installed(self) -> Iterator["KernelMeter"]:
        originals = (Environment.run, Environment.run_until_process)
        Environment.run = self._wrap(originals[0])
        Environment.run_until_process = self._wrap(originals[1])
        try:
            yield self
        finally:
            Environment.run, Environment.run_until_process = originals

    def _wrap(self, method):
        meter = self

        def timed(env, *args, **kwargs):
            if meter._depth:
                return method(env, *args, **kwargs)
            meter._depth += 1
            steps, start = env.steps, time.perf_counter()
            try:
                return method(env, *args, **kwargs)
            finally:
                meter.seconds += time.perf_counter() - start
                meter.dispatches += env.steps - steps
                meter._depth -= 1

        return timed


def _layer(filename: str, root: str):
    """Package of ``src/repro`` a source file belongs to, else None."""
    if not filename.startswith(root):
        return None
    head, _, tail = filename[len(root):].partition(os.sep)
    return head if tail else "repro"


def self_time_by_layer(stats, root: str) -> Counter:
    """Host self time per layer from ``cProfile.Profile().stats``."""
    layer_of = {key: _layer(key[0], root) for key in stats}
    out: Counter = Counter()
    pending: Counter = Counter()
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        if layer_of[key]:
            out[layer_of[key]] += tottime
        else:
            pending[key] += tottime
    # Pass time outside the package up to its callers, weighted by the
    # time each caller spent in it, until it lands in a layer.
    for _ in range(_PASS_UP_ROUNDS):
        if not pending:
            break
        passed: Counter = Counter()
        for key, amount in pending.items():
            callers = {c: v for c, v in stats[key][4].items() if c != key}
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[0] for c, v in callers.items()}
                total = sum(weights.values())
            if total <= 0:
                out["other"] += amount
                continue
            for caller, weight in weights.items():
                share = amount * weight / total
                if layer_of.get(caller):
                    out[layer_of[caller]] += share
                else:
                    passed[caller] += share
        pending = passed
    out["other"] += sum(pending.values())
    return out


def boundary_metrics(stats, root: str) -> Dict[str, float]:
    """Cumulative time or call count of the functions in BOUNDARIES."""
    values: Dict[str, float] = {}
    for metric, targets in BOUNDARIES.items():
        column = 3 if metric.endswith("_s") else 1
        values[metric] = sum(
            entry[column]
            for key, entry in stats.items()
            for prefix, name in targets
            if key[2].rpartition(".")[2] == name
            and key[0].startswith(root)
            and key[0][len(root):].replace(os.sep, "/").startswith(prefix)
        )
    return values
