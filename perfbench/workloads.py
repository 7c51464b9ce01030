"""The benchmark's three workloads: fixed inputs, timed operations, checks.

A workload is a list of operations that one *round* runs once each; a run
repeats whole rounds.  An operation is one experiment, one chaos
campaign, or one fuzz session.  Every input is fixed here (the paper's
profiles, chaos root seeds, the fuzz budget); the run's ``--seed`` only
sets the order of the operations inside a round.  Per-campaign host cost
varies with the sampler seed by a coefficient of variation of 0.6-0.9,
so seed-drawn campaign sets would spread round times by far more than
any regression bound; fixed inputs make two runs do identical simulated
work, which is what lets their host times be compared.

The checks never copy today's output: they recompute each figure from an
independent source (the analytical twin, the pre-fault placement, the
MSR/RS repair-read bounds, the byte ledger re-added from the digest) or
compare a re-run of the same input with its first run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro import FaultSpec, Workload, run_experiment
from repro.adversary.fuzzer import run_fuzz
from repro.chaos.engine import run_campaign, run_chaos
from repro.chaos.sampler import sample_campaign
from repro.core.controller import Controller
from repro.core.profile import PAPER_CLAY_PROFILE, PAPER_RS_PROFILE
from repro.twin import DEFAULT_BOUNDS, predict

MB = 1024 * 1024

#: §4.1: 2000 objects of 64 MB, one node (two OSDs) failed, pg_num 256.
#: Seed 3 is the seed of the repo's own paper benchmarks and of the
#: twin's differential grid.  The seed is not drawn per run: about one
#: experiment seed in ten hits a recovery fault (see CHANGES.md) that
#: abandons PGs, and an operation that fails on some seeds only would
#: make the failed share differ between runs.
PAPER_OBJECTS = 2000
PAPER_OBJECT_SIZE = 64 * MB
PAPER_SEED = 3

#: chaos_tenants: one tenant campaign per root (about 1.2 s each).
TENANT_ROOTS = (100, 101, 102, 103)

#: chaos_streams: (stream flag, root seeds).  Writes campaigns cost about
#: 0.3 s, the others about 0.05 s; the counts keep a round near 5 s.
STREAM_ROOTS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("default", tuple(range(200, 210))),
    ("writes", tuple(range(200, 206))),
    ("geo", tuple(range(200, 210))),
    ("byzantine", tuple(range(200, 210))),
    ("cascade", tuple(range(200, 210))),
)
FUZZ_ROOT = 300
FUZZ_BUDGET = 12

#: The one operation that fails today: a correlated crash fails a disk
#: while ScrubManager._deep_scrub waits on its read grant, and the read
#: raises an uncaught DiskFailedError.  Run on its own, so the crash
#: cannot abort a run_chaos batch.
CRASHING_CASCADE_SEED = 1009

#: Simulated counters every workload reports (zero where it has none).
SIM_COUNTERS = (
    "cluster.recovery.chunks_rebuilt",
    "cluster.recovery.bytes_read",
    "cluster.recovery.sim_s",
    "cluster.client.ops",
    "cluster.client.attempts",
    "chaos.campaigns",
    "chaos.invalid",
    "tenancy.mclock_served",
    "adversary.runs",
    "adversary.coverage_pairs",
)


@dataclass
class Op:
    """One timed operation: ``run()`` returns what the checks inspect."""

    key: str
    run: Callable[[], Any]


@dataclass
class Tally:
    """Operations, checks and simulated counters over a run's rounds."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    sim: Counter = field(default_factory=Counter)
    signatures: Dict[str, Any] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def same_as_first(self, key: str, signature: Any) -> None:
        """A re-run of the same input must reproduce its first result."""
        first = self.signatures.setdefault(key, signature)
        self.expect(first == signature, f"{key}: re-run result differs")


# -- paper_recovery -------------------------------------------------------------


def _chunk_bytes(profile) -> int:
    """Stored bytes per chunk: the object split into k stripe-unit rows."""
    k, unit = profile.ec_params["k"], profile.stripe_unit
    return -(-PAPER_OBJECT_SIZE // (k * unit)) * unit


def _repair_reads_per_chunk(profile) -> float:
    """Chunks read per rebuilt chunk: k for RS, d/(d-k+1) for MSR Clay."""
    params = profile.ec_params
    if profile.ec_plugin == "clay":
        return params["d"] / (params["d"] - params["k"] + 1)
    return float(params["k"])


class PaperRecovery:
    """Clay(12,9,11) and RS(12,9) under §4.1, one node fault each."""

    name = "paper_recovery"

    def __init__(self) -> None:
        self.workload = Workload(
            num_objects=PAPER_OBJECTS, object_size=PAPER_OBJECT_SIZE
        )
        self.faults = [FaultSpec(level="node", count=1)]
        self.profiles = (PAPER_CLAY_PROFILE, PAPER_RS_PROFILE)
        self._placement: Dict[str, Dict[int, int]] = {}

    def ops(self) -> List[Op]:
        return [
            Op(profile.name, lambda profile=profile: (profile, run_experiment(
                profile, self.workload, self.faults, seed=PAPER_SEED
            )))
            for profile in self.profiles
        ]

    def _chunks_per_osd(self, profile) -> Dict[int, int]:
        """Chunks each OSD holds before the fault, from a fresh ingest."""
        if profile.name not in self._placement:
            controller = Controller(profile, seed=PAPER_SEED)
            controller.coordinator.ingest_workload(self.workload)
            self._placement[profile.name] = {
                osd_id: osd.backend.num_chunks
                for osd_id, osd in controller.cluster.osds.items()
            }
        return self._placement[profile.name]

    def check(self, key: str, value, tally: Tally) -> None:
        profile, outcome = value
        twin = predict(profile, self.workload, self.faults)
        stats, timeline = outcome.recovery_stats, outcome.timeline
        tally.expect(
            outcome.wa.used_bytes == twin.used_bytes,
            f"{key}: used_bytes {outcome.wa.used_bytes} != twin {twin.used_bytes}",
        )
        error = abs(timeline.total_recovery - twin.recovery_time) / twin.recovery_time
        tally.expect(
            error <= DEFAULT_BOUNDS["recovery_time"],
            f"{key}: recovery {timeline.total_recovery:.1f}s is {error:.1%} "
            f"off the twin's {twin.recovery_time:.1f}s",
        )
        tally.expect(
            math.isclose(
                timeline.marked_out - timeline.failure_detected,
                profile.ceph.mon_osd_down_out_interval,
            ),
            f"{key}: detection to mark-out is not mon_osd_down_out_interval",
        )
        placement = self._chunks_per_osd(profile)
        held = sum(placement[osd_id] for osd_id in outcome.injected_osds)
        tally.expect(
            stats.chunks_rebuilt == held,
            f"{key}: rebuilt {stats.chunks_rebuilt} chunks, victims held {held}",
        )
        expected = stats.chunks_rebuilt * _repair_reads_per_chunk(profile) * _chunk_bytes(profile)
        # Clay reads whole sub-chunk ranges, each truncated to a byte:
        # at most one byte per helper per rebuilt chunk.
        slack = stats.chunks_rebuilt * profile.ec_params.get("d", 0)
        tally.expect(
            abs(stats.bytes_read - expected) <= slack,
            f"{key}: repair read {stats.bytes_read} B, expected {expected:.0f} B",
        )
        tally.same_as_first(key, (
            outcome.injected_osds, stats.chunks_rebuilt, stats.bytes_read,
            timeline.total_recovery, outcome.wa.used_bytes,
        ))
        _count_recovery(tally.sim, stats.chunks_rebuilt, stats.bytes_read,
                        stats.started_at, stats.finished_at)


# -- chaos workloads --------------------------------------------------------------


def _count_recovery(sim: Counter, rebuilt, bytes_read, started, finished) -> None:
    sim["cluster.recovery.chunks_rebuilt"] += rebuilt
    sim["cluster.recovery.bytes_read"] += bytes_read
    if started is not None and finished is not None:
        sim["cluster.recovery.sim_s"] += finished - started


def _check_campaign(key: str, result, tally: Tally) -> None:
    """Invariants held, health is OK, and the byte ledger adds up."""
    digest = result.digest
    tally.expect(result.passed, f"{key}: {len(result.violations)} invariant violations")
    status = digest["health"]["status"]
    tally.expect(status == "HEALTH_OK", f"{key}: ended {status}")
    ledger = digest["ledger"]
    buckets = sum(
        ledger.get(name, 0)
        for name in ("client_bytes", "parity_padding_bytes", "metadata_bytes", "repair_bytes")
    )
    used = sum(osd["used_bytes"] for osd in digest["osds"].values())
    tally.expect(buckets == used, f"{key}: ledger {buckets} B != OSDs {used} B")
    tally.same_as_first(key, result.outcome_hash)

    sim = tally.sim
    recovery = digest["recovery"]
    _count_recovery(sim, recovery["chunks_rebuilt"], recovery["bytes_read"],
                    recovery.get("started_at"), recovery.get("finished_at"))
    # Sample rows end (..., attempts) for writes, (..., attempts, hedged)
    # for reads.
    writes = list(digest.get("writes", {}).get("samples", ()))
    reads = []
    for tenant in digest.get("tenants", {}).values():
        reads += tenant["samples"]
        writes += tenant.get("write_samples", [])
    sim["cluster.client.ops"] += len(reads) + len(writes)
    sim["cluster.client.attempts"] += (
        sum(row[-2] for row in reads) + sum(row[-1] for row in writes)
    )
    sim["tenancy.mclock_served"] += sum(
        bucket["served"] for bucket in digest.get("qos", {}).values()
    )


def _chaos_op(root: int, stream: str) -> Op:
    flags = {} if stream == "default" else {stream: True}

    def run():
        results = []
        report = run_chaos(
            root, 1,
            on_campaign=lambda index, spec, result, error: results.append(result),
            **flags,
        )
        return report, results

    return Op(f"{stream}-{root}", run)


def _check_chaos(key: str, value, tally: Tally) -> None:
    report, results = value
    tally.sim["chaos.invalid"] += report.invalid
    for result in results:
        tally.sim["chaos.campaigns"] += 1
        if result is not None:  # None: invalid, counted but not checked
            _check_campaign(key, result, tally)


class ChaosTenants:
    """QoS-arbitrated tenant fleets under faults: mClock and client reads."""

    name = "chaos_tenants"

    def ops(self) -> List[Op]:
        return [_chaos_op(root, "tenants") for root in TENANT_ROOTS]

    def check(self, key: str, value, tally: Tally) -> None:
        _check_chaos(key, value, tally)


class ChaosStreams:
    """Many short campaigns of every other stream, a fuzz budget, and the
    known-crashing cascade campaign on its own."""

    name = "chaos_streams"

    def __init__(self) -> None:
        self.crashing_spec = sample_campaign(CRASHING_CASCADE_SEED, cascade=True)

    def ops(self) -> List[Op]:
        ops = [
            _chaos_op(root, stream)
            for stream, roots in STREAM_ROOTS
            for root in roots
        ]
        ops.append(Op("fuzz", lambda: run_fuzz(FUZZ_ROOT, FUZZ_BUDGET)))
        ops.append(Op(
            f"cascade-seed-{CRASHING_CASCADE_SEED}",
            lambda: run_campaign(self.crashing_spec),
        ))
        return ops

    def check(self, key: str, value, tally: Tally) -> None:
        if key == "fuzz":
            report = value
            tally.expect(
                report.runs == FUZZ_BUDGET and not report.failures,
                f"fuzz: {report.runs} runs of {FUZZ_BUDGET}, "
                f"{len(report.failures)} failures",
            )
            summary = json.dumps(report.summary(), sort_keys=True)
            tally.same_as_first(key, hashlib.sha256(summary.encode()).hexdigest())
            tally.sim["adversary.runs"] += report.runs
            tally.sim["adversary.coverage_pairs"] += len(report.corpus.seen_coverage)
        elif key.startswith("cascade-seed-"):
            tally.sim["chaos.campaigns"] += 1
            _check_campaign(key, value, tally)
        else:
            _check_chaos(key, value, tally)


WORKLOADS = {
    "paper_recovery": PaperRecovery,
    "chaos_tenants": ChaosTenants,
    "chaos_streams": ChaosStreams,
}


def prepare(name: str, seed: int):
    """Build a workload's inputs; the seed orders the round's operations."""
    workload = WORKLOADS[name]()
    ops = workload.ops()
    random.Random(seed).shuffle(ops)
    return workload, ops

