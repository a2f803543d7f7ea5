"""Plan advisor: static warnings about a compiled plan on a cluster.

The cost model penalizes bad plans smoothly; the advisor *names* the
problems so a user (or a test) can see why a plan is slow before running
anything:

* tasks whose working set exceeds the per-slot memory budget;
* jobs with too few tasks to occupy the cluster;
* jobs whose tasks are dominated by fixed startup overhead;
* MapReduce jobs whose shuffle volume dwarfs their input.

It also reads :mod:`repro.cloud.spot`: :func:`advise_checkpoint_interval`
turns a seeded spot-market price path into a revocation rate and a
Young/Daly checkpoint interval, so an iterative program knows how often to
snapshot before bidding on spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.instances import ClusterSpec
from repro.cloud.spot import MAX_SIMULATED_HOURS, SpotMarket
from repro.core.compiler import CompiledProgram
from repro.core.costmodel import USABLE_MEMORY_FRACTION
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobKind


@dataclass(frozen=True)
class Warning_:
    """One advisor finding."""

    job_id: str
    kind: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.kind}] {self.job_id}: {self.message}"


def validate_plan(compiled: CompiledProgram,
                  spec: ClusterSpec) -> list[Warning_]:
    """Inspect every job of a compiled program against a cluster spec."""
    warnings: list[Warning_] = []
    for job in compiled.dag.topological_order():
        warnings.extend(_check_memory(job, spec))
        warnings.extend(_check_parallelism(job, spec))
        warnings.extend(_check_granularity(job))
        warnings.extend(_check_shuffle(job))
    return warnings


def _check_memory(job: Job, spec: ClusterSpec) -> list[Warning_]:
    usable = (spec.instance_type.memory_gb * 1e9 * USABLE_MEMORY_FRACTION
              / spec.slots_per_node)
    findings = []
    worst = max((task.work.memory_bytes
                 for task in job.map_tasks + job.reduce_tasks), default=0)
    if worst > usable:
        findings.append(Warning_(
            job.job_id, "memory",
            f"peak task working set {worst / 1e9:.1f} GB exceeds the "
            f"{usable / 1e9:.1f} GB per-slot budget on "
            f"{spec.instance_type.name} with {spec.slots_per_node} slots "
            "— split the multiply deeper (k_splits) or use smaller tiles",
        ))
    return findings


def _check_parallelism(job: Job, spec: ClusterSpec) -> list[Warning_]:
    n_tasks = len(job.map_tasks)
    if 0 < n_tasks < spec.total_slots // 2:
        return [Warning_(
            job.job_id, "parallelism",
            f"only {n_tasks} map tasks for {spec.total_slots} slots "
            "— most of the cluster will idle; use finer chunking",
        )]
    return []


#: Tasks below this many bytes+flops-equivalents are overhead-dominated.
_TINY_TASK_BYTES = 4 * 1024 * 1024


def _check_granularity(job: Job) -> list[Warning_]:
    tiny = [task for task in job.map_tasks
            if task.work.bytes_read + task.work.bytes_written
            < _TINY_TASK_BYTES and task.work.flops < 10**8]
    if job.map_tasks and len(tiny) == len(job.map_tasks) \
            and len(job.map_tasks) > 8:
        return [Warning_(
            job.job_id, "granularity",
            f"all {len(job.map_tasks)} map tasks are tiny "
            "(startup-dominated) — coarsen tiles_per_task",
        )]
    return []


def _check_shuffle(job: Job) -> list[Warning_]:
    if job.kind is not JobKind.MAPREDUCE:
        return []
    # Compare against the map-side input only: reducers' bytes_read *are*
    # the shuffled data, so counting them would hide the amplification.
    read = sum(task.work.bytes_read for task in job.map_tasks)
    if read and job.shuffle_bytes > 4 * read:
        return [Warning_(
            job.job_id, "shuffle",
            f"shuffle volume {job.shuffle_bytes / 2**30:.1f} GB is "
            f"{job.shuffle_bytes / read:.0f}x the input "
            "— replication-based strategies explode here; prefer CPMM "
            "or a map-only plan",
        )]
    return []


# ---------------------------------------------------------------------------
# Checkpoint-interval advice for spot deployments.
# ---------------------------------------------------------------------------

def revocation_probability(market: SpotMarket, bid_fraction: float,
                           sample_hours: int = 2000,
                           seed: int = 0) -> float:
    """Fraction of sampled hours whose spot price exceeds the bid.

    This is the per-hour revocation hazard implied by the seeded price
    process — the empirical counterpart of the rate the Young/Daly formula
    needs.
    """
    if bid_fraction <= 0:
        raise ValidationError("bid_fraction must be positive")
    if sample_hours < 1:
        raise ValidationError("sample_hours must be >= 1")
    hours = min(sample_hours, MAX_SIMULATED_HOURS - 1)
    exceeded = sum(
        1 for hour in range(1, hours + 1)
        if market.price_fraction(seed, hour) > bid_fraction
    )
    return exceeded / hours


@dataclass(frozen=True)
class CheckpointAdvice:
    """Recommended checkpoint cadence for a spot deployment."""

    revocation_probability_per_hour: float
    mtbf_seconds: float
    interval_seconds: float
    checkpoint_seconds: float
    expected_overhead_fraction: float

    def describe(self) -> str:
        if math.isinf(self.mtbf_seconds):
            return ("revocation hazard ~0/hour at this bid — "
                    "checkpointing optional")
        return (
            f"revocation hazard {self.revocation_probability_per_hour:.3f}"
            f"/hour (MTBF {self.mtbf_seconds / 3600:.1f}h): checkpoint "
            f"every {self.interval_seconds:.0f}s "
            f"(snapshot costs {self.checkpoint_seconds:.0f}s, expected "
            f"overhead {self.expected_overhead_fraction * 100:.1f}%)"
        )


def advise_checkpoint_interval(market: SpotMarket, bid_fraction: float,
                               checkpoint_seconds: float,
                               work_seconds: float | None = None,
                               sample_hours: int = 2000,
                               seed: int = 0) -> CheckpointAdvice:
    """Young/Daly checkpoint interval for a bid on a seeded spot market.

    ``interval = sqrt(2 * C * MTBF)`` with the MTBF read off the market's
    empirical hourly revocation hazard.  ``work_seconds`` (total run
    length, when known) clamps the interval — checkpointing less than once
    per run is just "checkpoint at the end".
    """
    if checkpoint_seconds <= 0:
        raise ValidationError("checkpoint_seconds must be positive")
    if work_seconds is not None and work_seconds <= 0:
        raise ValidationError("work_seconds must be positive")
    hazard = revocation_probability(market, bid_fraction,
                                    sample_hours=sample_hours, seed=seed)
    if hazard == 0:
        return CheckpointAdvice(
            revocation_probability_per_hour=0.0,
            mtbf_seconds=float("inf"),
            interval_seconds=(work_seconds if work_seconds is not None
                              else float("inf")),
            checkpoint_seconds=checkpoint_seconds,
            expected_overhead_fraction=0.0,
        )
    mtbf = 3600.0 / hazard
    interval = math.sqrt(2.0 * checkpoint_seconds * mtbf)
    if work_seconds is not None:
        interval = min(interval, work_seconds)
    overhead = checkpoint_seconds / interval + interval / (2.0 * mtbf)
    return CheckpointAdvice(
        revocation_probability_per_hour=hazard,
        mtbf_seconds=mtbf,
        interval_seconds=interval,
        checkpoint_seconds=checkpoint_seconds,
        expected_overhead_fraction=overhead,
    )
