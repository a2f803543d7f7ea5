"""The Cumulon task-time cost model.

Per-task time decomposes as

    t = startup + read + compute + write

where

* ``read``    — bytes in over the node's disk bandwidth, which is *shared*
  by all concurrently running slots on the node; a non-local read is further
  limited by the node's (shared) network bandwidth;
* ``compute`` — dense flops and element ops over the instance's per-core
  rate (each slot gets one core's worth);
* ``write``   — bytes out with HDFS pipeline replication amplification;
* memory pressure — when the working sets of co-resident tasks exceed node
  memory, I/O and compute degrade smoothly (buffer-cache loss + GC), which
  is what bends the slots-per-node curve (E3) past its sweet spot.

The coefficients come from :mod:`repro.core.benchmarking`; per-instance
bandwidths and core speeds come from the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.instances import InstanceType
from repro.core.benchmarking import REFERENCE_COEFFICIENTS, HardwareCoefficients
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobKind
from repro.hadoop.task import Task
from repro.hadoop.timemodel import TaskTimeModel

#: HDFS pipeline replication: each written byte traverses the local disk and
#: is forwarded to (replication - 1) peers; the local node pays roughly this
#: amplification on its write path with replication 3.
WRITE_AMPLIFICATION = 1.5

#: Fraction of node memory available to task working sets (rest is OS,
#: daemons, and the distributed cache).
USABLE_MEMORY_FRACTION = 0.75


@dataclass(frozen=True)
class CostModelConfig:
    """Tunables of the cost model beyond the fitted coefficients."""

    write_amplification: float = WRITE_AMPLIFICATION
    usable_memory_fraction: float = USABLE_MEMORY_FRACTION
    #: Penalty slope once working sets exceed usable memory: effective
    #: slowdown = 1 + slope * (overflow ratio).
    memory_penalty_slope: float = 3.0
    #: MapReduce shuffle amplification: every shuffled byte is spilled to
    #: disk at the map side, moved over the network, and merge-sorted at the
    #: reduce side, so effective shuffle time is a multiple of the pure
    #: network transfer (Hadoop 1.x sort was notoriously expensive).
    shuffle_sort_factor: float = 2.5

    def __post_init__(self) -> None:
        if self.write_amplification < 1.0:
            raise ValidationError("write amplification must be >= 1")
        if not 0.0 < self.usable_memory_fraction <= 1.0:
            raise ValidationError("usable_memory_fraction must be in (0, 1]")
        if self.memory_penalty_slope < 0:
            raise ValidationError("memory_penalty_slope must be >= 0")
        if self.shuffle_sort_factor < 1.0:
            raise ValidationError("shuffle_sort_factor must be >= 1")


class CumulonCostModel(TaskTimeModel):
    """Fitted task-time model; plugs into the cluster simulator."""

    def __init__(self, coefficients: HardwareCoefficients | None = None,
                 config: CostModelConfig | None = None):
        self.coefficients = (coefficients if coefficients is not None
                             else REFERENCE_COEFFICIENTS)
        self.config = config if config is not None else CostModelConfig()

    # -- TaskTimeModel interface ---------------------------------------------

    def task_duration(self, task: Task, instance: InstanceType,
                      concurrency: int, local: bool) -> float:
        if concurrency < 1:
            raise ValidationError(f"concurrency must be >= 1, got {concurrency}")
        work = task.work
        coeff = self.coefficients

        disk_share = instance.disk_bandwidth / concurrency
        read_bandwidth = disk_share
        if not local:
            network_share = instance.network_bandwidth / concurrency
            read_bandwidth = min(disk_share, network_share)
        read_seconds = work.bytes_read / read_bandwidth
        write_seconds = (work.bytes_written * self.config.write_amplification
                         / disk_share)

        compute_seconds = (
            work.flops * coeff.seconds_per_flop
            + work.element_ops * coeff.seconds_per_element_op
            + work.tile_ops * coeff.seconds_per_tile_op
        ) / instance.core_speed

        penalty = self._memory_penalty(work.memory_bytes, instance, concurrency)
        duration = (coeff.task_startup_seconds
                    + (read_seconds + write_seconds + compute_seconds) * penalty)
        return max(duration, 1e-6)

    def job_overhead(self, job: Job) -> float:
        if job.kind is JobKind.MAPREDUCE:
            return self.coefficients.mapreduce_job_overhead
        return self.coefficients.map_only_job_overhead

    def shuffle_duration(self, job: Job, total_network_bandwidth: float) -> float:
        base = super().shuffle_duration(job, total_network_bandwidth)
        return base * self.config.shuffle_sort_factor

    # -- helpers ----------------------------------------------------------------

    def _memory_penalty(self, memory_bytes: int, instance: InstanceType,
                        concurrency: int) -> float:
        """Slowdown from co-resident working sets exceeding node memory."""
        usable = (instance.memory_gb * 1e9
                  * self.config.usable_memory_fraction)
        demand = memory_bytes * concurrency
        if demand <= usable or usable <= 0:
            return 1.0
        overflow_ratio = (demand - usable) / usable
        return 1.0 + self.config.memory_penalty_slope * overflow_ratio
