"""Jobs and job DAGs.

Cumulon's key departure from MapReduce is the **map-only multi-input job**:
one wave of map tasks that read any number of HDFS inputs and write HDFS
outputs directly, skipping the shuffle/sort/reduce machinery entirely.
MapReduce jobs (used by the SystemML-style baselines) additionally carry a
shuffle volume and reduce tasks.

A program compiles into a :class:`JobDag`; edges are data dependencies
(a job reads a matrix another job wrote).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.hadoop.task import Task, TaskKind


class JobKind(enum.Enum):
    MAP_ONLY = "map-only"
    MAPREDUCE = "mapreduce"


@dataclass
class Job:
    """A set of tasks launched together, plus dependency edges."""

    job_id: str
    kind: JobKind
    map_tasks: list[Task] = field(default_factory=list)
    reduce_tasks: list[Task] = field(default_factory=list)
    #: Ids of jobs that must finish before this one starts.
    depends_on: set[str] = field(default_factory=set)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValidationError("job_id must be non-empty")
        if self.kind is JobKind.MAP_ONLY and self.reduce_tasks:
            raise ValidationError(
                f"map-only job {self.job_id} must not have reduce tasks"
            )
        for task in self.map_tasks:
            if task.kind is not TaskKind.MAP:
                raise ValidationError(
                    f"job {self.job_id}: {task.task_id} is not a map task"
                )
        for task in self.reduce_tasks:
            if task.kind is not TaskKind.REDUCE:
                raise ValidationError(
                    f"job {self.job_id}: {task.task_id} is not a reduce task"
                )

    @property
    def num_tasks(self) -> int:
        return len(self.map_tasks) + len(self.reduce_tasks)

    def all_tasks(self) -> list[Task]:
        """Every task of this job, maps first (the execution order)."""
        return self.map_tasks + self.reduce_tasks

    @property
    def shuffle_bytes(self) -> int:
        """Total bytes flowing through this job's shuffle."""
        return sum(task.work.shuffle_bytes for task in self.map_tasks)

    def total_bytes_read(self) -> int:
        return sum(task.work.bytes_read for task in self.all_tasks())

    def total_bytes_written(self) -> int:
        return sum(task.work.bytes_written for task in self.all_tasks())

    def total_flops(self) -> int:
        return sum(task.work.flops for task in self.all_tasks())


class JobDag:
    """A DAG of jobs with helpers for topological traversal."""

    def __init__(self, jobs: list[Job] | None = None):
        self._jobs: dict[str, Job] = {}
        for job in jobs or []:
            self.add(job)

    def add(self, job: Job) -> None:
        if job.job_id in self._jobs:
            raise ValidationError(f"duplicate job id {job.job_id!r}")
        for dep in job.depends_on:
            if dep not in self._jobs:
                raise ValidationError(
                    f"job {job.job_id!r} depends on unknown job {dep!r} "
                    "(add dependencies first)"
                )
        self._jobs[job.job_id] = job

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs.values())

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ValidationError(f"unknown job {job_id!r}") from None

    def topological_order(self) -> list[Job]:
        """Jobs ordered so every dependency precedes its dependents.

        Insertion order already satisfies this (``add`` rejects forward
        references), so this is simply the insertion order — returned as a
        list so callers can't mutate internal state.
        """
        return list(self._jobs.values())

    def num_tasks(self) -> int:
        return sum(job.num_tasks for job in self._jobs.values())
