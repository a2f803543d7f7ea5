"""Tasks: the scheduling unit of the (simulated) Hadoop engine.

A task describes its resource demands declaratively — bytes read from HDFS,
bytes written, floating-point operations, bytes contributed to a shuffle —
so the simulator can price it without running it.  A task may also carry a
real ``run`` callable, which the local executor invokes to do the actual
linear algebra; the two paths share one description, which is what makes the
"predicted vs. actual" experiment (E4) meaningful.  A task whose arithmetic
is plan-shaped (tiled multiplies, partial-sum adds) also declares it as a
``kernel``, which a backend with a worker pool ships instead of calling
``run``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from typing import Callable

from repro.errors import ValidationError
from repro.hadoop.kernels import KernelCall


class TaskKind(enum.Enum):
    MAP = "map"
    REDUCE = "reduce"


@dataclass(frozen=True)
class TaskWork:
    """Declarative resource demands of one task.

    Frozen, because the tasks of one shape class share one instance.

    ``flops`` counts dense floating-point work (matrix-multiply kernels);
    ``element_ops`` counts memory-bandwidth-bound element-wise operations.
    The cost model prices the two with separate fitted coefficients.
    ``memory_bytes`` is the task's peak working set, used to model memory
    pressure when many slots share a node.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    flops: int = 0
    element_ops: int = 0
    #: Tile-level kernel invocations (reads, writes, per-tile multiplies):
    #: each carries a fixed framework overhead fitted by benchmarking.
    tile_ops: int = 0
    #: Bytes this map task emits into the shuffle (MapReduce jobs only).
    shuffle_bytes: int = 0
    memory_bytes: int = 0

    def __post_init__(self) -> None:
        for label, value in (("bytes_read", self.bytes_read),
                             ("bytes_written", self.bytes_written),
                             ("flops", self.flops),
                             ("element_ops", self.element_ops),
                             ("tile_ops", self.tile_ops),
                             ("shuffle_bytes", self.shuffle_bytes),
                             ("memory_bytes", self.memory_bytes)):
            if value < 0:
                raise ValidationError(f"{label} must be >= 0, got {value}")


@dataclass(eq=False)
class Task:
    """One map or reduce task.

    Tasks compare by identity: two distinct tasks with identical work are
    still distinct schedulable units, and identity comparison keeps the
    simulator's bookkeeping O(1).
    """

    task_id: str
    kind: TaskKind
    work: TaskWork
    #: Nodes holding replicas of this task's input (for locality scheduling).
    preferred_nodes: frozenset[str] = frozenset()
    #: Real computation, in the calling thread (the inline reference path);
    #: called by the local executor, ignored by the simulator.  Receives no
    #: arguments: inputs are bound at creation time.
    run: Callable[[], None] | None = None
    #: Free-form label for tracing ("mult A*B split (0,1,2)").
    label: str = ""
    #: The same computation as a shippable kernel: does the task's reads and
    #: returns a :class:`~repro.hadoop.kernels.KernelCall`, or ``None`` when
    #: this attempt must go through ``run`` (a sparse operand).
    kernel: Callable[[], KernelCall | None] | None = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValidationError("task_id must be non-empty")


@dataclass
class TaskAttempt:
    """One scheduled execution of a task (simulation output record).

    ``status`` is "success", "failed" (the attempt died and the task was
    retried), or "killed" (a speculative duplicate cancelled after its twin
    finished first).
    """

    task: Task
    node: str
    start: float
    end: float
    concurrency_at_start: int = 1
    status: str = "success"

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def was_local(self) -> bool:
        return (not self.task.preferred_nodes
                or self.node in self.task.preferred_nodes)


def make_map_task(task_id: str, work: TaskWork,
                  preferred_nodes: set[str] | frozenset[str] = frozenset(),
                  run: Callable[[], None] | None = None,
                  label: str = "",
                  kernel: Callable[[], KernelCall | None] | None = None
                  ) -> Task:
    return Task(task_id, TaskKind.MAP, work,
                frozenset(preferred_nodes), run, label, kernel)


def make_reduce_task(task_id: str, work: TaskWork,
                     run: Callable[[], None] | None = None,
                     label: str = "") -> Task:
    return Task(task_id, TaskKind.REDUCE, work, frozenset(), run, label)
