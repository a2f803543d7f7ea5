"""Unit tests for task/job descriptors and the job DAG."""

import pytest

from repro.errors import ValidationError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import (
    Task,
    TaskAttempt,
    TaskKind,
    TaskWork,
    make_map_task,
    make_reduce_task,
)


class TestTaskWork:
    def test_defaults_zero(self):
        work = TaskWork()
        assert work.bytes_read == 0
        assert work.flops == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            TaskWork(bytes_read=-1)
        with pytest.raises(ValidationError):
            TaskWork(flops=-5)
        with pytest.raises(ValidationError):
            TaskWork(memory_bytes=-5)


class TestTask:
    def test_map_task_kind(self):
        task = make_map_task("t1", TaskWork())
        assert task.kind is TaskKind.MAP

    def test_reduce_task_kind(self):
        task = make_reduce_task("r1", TaskWork())
        assert task.kind is TaskKind.REDUCE

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            Task("", TaskKind.MAP, TaskWork())

    def test_preferred_nodes_frozen(self):
        task = make_map_task("t1", TaskWork(), preferred_nodes={"a", "b"})
        assert task.preferred_nodes == frozenset({"a", "b"})


class TestTaskAttempt:
    def test_duration(self):
        attempt = TaskAttempt(make_map_task("t", TaskWork()), "n", 1.0, 3.5)
        assert attempt.duration == pytest.approx(2.5)

    def test_was_local_with_no_preference(self):
        attempt = TaskAttempt(make_map_task("t", TaskWork()), "n", 0, 1)
        assert attempt.was_local

    def test_was_local_respects_preference(self):
        task = make_map_task("t", TaskWork(), preferred_nodes={"a"})
        assert TaskAttempt(task, "a", 0, 1).was_local
        assert not TaskAttempt(task, "b", 0, 1).was_local


class TestJob:
    def test_map_only_job(self):
        job = Job("j", JobKind.MAP_ONLY,
                  [make_map_task("m", TaskWork(bytes_read=10))])
        assert job.num_tasks == 1
        assert job.total_bytes_read() == 10

    def test_map_only_rejects_reducers(self):
        with pytest.raises(ValidationError):
            Job("j", JobKind.MAP_ONLY, [], [make_reduce_task("r", TaskWork())])

    def test_wrong_kind_in_map_slot(self):
        with pytest.raises(ValidationError):
            Job("j", JobKind.MAP_ONLY, [make_reduce_task("r", TaskWork())])

    def test_wrong_kind_in_reduce_slot(self):
        with pytest.raises(ValidationError):
            Job("j", JobKind.MAPREDUCE, [],
                [make_map_task("m", TaskWork())])

    def test_shuffle_bytes_sums_map_emissions(self):
        maps = [make_map_task(f"m{i}", TaskWork(shuffle_bytes=10))
                for i in range(3)]
        job = Job("j", JobKind.MAPREDUCE, maps,
                  [make_reduce_task("r", TaskWork())])
        assert job.shuffle_bytes == 30

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            Job("", JobKind.MAP_ONLY, [])

    def test_totals(self):
        job = Job("j", JobKind.MAPREDUCE,
                  [make_map_task("m", TaskWork(bytes_read=5, flops=7))],
                  [make_reduce_task("r", TaskWork(bytes_written=11, flops=13))])
        assert job.total_bytes_read() == 5
        assert job.total_bytes_written() == 11
        assert job.total_flops() == 20


class TestJobDag:
    def test_insertion_order_is_topological(self):
        dag = JobDag()
        dag.add(Job("a", JobKind.MAP_ONLY, []))
        dag.add(Job("b", JobKind.MAP_ONLY, [], depends_on={"a"}))
        assert [job.job_id for job in dag.topological_order()] == ["a", "b"]

    def test_forward_reference_rejected(self):
        dag = JobDag()
        with pytest.raises(ValidationError):
            dag.add(Job("b", JobKind.MAP_ONLY, [], depends_on={"a"}))

    def test_duplicate_id_rejected(self):
        dag = JobDag([Job("a", JobKind.MAP_ONLY, [])])
        with pytest.raises(ValidationError):
            dag.add(Job("a", JobKind.MAP_ONLY, []))

    def test_get(self):
        dag = JobDag([Job("a", JobKind.MAP_ONLY, [])])
        assert dag.get("a").job_id == "a"
        with pytest.raises(ValidationError):
            dag.get("z")

    def test_num_tasks(self):
        dag = JobDag([
            Job("a", JobKind.MAP_ONLY, [make_map_task("m", TaskWork())]),
            Job("b", JobKind.MAPREDUCE,
                [make_map_task("m2", TaskWork())],
                [make_reduce_task("r", TaskWork())], depends_on={"a"}),
        ])
        assert dag.num_tasks() == 3
