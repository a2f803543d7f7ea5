"""Unit tests for the discrete-event cluster simulator."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import SchedulingError, ValidationError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import FixedTimeModel, TaskTimeModel


def spec(nodes=2, slots=2, instance="m1.large"):
    return ClusterSpec(get_instance_type(instance), nodes, slots)


def map_only(job_id, n_tasks, deps=(), preferred=None):
    tasks = [make_map_task(f"{job_id}-t{i}", TaskWork(bytes_read=1),
                           preferred_nodes=preferred or frozenset())
             for i in range(n_tasks)]
    return Job(job_id, JobKind.MAP_ONLY, tasks, depends_on=set(deps))


class TestWaves:
    def test_single_wave(self):
        dag = JobDag([map_only("j", 4)])
        result = ClusterSimulator(spec(), FixedTimeModel(2.0)).run(dag)
        assert result.makespan == pytest.approx(2.0)

    def test_two_waves(self):
        dag = JobDag([map_only("j", 5)])
        result = ClusterSimulator(spec(), FixedTimeModel(2.0)).run(dag)
        assert result.makespan == pytest.approx(4.0)

    def test_wave_count_formula(self):
        for n_tasks in (1, 4, 7, 8, 9, 16):
            dag = JobDag([map_only("j", n_tasks)])
            result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
            expected_waves = -(-n_tasks // 4)  # ceil over 4 slots
            assert result.makespan == pytest.approx(float(expected_waves))

    def test_job_overhead_added_once(self):
        dag = JobDag([map_only("j", 4)])
        result = ClusterSimulator(spec(), FixedTimeModel(2.0, 3.0)).run(dag)
        assert result.makespan == pytest.approx(5.0)

    def test_empty_dag(self):
        result = ClusterSimulator(spec(), FixedTimeModel()).run(JobDag())
        assert result.makespan == 0.0

    def test_job_with_no_tasks_finishes(self):
        dag = JobDag([Job("empty", JobKind.MAP_ONLY, [])])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0, 2.0)).run(dag)
        assert result.makespan == pytest.approx(2.0)


class TestDependencies:
    def test_sequential_jobs(self):
        dag = JobDag([map_only("a", 4), map_only("b", 4, deps=["a"])])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
        assert result.makespan == pytest.approx(2.0)
        assert result.job("b").start >= result.job("a").end

    def test_independent_jobs_share_cluster(self):
        dag = JobDag([map_only("a", 2), map_only("b", 2)])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
        # 4 tasks over 4 slots: both finish in one wave.
        assert result.makespan == pytest.approx(1.0)

    def test_diamond_dependencies(self):
        dag = JobDag([
            map_only("src", 1),
            map_only("left", 1, deps=["src"]),
            map_only("right", 1, deps=["src"]),
            map_only("sink", 1, deps=["left", "right"]),
        ])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
        assert result.makespan == pytest.approx(3.0)
        assert result.job("sink").start >= max(result.job("left").end,
                                               result.job("right").end)

    def test_fifo_priority_earlier_job_first(self):
        # 8 tasks each, only 4 slots: job a's tasks must all start before
        # job b gets a slot in the first wave.
        dag = JobDag([map_only("a", 4), map_only("b", 4)])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
        first_wave = [attempt.task.task_id
                      for timeline in result.job_timelines.values()
                      for attempt in timeline.attempts if attempt.start == 0.0]
        assert all(task_id.startswith("a") for task_id in first_wave)


class TestMapReduce:
    def test_shuffle_barrier(self):
        maps = [make_map_task(f"m{i}", TaskWork(shuffle_bytes=10**8))
                for i in range(4)]
        reduces = [make_reduce_task(f"r{i}", TaskWork()) for i in range(2)]
        job = Job("mr", JobKind.MAPREDUCE, maps, reduces)
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(JobDag([job]))
        timeline = result.job("mr")
        assert timeline.shuffle_seconds > 0
        map_end = max(a.end for a in timeline.attempts
                      if a.task.task_id.startswith("m"))
        reduce_start = min(a.start for a in timeline.attempts
                           if a.task.task_id.startswith("r"))
        assert reduce_start >= map_end + timeline.shuffle_seconds

    def test_mapreduce_slower_than_map_only_same_work(self):
        maps = [make_map_task(f"m{i}", TaskWork(shuffle_bytes=10**7))
                for i in range(4)]
        mr_dag = JobDag([Job("mr", JobKind.MAPREDUCE, maps,
                             [make_reduce_task("r", TaskWork())])])
        mo_dag = JobDag([map_only("mo", 4)])
        model = FixedTimeModel(1.0)
        mr_time = ClusterSimulator(spec(), model).run(mr_dag).makespan
        mo_time = ClusterSimulator(spec(), model).run(mo_dag).makespan
        assert mr_time > mo_time


class TestLocality:
    def test_prefers_local_node(self):
        job = map_only("j", 1, preferred={"m1.large-1"})
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(JobDag([job]))
        attempt = result.job("j").attempts[0]
        assert attempt.node == "m1.large-1"
        assert attempt.was_local

    def test_runs_remote_when_local_busy(self):
        # 3 tasks all prefer node 0 (2 slots): one must go remote.
        tasks = [make_map_task(f"t{i}", TaskWork(),
                               preferred_nodes={"m1.large-0"})
                 for i in range(3)]
        job = Job("j", JobKind.MAP_ONLY, tasks)
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(JobDag([job]))
        nodes = sorted(a.node for a in result.job("j").attempts)
        assert nodes == ["m1.large-0", "m1.large-0", "m1.large-1"]

    def test_locality_fraction(self):
        job = map_only("j", 2, preferred={"m1.large-0"})
        result = ClusterSimulator(spec(nodes=1, slots=2),
                                  FixedTimeModel(1.0)).run(JobDag([job]))
        assert result.job("j").locality_fraction == 1.0

    def test_locality_disabled_ignores_preference(self):
        class RecordingModel(TaskTimeModel):
            def __init__(self):
                self.local_flags = []

            def task_duration(self, task, instance, concurrency, local):
                self.local_flags.append(local)
                return 1.0

            def job_overhead(self, job):
                return 0.0

        job = map_only("j", 2, preferred={"m1.large-1"})
        model = RecordingModel()
        ClusterSimulator(spec(), model, locality_aware=False).run(JobDag([job]))
        # Without locality-aware placement, least-loaded-by-name wins, so at
        # least one task lands on node 0 (non-local).
        assert not all(model.local_flags)


class TestContention:
    def test_duration_uses_concurrency(self):
        class ContentionModel(TaskTimeModel):
            def task_duration(self, task, instance, concurrency, local):
                return float(concurrency)

            def job_overhead(self, job):
                return 0.0

        dag = JobDag([map_only("j", 2)])
        result = ClusterSimulator(spec(nodes=1, slots=2),
                                  ContentionModel()).run(dag)
        durations = sorted(a.duration for a in result.job("j").attempts)
        assert durations == [1.0, 2.0]


class TestInvariants:
    def test_every_task_runs_exactly_once(self):
        dag = JobDag([map_only("a", 7), map_only("b", 5, deps=["a"])])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
        ran = [a.task.task_id for t in result.job_timelines.values()
               for a in t.attempts]
        assert len(ran) == 12
        assert len(set(ran)) == 12

    def test_no_slot_oversubscription(self):
        dag = JobDag([map_only("a", 20)])
        result = ClusterSimulator(spec(nodes=2, slots=3),
                                  FixedTimeModel(1.0)).run(dag)
        attempts = result.job("a").attempts
        events = []
        for attempt in attempts:
            events.append((attempt.start, 1, attempt.node))
            events.append((attempt.end, -1, attempt.node))
        events.sort()
        load = {}
        for __, delta, node in events:
            load[node] = load.get(node, 0) + delta
            assert load[node] <= 3

    def test_nonpositive_duration_rejected(self):
        class BadModel(TaskTimeModel):
            def task_duration(self, task, instance, concurrency, local):
                return 0.0

            def job_overhead(self, job):
                return 0.0

        dag = JobDag([map_only("a", 1)])
        with pytest.raises(SchedulingError):
            ClusterSimulator(spec(), BadModel()).run(dag)

    def test_total_task_seconds(self):
        dag = JobDag([map_only("a", 6)])
        result = ClusterSimulator(spec(), FixedTimeModel(2.0)).run(dag)
        assert result.total_task_seconds() == pytest.approx(12.0)

    def test_unknown_job_lookup(self):
        dag = JobDag([map_only("a", 1)])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0)).run(dag)
        with pytest.raises(ValidationError):
            result.job("nope")


class TestFixedTimeModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FixedTimeModel(0.0)
        with pytest.raises(ValidationError):
            FixedTimeModel(1.0, -1.0)

    def test_shuffle_duration(self):
        model = FixedTimeModel()
        maps = [make_map_task("m", TaskWork(shuffle_bytes=100))]
        job = Job("j", JobKind.MAPREDUCE, maps,
                  [make_reduce_task("r", TaskWork())])
        assert model.shuffle_duration(job, 50.0) == pytest.approx(2.0)
        with pytest.raises(ValidationError):
            model.shuffle_duration(job, 0.0)
