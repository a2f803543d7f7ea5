"""Unit tests: failure injection, retries, and speculative execution."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import SchedulingError, ValidationError
from repro.hadoop.faults import RandomFailures, TargetedFailures
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import FAILED, KILLED, SUCCESS, ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import FixedTimeModel


def spec(nodes=2, slots=2):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def map_only(job_id, n_tasks):
    tasks = [make_map_task(f"{job_id}-t{i}", TaskWork(bytes_read=1))
             for i in range(n_tasks)]
    return Job(job_id, JobKind.MAP_ONLY, tasks)


class TestFailureModels:
    def test_no_failures(self):
        model = RandomFailures(probability=0.0, seed=3)
        assert all(model.failure_fraction(f"t{i}", attempt) is None
                   for i in range(50) for attempt in range(4))

    def test_random_failures_deterministic(self):
        model = RandomFailures(probability=0.5, seed=3)
        outcomes = [model.failure_fraction(f"t{i}", 0) for i in range(50)]
        again = [model.failure_fraction(f"t{i}", 0) for i in range(50)]
        assert outcomes == again
        assert any(o is not None for o in outcomes)
        assert any(o is None for o in outcomes)

    def test_random_failures_rate_roughly_matches(self):
        model = RandomFailures(probability=0.3, seed=1)
        hits = sum(model.failure_fraction(f"t{i}", 0) is not None
                   for i in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_validation(self):
        with pytest.raises(ValidationError):
            RandomFailures(probability=1.0)
        with pytest.raises(ValidationError):
            RandomFailures(probability=0.1, fail_at_fraction=0.0)
        with pytest.raises(ValidationError):
            TargetedFailures(set(), max_attempts=0)

    def test_targeted(self):
        model = TargetedFailures({("a", 0), ("b", 1)})
        assert model.failure_fraction("a", 0) is not None
        assert model.failure_fraction("a", 1) is None
        assert model.failure_fraction("b", 1) is not None


class TestRetries:
    def test_failed_task_is_retried_and_job_completes(self):
        failures = TargetedFailures({("j-t0", 0)}, fail_at_fraction=0.5)
        sim = ClusterSimulator(spec(), FixedTimeModel(2.0), failures=failures)
        result = sim.run(JobDag([map_only("j", 4)]))
        timeline = result.job("j")
        assert len(timeline.attempts_with_status(FAILED)) == 1
        succeeded = {a.task.task_id
                     for a in timeline.attempts_with_status(SUCCESS)}
        assert succeeded == {f"j-t{i}" for i in range(4)}

    def test_failure_costs_time(self):
        clean = ClusterSimulator(spec(nodes=1, slots=1), FixedTimeModel(2.0))
        t_clean = clean.run(JobDag([map_only("j", 2)])).makespan
        failures = TargetedFailures({("j-t0", 0)})
        faulty = ClusterSimulator(spec(nodes=1, slots=1), FixedTimeModel(2.0),
                                  failures=failures)
        t_faulty = faulty.run(JobDag([map_only("j", 2)])).makespan
        assert t_faulty > t_clean

    def test_repeated_failure_aborts_job(self):
        failures = TargetedFailures({("j-t0", i) for i in range(4)},
                                    max_attempts=4)
        sim = ClusterSimulator(spec(), FixedTimeModel(1.0), failures=failures)
        with pytest.raises(SchedulingError, match="failed 4 times"):
            sim.run(JobDag([map_only("j", 2)]))

    def test_retry_succeeds_on_later_attempt(self):
        failures = TargetedFailures({("j-t0", 0), ("j-t0", 1)},
                                    max_attempts=4)
        sim = ClusterSimulator(spec(), FixedTimeModel(1.0), failures=failures)
        result = sim.run(JobDag([map_only("j", 1)]))
        timeline = result.job("j")
        assert len(timeline.attempts_with_status(FAILED)) == 2
        assert len(timeline.attempts_with_status(SUCCESS)) == 1

    def test_random_failures_still_complete(self):
        failures = RandomFailures(probability=0.2, seed=11, max_attempts=8)
        sim = ClusterSimulator(spec(nodes=4, slots=2), FixedTimeModel(1.0),
                               failures=failures)
        result = sim.run(JobDag([map_only("a", 30),
                                 Job("b", JobKind.MAP_ONLY,
                                     [make_map_task(f"b-t{i}", TaskWork())
                                      for i in range(10)],
                                     depends_on={"a"})]))
        assert result.count_attempts(SUCCESS) == 40

    def test_simulation_with_failures_deterministic(self):
        def run_once():
            failures = RandomFailures(probability=0.3, seed=5, max_attempts=8)
            sim = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                   failures=failures)
            return sim.run(JobDag([map_only("j", 20)])).makespan
        assert run_once() == run_once()


class TestSpeculation:
    def slow_node_sim(self, speculative, factor=10.0):
        return ClusterSimulator(
            spec(nodes=2, slots=1), FixedTimeModel(5.0),
            speculative=speculative,
            slow_nodes={"m1.large-0": factor},
        )

    def test_speculation_beats_straggler(self):
        # 2 tasks, 2 nodes, node 0 is 10x slow.  Without speculation the
        # task placed on node 0 takes 50s; with it, the idle fast node
        # duplicates the straggler after finishing its own task.
        dag = JobDag([map_only("j", 2)])
        without = self.slow_node_sim(speculative=False).run(dag)
        dag2 = JobDag([map_only("j", 2)])
        with_spec = self.slow_node_sim(speculative=True).run(dag2)
        assert with_spec.makespan < without.makespan

    def test_loser_attempt_is_killed(self):
        dag = JobDag([map_only("j", 2)])
        result = self.slow_node_sim(speculative=True).run(dag)
        assert result.count_attempts(KILLED) == 1
        assert result.count_attempts(SUCCESS) == 2

    def test_no_speculation_without_idle_slots(self):
        # Fully loaded cluster: no slot ever idles while work remains, so
        # nothing can be speculated until the final wave.
        sim = ClusterSimulator(spec(nodes=1, slots=1), FixedTimeModel(1.0),
                               speculative=True)
        result = sim.run(JobDag([map_only("j", 5)]))
        assert result.count_attempts(KILLED) == 0

    def test_each_task_speculated_at_most_once(self):
        sim = ClusterSimulator(
            spec(nodes=4, slots=2), FixedTimeModel(5.0),
            speculative=True, slow_nodes={"m1.large-0": 20.0})
        result = sim.run(JobDag([map_only("j", 3)]))
        killed = result.count_attempts(KILLED)
        succeeded = result.count_attempts(SUCCESS)
        assert succeeded == 3
        assert killed <= 3

    def test_makespan_unaffected_when_nodes_homogeneous(self):
        dag1 = JobDag([map_only("j", 8)])
        dag2 = JobDag([map_only("j", 8)])
        base = ClusterSimulator(spec(), FixedTimeModel(2.0)).run(dag1)
        spec_on = ClusterSimulator(spec(), FixedTimeModel(2.0),
                                   speculative=True).run(dag2)
        assert spec_on.makespan == pytest.approx(base.makespan)


class TestSlowNodes:
    def test_slow_factor_validated(self):
        with pytest.raises(ValidationError):
            ClusterSimulator(spec(), FixedTimeModel(1.0),
                             slow_nodes={"m1.large-0": 0.5})

    def test_slow_node_stretches_its_tasks(self):
        sim = ClusterSimulator(spec(nodes=2, slots=1), FixedTimeModel(2.0),
                               slow_nodes={"m1.large-1": 3.0})
        result = sim.run(JobDag([map_only("j", 2)]))
        durations = {a.node: a.duration for a in result.job("j").attempts}
        assert durations["m1.large-0"] == pytest.approx(2.0)
        assert durations["m1.large-1"] == pytest.approx(6.0)


class TestReducePhaseFailures:
    def test_failed_reduce_is_retried(self):
        from repro.hadoop.task import make_reduce_task
        maps = [make_map_task(f"m{i}", TaskWork(shuffle_bytes=100))
                for i in range(2)]
        reduces = [make_reduce_task(f"r{i}", TaskWork()) for i in range(2)]
        job = Job("mr", JobKind.MAPREDUCE, maps, reduces)
        failures = TargetedFailures({("r0", 0)})
        sim = ClusterSimulator(spec(), FixedTimeModel(1.0), failures=failures)
        result = sim.run(JobDag([job]))
        timeline = result.job("mr")
        assert len(timeline.attempts_with_status(FAILED)) == 1
        succeeded = {a.task.task_id
                     for a in timeline.attempts_with_status(SUCCESS)}
        assert succeeded == {"m0", "m1", "r0", "r1"}

    def test_map_failure_delays_shuffle(self):
        from repro.hadoop.task import make_reduce_task
        maps = [make_map_task(f"m{i}", TaskWork(shuffle_bytes=10**7))
                for i in range(2)]
        reduces = [make_reduce_task("r0", TaskWork())]

        def run_with(failures):
            job = Job("mr", JobKind.MAPREDUCE, list(maps), list(reduces))
            sim = ClusterSimulator(spec(), FixedTimeModel(2.0),
                                   failures=failures)
            return sim.run(JobDag([job])).makespan

        clean = run_with(None)
        faulty = run_with(TargetedFailures({("m0", 0)}))
        assert faulty > clean

    def test_exhausted_reduce_attempts_abort(self):
        from repro.hadoop.task import make_reduce_task
        maps = [make_map_task("m0", TaskWork(shuffle_bytes=10))]
        reduces = [make_reduce_task("r0", TaskWork())]
        job = Job("mr", JobKind.MAPREDUCE, maps, reduces)
        failures = TargetedFailures({("r0", i) for i in range(4)},
                                    max_attempts=4)
        sim = ClusterSimulator(spec(), FixedTimeModel(1.0), failures=failures)
        with pytest.raises(SchedulingError, match="r0"):
            sim.run(JobDag([job]))
