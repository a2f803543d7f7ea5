"""Unit tests for the fair scheduling policy."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import FAIR, FIFO, ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import FixedTimeModel


def spec(nodes=2, slots=2):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def job(job_id, n_tasks):
    tasks = [make_map_task(f"{job_id}-t{i}", TaskWork())
             for i in range(n_tasks)]
    return Job(job_id, JobKind.MAP_ONLY, tasks)


def mixed_dag():
    """A big job submitted alongside a small one (no dependencies)."""
    return JobDag([job("big", 40), job("small", 2)])


class TestPolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValidationError):
            ClusterSimulator(spec(), FixedTimeModel(1.0),
                             scheduling="lottery")

    def test_fifo_starves_small_job(self):
        result = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                  scheduling=FIFO).run(mixed_dag())
        # FIFO: the small job waits behind all 40 big tasks.
        assert result.job("small").end \
            >= result.job("big").end - 1.0

    def test_fair_finishes_small_job_early(self):
        result = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                  scheduling=FAIR).run(mixed_dag())
        assert result.job("small").end < 0.3 * result.job("big").end

    def test_fair_improves_small_job_latency_vs_fifo(self):
        fifo = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                scheduling=FIFO).run(mixed_dag())
        fair = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                scheduling=FAIR).run(mixed_dag())
        assert fair.job("small").end < fifo.job("small").end

    def test_fair_does_not_change_total_makespan_much(self):
        fifo = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                scheduling=FIFO).run(mixed_dag())
        fair = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                scheduling=FAIR).run(mixed_dag())
        assert fair.makespan == pytest.approx(fifo.makespan, rel=0.1)

    def test_fair_single_job_equals_fifo(self):
        dag_f = JobDag([job("only", 10)])
        dag_g = JobDag([job("only", 10)])
        fifo = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                scheduling=FIFO).run(dag_f)
        fair = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                scheduling=FAIR).run(dag_g)
        assert fair.makespan == fifo.makespan

    def test_fair_respects_dependencies(self):
        dag = JobDag([job("a", 4),
                      Job("b", JobKind.MAP_ONLY,
                          [make_map_task("b-t0", TaskWork())],
                          depends_on={"a"})])
        result = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                  scheduling=FAIR).run(dag)
        assert result.job("b").start >= result.job("a").end

    def test_all_tasks_run_under_fair(self):
        result = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                  scheduling=FAIR).run(mixed_dag())
        ran = {a.task.task_id for t in result.job_timelines.values()
               for a in t.attempts}
        assert len(ran) == 42
