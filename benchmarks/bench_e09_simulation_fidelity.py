"""E9 — Scheduler-simulation fidelity vs the analytic wave model.

Cumulon justifies paying for event simulation (instead of a closed-form
estimate) by its accuracy on ragged and skewed workloads.  This experiment
compares the two estimators across task counts and skew levels.  Expected
shape: they agree exactly on uniform workloads (the ceil-of-waves formula is
then exact), while on skewed task times the analytic model *underestimates*
— it schedules mean-duration waves, but the real schedule ends with a tail
of slow stragglers.  The gap is worst for few, highly skewed tasks and
shrinks as task counts grow and the tail amortizes — exactly the regime
knowledge the optimizer needs the simulator for.
"""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.simcost import analytic_wave_estimate, simulate_program
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import TaskTimeModel

from benchmarks.common import Table, report


class SkewedModel(TaskTimeModel):
    """Task i takes base * (1 + skew * i / n) seconds."""

    def __init__(self, n_tasks: int, skew: float, base: float = 10.0):
        self.n_tasks = n_tasks
        self.skew = skew
        self.base = base

    def task_duration(self, task, instance, concurrency, local):
        index = int(task.task_id.split("-")[-1])
        return self.base * (1.0 + self.skew * index / self.n_tasks)

    def job_overhead(self, job):
        return 5.0


def build_case(n_tasks: int):
    tasks = [make_map_task(f"t-{index}", TaskWork())
             for index in range(n_tasks)]
    return JobDag([Job("j", JobKind.MAP_ONLY, tasks)])


def build_series():
    spec = ClusterSpec(get_instance_type("m1.large"), 8, 2)  # 16 slots
    rows = []
    for n_tasks in (16, 24, 48, 100, 333):
        for skew in (0.0, 1.0, 4.0):
            dag = build_case(n_tasks)
            model = SkewedModel(n_tasks, skew)
            simulated = simulate_program(dag, spec, model).seconds
            analytic = analytic_wave_estimate(dag, spec, model)
            rows.append([n_tasks, skew, simulated, analytic,
                         analytic / simulated])
    return rows


def test_e09_simulation_fidelity(benchmark):
    rows = benchmark(build_series)
    report(Table(
        experiment="E09",
        title="Event simulation vs analytic wave model (16 slots)",
        headers=["tasks", "skew", "simulated_s", "analytic_s", "ratio"],
        rows=rows,
    ))
    by_key = {(n, s): ratio for n, s, __, ___, ratio in rows}
    for n_tasks, skew, simulated, analytic, ratio in rows:
        if skew == 0.0:
            # Uniform tasks: the ceil-of-waves formula is exact.
            assert ratio == 1.0
        # Even at worst, the analytic model stays within 2x.
        assert 0.5 < ratio <= 1.0 + 1e-9
    # Skew makes the analytic model underestimate (straggler tail).
    assert by_key[(16, 4.0)] < by_key[(16, 0.0)]
    # The gap shrinks as the tail amortizes over more tasks.
    assert by_key[(333, 4.0)] > by_key[(16, 4.0)]
