"""E20 — Extension ablation: FIFO vs fair scheduling.

Multi-tenant clusters mix exploratory small queries with long batch jobs.
FIFO lets the batch job monopolize every slot, so the small job's latency
equals the batch job's; fair sharing splits slots per job, fixing the small
job's latency at a tiny cost to the batch job.  Expected shape: fair cuts
small-job latency by an order of magnitude with <10% batch slowdown.
"""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.hadoop.job import Job, JobDag
from repro.hadoop.simulator import FAIR, FIFO, ClusterSimulator
from repro.workloads.chains import build_multiply_program
from repro.workloads.gnmf import build_gnmf_program

from benchmarks.common import Table, report

TILE = 2048


def mixed_dag() -> JobDag:
    """A long multiply workload sharing the cluster with a short GNMF."""
    big = compile_program(build_multiply_program(32768, 32768, 32768),
                          PhysicalContext(TILE)).dag
    small = compile_program(build_gnmf_program(10240, 5120, 64, 1),
                            PhysicalContext(TILE)).dag
    merged = JobDag()
    for job in big.topological_order():
        merged.add(Job(f"big-{job.job_id}", job.kind, job.map_tasks,
                       job.reduce_tasks,
                       depends_on={f"big-{d}" for d in job.depends_on},
                       label=job.label))
    for job in small.topological_order():
        merged.add(Job(f"small-{job.job_id}", job.kind, job.map_tasks,
                       job.reduce_tasks,
                       depends_on={f"small-{d}" for d in job.depends_on},
                       label=job.label))
    return merged


def run_policy(policy: str):
    spec = ClusterSpec(get_instance_type("m1.large"), 8, 2)
    result = ClusterSimulator(spec, CumulonCostModel(),
                              scheduling=policy).run(mixed_dag())
    small_end = max(t.end for job_id, t in result.job_timelines.items()
                    if job_id.startswith("small-"))
    big_end = max(t.end for job_id, t in result.job_timelines.items()
                  if job_id.startswith("big-"))
    return small_end, big_end, result.makespan


def build_series():
    rows = []
    for policy in (FIFO, FAIR):
        small_end, big_end, makespan = run_policy(policy)
        rows.append([policy, small_end, big_end, makespan])
    return rows


def test_e20_scheduler_policy(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E20",
        title="FIFO vs fair sharing: batch multiply + interactive GNMF",
        headers=["policy", "small_job_done_s", "big_job_done_s",
                 "makespan_s"],
        rows=rows,
    ))
    by_policy = {row[0]: row for row in rows}
    fifo_small = by_policy[FIFO][1]
    fair_small = by_policy[FAIR][1]
    # Fair sharing rescues the small job's latency...
    assert fair_small < 0.3 * fifo_small
    # ...at modest cost to the batch job and overall makespan.
    assert by_policy[FAIR][2] < 1.15 * by_policy[FIFO][2]
    assert by_policy[FAIR][3] < 1.15 * by_policy[FIFO][3]
