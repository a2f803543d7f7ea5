"""Unit tests for the EXPLAIN utilities."""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import CompilerParams, compile_program
from repro.core.explain import (
    dag_to_dot,
    explain_job,
    explain_plan,
    explain_program,
)
from repro.core.physical import MatMulParams, PhysicalContext
from repro.core.plans import DeploymentPlan
from repro.core.program import Program
from repro.workloads.gnmf import build_gnmf_program


def compiled_sample(params=None):
    program = Program("sample")
    a = program.declare_input("A", 64, 64)
    b = program.declare_input("B", 64, 64)
    program.assign("C", (a @ b) + a)
    program.mark_output("C")
    return compile_program(program, PhysicalContext(16), params)


class TestExplainProgram:
    def test_mentions_every_job(self):
        compiled = compiled_sample()
        text = explain_program(compiled)
        for job in compiled.dag:
            assert job.job_id in text

    def test_mentions_outputs(self):
        text = explain_program(compiled_sample())
        assert "output C" in text
        assert "64x64" in text

    def test_shows_dependencies(self):
        text = explain_program(compiled_sample())
        assert "<-" in text

    def test_job_line_has_resources(self):
        compiled = compiled_sample()
        job = compiled.dag.topological_order()[0]
        line = explain_job(job)
        assert "maps=" in line
        assert "read=" in line
        assert "compute=" in line

    def test_mapreduce_jobs_show_shuffle(self):
        from repro.baselines.systemml_program import compile_systemml_program
        program = build_gnmf_program(64, 64, 4, iterations=1)
        compiled = compile_systemml_program(program, PhysicalContext(16))
        text = explain_program(compiled)
        assert "shuffle=" in text
        assert "[MR ]" in text

    def test_human_units(self):
        compiled = compiled_sample(
            CompilerParams(matmul=MatMulParams(1, 1, 2)))
        text = explain_program(compiled)
        assert "KB" in text or "MB" in text or "B" in text


class TestExplainPlan:
    def test_fields_present(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 4, 2)
        plan = DeploymentPlan(spec, CompilerParams(), 1800.0, 0.96,
                              tile_size=2048)
        text = explain_plan(plan)
        assert "m1.large" in text
        assert "$0.96" in text
        assert "2048" in text
        assert "0.50h" in text


class TestDot:
    def test_valid_digraph(self):
        compiled = compiled_sample()
        dot = dag_to_dot(compiled.dag)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for job in compiled.dag:
            assert f'"{job.job_id}"' in dot

    def test_edges_match_dependencies(self):
        compiled = compiled_sample()
        dot = dag_to_dot(compiled.dag)
        for job in compiled.dag:
            for dep in job.depends_on:
                assert f'"{dep}" -> "{job.job_id}";' in dot

    def test_colors_distinguish_job_kinds(self):
        from repro.baselines.systemml_program import compile_systemml_program
        program = build_gnmf_program(64, 64, 4, iterations=1)
        mr = compile_systemml_program(program, PhysicalContext(16))
        assert "lightsalmon" in dag_to_dot(mr.dag)
        assert "lightblue" in dag_to_dot(compiled_sample().dag)
