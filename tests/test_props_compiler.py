"""Property-based tests: compiler determinism and structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerParams, compile_program
from repro.core.physical import MatMulParams, PhysicalContext
from repro.core.program import Program

N = 8


@st.composite
def small_program(draw) -> Program:
    """A random 2-4 statement program over square NxN inputs."""
    program = Program("prop")
    a = program.declare_input("A", N, N)
    b = program.declare_input("B", N, N)
    bindings = [a, b]
    n_statements = draw(st.integers(2, 4))
    for index in range(n_statements):
        left = draw(st.sampled_from(bindings))
        right = draw(st.sampled_from(bindings))
        kind = draw(st.sampled_from(["matmul", "add", "scaled", "trans"]))
        if kind == "matmul":
            expr = left @ right
        elif kind == "add":
            expr = left + right
        elif kind == "scaled":
            expr = left * draw(st.sampled_from([0.5, 1.0, 2.0]))
        else:
            expr = left.T @ right
        bindings.append(program.assign(f"v{index}", expr))
    program.mark_output(f"v{n_statements - 1}")
    return program


def dag_signature(compiled):
    """Structure of a compiled DAG, independent of object identity."""
    return [
        (job.job_id, job.kind.value, len(job.map_tasks),
         len(job.reduce_tasks), tuple(sorted(job.depends_on)),
         job.total_bytes_read(), job.total_flops())
        for job in compiled.dag.topological_order()
    ]


@given(program_pair=st.tuples(small_program(), st.integers(1, 4)))
@settings(max_examples=50, deadline=None)
def test_compilation_is_deterministic(program_pair):
    program, tile = program_pair
    first = compile_program(program, PhysicalContext(tile))
    second = compile_program(program, PhysicalContext(tile))
    assert dag_signature(first) == dag_signature(second)


@given(program=small_program(), tile=st.integers(2, 8),
       ks=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dependencies_reference_existing_jobs(program, tile, ks):
    params = CompilerParams(matmul=MatMulParams(1, 1, ks))
    compiled = compile_program(program, PhysicalContext(tile), params)
    job_ids = {job.job_id for job in compiled.dag}
    for job in compiled.dag:
        assert job.depends_on <= job_ids
        assert job.job_id not in job.depends_on


@given(program=small_program(), tile=st.integers(2, 8),
       seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_all_optimizations_preserve_results(program, tile, seed):
    """Fusion + CSE + reorder + simplify on vs all off: same numbers."""
    from repro.core.executor import run_program
    rng = np.random.default_rng(seed)
    env = {"A": rng.standard_normal((N, N)),
           "B": rng.standard_normal((N, N))}
    everything_on = run_program(program, env, tile_size=tile, max_workers=1)
    everything_off = run_program(
        program, env, tile_size=tile, max_workers=1,
        compiler_params=CompilerParams(
            fusion_enabled=False, cse_enabled=False,
            reorder_chains=False, simplify_enabled=False))
    output = program.outputs[0]
    np.testing.assert_allclose(everything_on.output(output),
                               everything_off.output(output), atol=1e-9)
