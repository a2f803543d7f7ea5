"""End-to-end execution correctness across physical-parameter choices.

Whatever split factors, fusion settings, tile sizes, or worker counts the
optimizer picks, the computed numbers must be identical — these tests pin
that invariant.
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerParams
from repro.core.executor import CumulonExecutor, run_program
from repro.core.expr import evaluate_with_numpy
from repro.core.physical import ElementwiseParams, MatMulParams
from repro.core.program import Program
from repro.errors import ValidationError

RNG = np.random.default_rng(21)

# Every correctness invariant in this module must hold on both local
# backends; the process backend rides the tier-2 gate (tests/conftest.py).
BACKENDS = ["thread",
            pytest.param("process", marks=pytest.mark.process_backend)]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def make_env():
    return {
        "A": RNG.random((36, 20)),
        "B": RNG.random((20, 44)),
        "C": RNG.random((36, 44)),
    }


def make_program():
    program = Program("mixed")
    a = program.declare_input("A", 36, 20)
    b = program.declare_input("B", 20, 44)
    c = program.declare_input("C", 36, 44)
    d = program.assign("D", (a @ b) * 0.5 + c)
    program.assign("E", (d.T @ d).apply("sqrt"))
    program.mark_output("D", "E")
    return program


def expected_outputs(env):
    d = (env["A"] @ env["B"]) * 0.5 + env["C"]
    e = np.sqrt(d.T @ d)
    return d, e


@pytest.mark.parametrize("matmul", [
    MatMulParams(1, 1, 1),
    MatMulParams(2, 2, 1),
    MatMulParams(1, 1, 3),
    MatMulParams(3, 2, 2),
    MatMulParams(5, 5, 5),
])
def test_matmul_params_do_not_change_results(matmul, backend):
    env = make_env()
    program = make_program()
    params = CompilerParams(matmul=matmul)
    result = run_program(program, env, tile_size=8, compiler_params=params,
                         backend=backend)
    d, e = expected_outputs(env)
    np.testing.assert_allclose(result.output("D"), d, rtol=1e-9)
    np.testing.assert_allclose(result.output("E"), e, rtol=1e-9)


@pytest.mark.parametrize("tile_size", [4, 7, 16, 64])
def test_tile_size_does_not_change_results(tile_size, backend):
    env = make_env()
    result = run_program(make_program(), env, tile_size=tile_size,
                         backend=backend)
    d, e = expected_outputs(env)
    np.testing.assert_allclose(result.output("D"), d, rtol=1e-9)
    np.testing.assert_allclose(result.output("E"), e, rtol=1e-9)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_worker_count_does_not_change_results(workers, backend):
    env = make_env()
    result = run_program(make_program(), env, tile_size=8,
                         max_workers=workers, backend=backend)
    d, __ = expected_outputs(env)
    np.testing.assert_allclose(result.output("D"), d, rtol=1e-9)


def test_fusion_ablation_same_results(backend):
    env = make_env()
    fused = run_program(make_program(), env, tile_size=8,
                        compiler_params=CompilerParams(fusion_enabled=True),
                        backend=backend)
    unfused = run_program(make_program(), env, tile_size=8,
                          compiler_params=CompilerParams(fusion_enabled=False),
                          backend=backend)
    np.testing.assert_allclose(fused.output("D"), unfused.output("D"))
    np.testing.assert_allclose(fused.output("E"), unfused.output("E"))


def test_elementwise_chunking_does_not_change_results():
    env = make_env()
    for tiles_per_task in (1, 3, 100):
        params = CompilerParams(
            elementwise=ElementwiseParams(tiles_per_task=tiles_per_task))
        result = run_program(make_program(), env, tile_size=8,
                             compiler_params=params)
        d, __ = expected_outputs(env)
        np.testing.assert_allclose(result.output("D"), d, rtol=1e-9)


def test_executor_validates_inputs():
    program = make_program()
    env = make_env()
    with pytest.raises(ValidationError, match="missing inputs"):
        run_program(program, {"A": env["A"]}, tile_size=8)
    with pytest.raises(ValidationError, match="unknown inputs"):
        run_program(program, dict(env, Z=env["A"]), tile_size=8)
    with pytest.raises(ValidationError, match="shape"):
        run_program(program, dict(env, A=np.ones((2, 2))), tile_size=8)


def test_outputs_default_to_last_statement():
    program = Program("implicit")
    a = program.declare_input("A", 8, 8)
    program.assign("X", a @ a)
    result = run_program(program, {"A": np.eye(8)}, tile_size=4)
    np.testing.assert_allclose(result.output("X"), np.eye(8))


def test_executor_reuse_across_programs(backend):
    with CumulonExecutor(tile_size=8, backend=backend) as executor:
        env = make_env()
        first = executor.run(make_program(), env)
        second = executor.run(make_program(), env)
    np.testing.assert_allclose(first.output("D"), second.output("D"))


def test_transposed_everything(backend):
    program = Program("tt")
    a = program.declare_input("A", 24, 16)
    b = program.declare_input("B", 24, 16)
    program.assign("OUT", ((a.T @ b) + (b.T @ a)).T * 2.0)
    program.mark_output("OUT")
    env = {"A": RNG.random((24, 16)), "B": RNG.random((24, 16))}
    result = run_program(program, env, tile_size=8, backend=backend)
    expected = ((env["A"].T @ env["B"]) + (env["B"].T @ env["A"])).T * 2.0
    np.testing.assert_allclose(result.output("OUT"), expected, rtol=1e-9)


def test_compiled_dag_matches_numpy_interpreter():
    program = make_program()
    env = make_env()
    result = run_program(program, env, tile_size=8)
    # Re-derive D via the logical-layer interpreter for a third opinion.
    d_expr = program.statements[0].expr
    np.testing.assert_allclose(result.output("D"),
                               evaluate_with_numpy(d_expr, env), rtol=1e-9)
