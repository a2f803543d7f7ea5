"""End-to-end execution of Cumulon programs on real data.

``CumulonExecutor`` is the high-level entry point used by the examples and
the correctness tests: give it a :class:`~repro.core.program.Program` and
numpy inputs, it loads them into a tile backing, compiles the program into a
job DAG with real tile-kernel closures, runs the DAG on the local executor,
and hands back the outputs as numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.compiler import CompiledProgram, CompilerParams, compile_program
from repro.core.physical import PhysicalContext
from repro.core.program import Program
from repro.errors import ExecutionError, ValidationError
from repro.hadoop.local import BACKEND_THREAD, LocalExecutor, LocalRunReport
from repro.matrix.tiled import DEFAULT_TILE_SIZE, DenseBacking, TileBacking, TiledMatrix
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import NULL_RECORDER, Trace, TraceRecorder


@dataclass
class ExecutionResult:
    """Outputs plus execution provenance."""

    outputs: dict[str, np.ndarray]
    report: LocalRunReport
    compiled: CompiledProgram
    tiled_outputs: dict[str, TiledMatrix] = field(default_factory=dict)
    #: Unified execution trace (None unless a recording recorder was given).
    trace: Trace | None = None

    def output(self, name: str) -> np.ndarray:
        try:
            return self.outputs[name]
        except KeyError:
            raise ExecutionError(f"program produced no output {name!r}") from None


class CumulonExecutor:
    """Compile-and-run front end over the local execution engine."""

    def __init__(self, tile_size: int = DEFAULT_TILE_SIZE,
                 max_workers: int = 4,
                 compiler_params: CompilerParams | None = None,
                 backing: TileBacking | None = None,
                 recorder: TraceRecorder = NULL_RECORDER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 backend: str = BACKEND_THREAD):
        self.tile_size = tile_size
        self.max_workers = max_workers
        self.backend = backend
        self.compiler_params = (compiler_params if compiler_params is not None
                                else CompilerParams())
        self.backing = backing if backing is not None else DenseBacking()
        self.recorder = recorder
        self.metrics = metrics
        self._local: LocalExecutor | None = None

    def _local_executor(self) -> LocalExecutor:
        # Reused across runs so the process backend's worker pool survives
        # between programs instead of respawning per run.
        if self._local is None:
            self._local = LocalExecutor(max_workers=self.max_workers,
                                        recorder=self.recorder,
                                        metrics=self.metrics,
                                        backend=self.backend)
        return self._local

    def close(self) -> None:
        """Release backend resources (the process backend's worker pool)."""
        if self._local is not None:
            self._local.close()
            self._local = None

    def __enter__(self) -> "CumulonExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, program: Program,
            inputs: dict[str, np.ndarray] | None = None) -> ExecutionResult:
        """Execute ``program`` with the given numpy inputs."""
        inputs = inputs or {}
        recorder = self.recorder
        with recorder.span(f"load-inputs:{program.name}", "executor"):
            self._load_inputs(program, inputs)
        context = PhysicalContext(self.tile_size, self.backing, attach_run=True)
        with recorder.span(f"compile:{program.name}", "executor"):
            compiled = compile_program(program, context, self.compiler_params,
                                       recorder=recorder,
                                       metrics=self.metrics)
        executor = self._local_executor()
        with recorder.span(f"execute:{program.name}", "executor"):
            report = executor.run(compiled.dag)
        with recorder.span(f"collect-outputs:{program.name}", "executor"):
            outputs, tiled = self._collect_outputs(program, compiled)
        trace = recorder.trace() if recorder.enabled else None
        return ExecutionResult(outputs, report, compiled, tiled, trace=trace)

    # -- helpers -----------------------------------------------------------------

    def _load_inputs(self, program: Program,
                     inputs: dict[str, np.ndarray]) -> None:
        missing = set(program.inputs) - set(inputs)
        if missing:
            raise ValidationError(
                f"program {program.name!r} is missing inputs: {sorted(missing)}"
            )
        extra = set(inputs) - set(program.inputs)
        if extra:
            raise ValidationError(
                f"unknown inputs for program {program.name!r}: {sorted(extra)}"
            )
        for name, array in inputs.items():
            declared = program.inputs[name].shape
            shape = np.shape(array)
            shape = (1,) * (2 - len(shape)) + shape  # as from_numpy promotes
            if shape != declared:
                raise ValidationError(
                    f"input {name!r} has shape {shape}, declared {declared}"
                )
            TiledMatrix.from_numpy(name, array, self.tile_size, self.backing)

    def _collect_outputs(self, program: Program, compiled: CompiledProgram
                         ) -> tuple[dict[str, np.ndarray], dict[str, TiledMatrix]]:
        names = program.outputs or [
            statement.target for statement in program.statements[-1:]
        ]
        outputs: dict[str, np.ndarray] = {}
        tiled: dict[str, TiledMatrix] = {}
        for name in names:
            info = compiled.output_info(name)
            matrix = TiledMatrix(info.name, info.grid, self.backing)
            tiled[name] = matrix
            outputs[name] = matrix.to_numpy()
        return outputs, tiled


def run_program(program: Program, inputs: dict[str, np.ndarray] | None = None,
                tile_size: int = DEFAULT_TILE_SIZE,
                max_workers: int = 4,
                compiler_params: CompilerParams | None = None,
                recorder: TraceRecorder = NULL_RECORDER,
                backend: str = BACKEND_THREAD) -> ExecutionResult:
    """One-shot convenience: execute ``program`` and return its results."""
    with CumulonExecutor(tile_size=tile_size, max_workers=max_workers,
                         compiler_params=compiler_params,
                         recorder=recorder, backend=backend) as executor:
        return executor.run(program, inputs)
