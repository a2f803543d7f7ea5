"""CumulonSession: the one-object front door.

Wires together the pieces a user otherwise assembles by hand — a provisioned
(simulated) cluster with its tile store, the executor, the optimizer, and
ingestion — behind one object::

    session = CumulonSession(tile_size=256, nodes=4, slots_per_node=2)
    session.ingest_csv("X", csv_text)
    session.ingest_array("G", g)
    result = session.run(program)          # executes on the session store
    handle = session.submit(program)       # async: a service JobHandle
    plan = search(session.optimize(big_program),
                  SearchSpec(deadline_seconds=3600)).plan
    print(session.trace, session.metrics.snapshot())

Everything the session stores lives in one simulated HDFS cluster, so
storage accounting, locality, and replication are consistent across calls.
Internally the session is a thin client of the multi-tenant
:class:`~repro.service.jobs.JobService`: every ``run``/``submit`` goes
through the same admission, scheduling, and accounting path a shared
deployment uses, with the session as the sole tenant.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.provisioning import provision
from repro.core.compiler import CompilerParams
from repro.core.executor import CumulonExecutor, ExecutionResult
from repro.core.optimizer import DeploymentOptimizer
from repro.core.program import Program
from repro.errors import ValidationError
from repro.hdfs.tilestore import TileStore
from repro.ingest.loader import ingest_array as _ingest_array
from repro.ingest.loader import ingest_csv as _ingest_csv
from repro.matrix.tiled import TiledMatrix
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import SOURCE_ACTUAL, InMemoryRecorder, Trace

#: The tenant name a session registers for itself on its private service.
SESSION_TENANT = "session"


class CumulonSession:
    """A working context: one storage cluster, one executor, one service.

    The cluster is described either by a full ``cluster``
    :class:`~repro.cloud.instances.ClusterSpec` or by the
    ``instance``/``nodes``/``slots_per_node`` pieces (not both).  An
    in-memory trace recorder and metrics registry are wired through every
    run — :attr:`trace` and :attr:`metrics` expose them.  ``backend``
    selects the local execution backend (``"thread"`` or ``"process"`` —
    see :mod:`repro.hadoop.local`); ``codec`` stores tiles compressed at
    rest (see :mod:`repro.hdfs.tilestore`).  Sessions are context managers;
    use ``with`` (or call :meth:`close`) when running the process backend
    so its worker pool is torn down deterministically.
    """

    def __init__(self, tile_size: int = 256, max_workers: int = 4,
                 cluster: ClusterSpec | None = None,
                 nodes: int | None = None, replication: int = 2,
                 instance: str | None = None,
                 slots_per_node: int | None = None,
                 compiler_params: CompilerParams | None = None,
                 backend: str = "thread",
                 codec: str | None = None):
        if cluster is not None:
            if nodes is not None or instance is not None \
                    or slots_per_node is not None:
                raise ValidationError(
                    "pass either cluster= or instance/nodes/slots_per_node, "
                    "not both")
            spec = cluster
        else:
            nodes = 3 if nodes is None else nodes
            if nodes <= 0:
                raise ValidationError("nodes must be positive")
            spec = ClusterSpec(
                get_instance_type(instance or "m1.large"), nodes,
                slots_per_node=1 if slots_per_node is None
                else slots_per_node)
        self.tile_size = tile_size
        self.spec = spec
        self.compiler_params = (compiler_params if compiler_params is not None
                                else CompilerParams())
        self._recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        self._registry = MetricsRegistry()
        self.store = TileStore(provision(spec, replication=replication),
                               codec=codec, metrics=self._registry)
        self._executor = CumulonExecutor(
            tile_size=tile_size, max_workers=max_workers,
            compiler_params=self.compiler_params, backing=self.store,
            recorder=self._recorder, metrics=self._registry,
            backend=backend,
        )
        # Lazily built: most sessions only ingest + optimize, and building
        # the service pulls in the whole admission/scheduling stack.
        self._service = None

    # -- telemetry ------------------------------------------------------------

    @property
    def trace(self) -> Trace:
        """Everything the session's executor has recorded so far."""
        return self._recorder.trace()

    @property
    def metrics(self) -> MetricsRegistry:
        """The session's metrics registry (``.snapshot()`` to dump it)."""
        return self._registry

    # -- the backing job service ----------------------------------------------

    @property
    def service(self):
        """The single-tenant job service every run goes through."""
        if self._service is None:
            from repro.service.jobs import JobService
            self._service = JobService(
                self.spec, tile_size=self.tile_size,
                tune_physical=False,  # sessions run the plan they were given
                executor=self._executor,
                metrics=self._registry, recorder=self._recorder,
            )
            self._service.add_tenant(SESSION_TENANT)
        return self._service

    # -- data in -------------------------------------------------------------

    def ingest_array(self, name: str, array: np.ndarray) -> TiledMatrix:
        """Tile an in-memory array into the session store."""
        return _ingest_array(name, np.asarray(array, dtype=np.float64),
                             self.tile_size, self.store)

    def ingest_csv(self, name: str, text: str,
                   delimiter: str = ",") -> TiledMatrix:
        """Parse delimited text and tile it into the session store."""
        return _ingest_csv(name, text, self.tile_size, self.store,
                           delimiter=delimiter)

    def get_matrix(self, name: str, rows: int, cols: int) -> np.ndarray:
        """Read a stored matrix back as numpy (by its declared shape)."""
        from repro.matrix.tiled import TileGrid
        grid = TileGrid(rows, cols, self.tile_size)
        return TiledMatrix(name, grid, self.store).to_numpy()

    # -- execute -------------------------------------------------------------

    def submit(self, program: Program,
               inputs: dict[str, np.ndarray] | None = None):
        """Enqueue a program on the session's service; returns its handle.

        The async spelling of :meth:`run`: the returned
        :class:`~repro.service.jobs.JobHandle` resolves (executing the
        program for real) when its ``result()`` is awaited or the service
        is drained.
        """
        return self.service.submit(program, SESSION_TENANT,
                                   inputs=self._resolve_inputs(program,
                                                               inputs))

    def run(self, program: Program,
            inputs: dict[str, np.ndarray] | None = None) -> ExecutionResult:
        """Execute a program.  Inputs already ingested under their declared
        names may be omitted; any provided arrays are (re)ingested first."""
        result = self.submit(program, inputs).result()
        return result.execution

    def _resolve_inputs(self, program: Program,
                        inputs: dict[str, np.ndarray] | None
                        ) -> dict[str, np.ndarray]:
        inputs = dict(inputs or {})
        for name, var in program.inputs.items():
            if name in inputs:
                continue
            if self._has_matrix(name, var.shape):
                grid_rows, grid_cols = var.shape
                inputs[name] = self.get_matrix(name, grid_rows, grid_cols)
            # else: the executor will raise a clear missing-input error.
        return inputs

    def _has_matrix(self, name: str, shape: tuple[int, int]) -> bool:
        from repro.matrix.tile import TileId
        from repro.matrix.tiled import TileGrid
        grid = TileGrid(shape[0], shape[1], self.tile_size)
        return all(self.store.exists(TileId(name, row, col))
                   for row, col in grid.positions())

    # -- plan ----------------------------------------------------------------

    def optimize(self, program: Program,
                 tile_size: int | None = None,
                 **optimizer_kwargs) -> DeploymentOptimizer:
        """An optimizer for (usually a scaled-up version of) a program.

        Extra keyword arguments pass straight through to
        :class:`~repro.core.optimizer.DeploymentOptimizer` (``cache``,
        ``billing``, ``search_trace``, ...); the session's
        metrics registry is wired in unless overridden.
        """
        optimizer_kwargs.setdefault("metrics", self._registry)
        return DeploymentOptimizer(
            program,
            tile_size=tile_size if tile_size is not None else self.tile_size,
            **optimizer_kwargs,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release executor backend resources and the store's fast path."""
        self._executor.close()
        self.store.close()

    def __enter__(self) -> "CumulonSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
