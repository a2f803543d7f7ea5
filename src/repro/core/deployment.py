"""End-to-end deployment estimation: startup + data load + compute.

The optimizer's plans price the *compute* phase; a real deployment also
pays cluster startup and the initial load of the input matrices from text
into tiled HDFS.  :func:`estimate_deployment` composes all three phases on
one cluster and itemizes the bill — the number an analyst actually
compares against running locally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.pricing import DEFAULT_BILLING, BillingModel
from repro.cloud.provisioning import DEFAULT_STARTUP_SECONDS
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.core.plans import DeploymentPlan
from repro.core.program import Program
from repro.core.simcost import simulate_program
from repro.errors import ValidationError
from repro.hadoop.job import JobDag
from repro.ingest.loader import plan_ingest_job


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized end-to-end estimate for one deployment."""

    startup_seconds: float
    load_seconds: float
    compute_seconds: float
    dollars: float

    @property
    def total_seconds(self) -> float:
        return self.startup_seconds + self.load_seconds + self.compute_seconds

    def describe(self) -> str:
        def line(label: str, seconds: float) -> str:
            share = seconds / self.total_seconds if self.total_seconds else 0
            return f"  {label:<10} {seconds:8.0f}s  ({share:5.1%})"

        return "\n".join([
            f"total {self.total_seconds:.0f}s, ${self.dollars:.2f}",
            line("startup", self.startup_seconds),
            line("load", self.load_seconds),
            line("compute", self.compute_seconds),
        ])


def estimate_deployment(program: Program, plan: DeploymentPlan,
                        tile_size: int | None = None,
                        billing: BillingModel | None = None,
                        model: CumulonCostModel | None = None,
                        startup_seconds: float = DEFAULT_STARTUP_SECONDS,
                        include_load: bool = True) -> CostBreakdown:
    """Itemize startup + input load + compute for ``program`` under ``plan``.

    ``tile_size`` defaults to the plan's tile size (which must then be set).
    The load phase ingests every declared input matrix from text.
    """
    tile_size = tile_size if tile_size is not None else plan.tile_size
    if tile_size <= 0:
        raise ValidationError(
            "tile_size must be given (or recorded in the plan)"
        )
    billing = billing if billing is not None else DEFAULT_BILLING
    model = model if model is not None else CumulonCostModel()
    context = PhysicalContext(tile_size)

    load_seconds = 0.0
    if include_load and program.inputs:
        load_dag = JobDag()
        for name, var in program.inputs.items():
            job, __ = plan_ingest_job(f"load-{name}", name,
                                      var.shape[0], var.shape[1], context,
                                      density=var.density)
            load_dag.add(job)
        load_seconds = simulate_program(load_dag, plan.spec, model).seconds

    params = plan.compiler_params
    compiled = compile_program(program, context, params)
    compute_seconds = simulate_program(compiled.dag, plan.spec,
                                       model).seconds

    total = startup_seconds + load_seconds + compute_seconds
    return CostBreakdown(
        startup_seconds=startup_seconds,
        load_seconds=load_seconds,
        compute_seconds=compute_seconds,
        dollars=billing.cost(plan.spec, total),
    )


def amortized_breakdown(program: Program, plan: DeploymentPlan,
                        runs: int,
                        tile_size: int | None = None,
                        billing: BillingModel | None = None) -> CostBreakdown:
    """Amortize startup and load over ``runs`` executions of the program.

    Iterative analysis reuses the loaded data: startup and ingestion are
    paid once, compute ``runs`` times — which is why keeping a warm cluster
    beats re-provisioning per run.
    """
    if runs <= 0:
        raise ValidationError("runs must be positive")
    billing = billing if billing is not None else DEFAULT_BILLING
    single = estimate_deployment(program, plan, tile_size, billing)
    total = (single.startup_seconds + single.load_seconds
             + runs * single.compute_seconds)
    return CostBreakdown(
        startup_seconds=single.startup_seconds / runs,
        load_seconds=single.load_seconds / runs,
        compute_seconds=single.compute_seconds,
        dollars=billing.cost(plan.spec, total) / runs,
    )

