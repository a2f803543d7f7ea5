"""Cumulon core: language, compiler, cost model, simulator glue, optimizer."""

from repro.core.benchmarking import (
    REFERENCE_COEFFICIENTS,
    HardwareCoefficients,
    fit_local_coefficients,
)
from repro.core.compiler import (
    CompiledProgram,
    Compiler,
    CompilerParams,
    compile_program,
    normalize_transposes,
)
from repro.core.advisor import (
    CheckpointAdvice,
    Warning_,
    advise_checkpoint_interval,
    revocation_probability,
    validate_plan,
)
from repro.core.chaos import (
    RECOVERY_RESTART,
    RECOVERY_RESUME,
    SCENARIOS,
    ChaosReport,
    build_hdfs,
    build_scenario,
    run_chaos,
)
from repro.core.checkpoint import Checkpointer, IterativeRunner
from repro.core.costmodel import CostModelConfig, CumulonCostModel
from repro.core.deployment import (
    CostBreakdown,
    amortized_breakdown,
    estimate_deployment,
)
from repro.core.explain import dag_to_dot, explain_plan, explain_program
from repro.core.executor import CumulonExecutor, ExecutionResult, run_program
from repro.core.expr import (
    Binary,
    Constant,
    ElementFunc,
    Expr,
    MatMul,
    ScalarOp,
    Transpose,
    Var,
    broadcast_shapes,
    evaluate_with_numpy,
    ones,
)
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    ReliablePlan,
    SearchSpace,
)
from repro.core.physical import (
    ElementwiseParams,
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
)
from repro.core.plans import (
    DeploymentPlan,
    cheapest_within_deadline,
    fastest_within_budget,
    skyline,
)
from repro.core.program import Program, Statement
from repro.core.rewrite import naive_chain_flops, reorder_matmul_chains
from repro.core.search import SearchResult, SearchSpec, search
from repro.core.surrogate import reliability_frontier
from repro.core.session import CumulonSession
from repro.core.workflow import (
    WorkflowOptimizer,
    WorkflowPlan,
    WorkflowStage,
)
from repro.core.simcost import (
    ProgramEstimate,
    analytic_wave_estimate,
    place_virtual_inputs,
    simulate_program,
)

__all__ = [
    "REFERENCE_COEFFICIENTS",
    "HardwareCoefficients",
    "fit_local_coefficients",
    "CompiledProgram",
    "Compiler",
    "CompilerParams",
    "compile_program",
    "normalize_transposes",
    "CheckpointAdvice",
    "Warning_",
    "advise_checkpoint_interval",
    "revocation_probability",
    "validate_plan",
    "CumulonSession",
    "WorkflowOptimizer",
    "WorkflowPlan",
    "WorkflowStage",
    "RECOVERY_RESTART",
    "RECOVERY_RESUME",
    "SCENARIOS",
    "ChaosReport",
    "build_hdfs",
    "build_scenario",
    "run_chaos",
    "Checkpointer",
    "IterativeRunner",
    "CostBreakdown",
    "amortized_breakdown",
    "estimate_deployment",
    "CostModelConfig",
    "CumulonCostModel",
    "CumulonExecutor",
    "ExecutionResult",
    "run_program",
    "Binary",
    "Constant",
    "ElementFunc",
    "Expr",
    "MatMul",
    "ScalarOp",
    "Transpose",
    "Var",
    "broadcast_shapes",
    "dag_to_dot",
    "explain_plan",
    "explain_program",
    "evaluate_with_numpy",
    "ones",
    "naive_chain_flops",
    "reorder_matmul_chains",
    "DeploymentOptimizer",
    "ReliabilityModel",
    "ReliablePlan",
    "SearchSpace",
    "SearchResult",
    "SearchSpec",
    "search",
    "reliability_frontier",
    "ElementwiseParams",
    "MatMulParams",
    "MatrixInfo",
    "Operand",
    "PhysicalContext",
    "DeploymentPlan",
    "cheapest_within_deadline",
    "fastest_within_budget",
    "skyline",
    "Program",
    "Statement",
    "ProgramEstimate",
    "analytic_wave_estimate",
    "place_virtual_inputs",
    "simulate_program",
]
