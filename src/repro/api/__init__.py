"""repro.api: the stable, supported public surface of the library.

Everything a user of the reproduction should need is importable from this
one module, and only the names in ``__all__`` are covenants — the
submodules they come from are free to reorganize between releases, but
``from repro.api import X`` keeps working for every ``X`` here.  The
surface is locked by a snapshot test
(``tests/test_api_surface.py`` against ``tests/fixtures/api_surface.txt``):
adding a name means updating the snapshot deliberately; removing one means
deliberately breaking it.

The surface in one glance::

    from repro.api import (
        Program, run_program, CumulonSession,         # author & execute
        DeploymentOptimizer, SearchSpace,             # deploy under $/time
        JobService, JobHandle, run_script,            # multi-tenant service
        MetricsRegistry, InMemoryRecorder, CostMeter, # observability
    )
"""

from repro.cloud.instances import (
    ClusterSpec,
    InstanceType,
    get_instance_type,
)
from repro.cloud.pricing import BillingModel, HourlyBilling
from repro.core.compiler import CompilerParams
from repro.core.evalcache import EvalCache
from repro.core.executor import (
    CumulonExecutor,
    ExecutionResult,
    run_program,
)
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    ReliablePlan,
    SearchSpace,
)
from repro.core.plans import DeploymentPlan
from repro.core.program import Program
from repro.core.search import SearchResult, SearchSpec, search
from repro.core.surrogate import reliability_frontier
from repro.core.session import CumulonSession
from repro.errors import (
    AdmissionRejectedError,
    JobCancelledError,
    JournalCorruptionError,
    JournalError,
    RecoveryError,
    ReproError,
    ServiceError,
    UnknownJobError,
    ValidationError,
)
from repro.observability.cost import CostMeter
from repro.observability.metrics import MetricsRegistry
from repro.observability.search import SearchStats, SearchTrace
from repro.observability.trace import (
    InMemoryRecorder,
    Trace,
    TraceEvent,
)
from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.durability import (
    DurabilityStore,
    Journal,
    JournalAudit,
    RecoveryStats,
    audit_journal,
    recover,
)
from repro.service.jobs import (
    JobHandle,
    JobResult,
    JobService,
    ServiceReport,
    Tenant,
    TenantReport,
)
from repro.service.protocol import ProtocolError
from repro.service.scheduler import POLICY_FAIR, POLICY_FIFO, jain_fairness
from repro.service.script import (
    load_script,
    run_script,
    save_script,
)
from repro.service.server import ReproServer
from repro.workloads.catalog import build_workload

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRejectedError",
    "BillingModel",
    "ClusterSpec",
    "CompilerParams",
    "CostMeter",
    "CumulonExecutor",
    "CumulonSession",
    "DeploymentOptimizer",
    "DeploymentPlan",
    "DurabilityStore",
    "EvalCache",
    "ExecutionResult",
    "HourlyBilling",
    "InMemoryRecorder",
    "InstanceType",
    "JobCancelledError",
    "JobHandle",
    "JobResult",
    "JobService",
    "Journal",
    "JournalAudit",
    "JournalCorruptionError",
    "JournalError",
    "MetricsRegistry",
    "POLICY_FAIR",
    "POLICY_FIFO",
    "Program",
    "ProtocolError",
    "RecoveryError",
    "RecoveryStats",
    "ReliabilityModel",
    "ReliablePlan",
    "ReproError",
    "ReproServer",
    "SearchResult",
    "SearchSpace",
    "SearchSpec",
    "SearchStats",
    "SearchTrace",
    "ServiceError",
    "ServiceReport",
    "Tenant",
    "TenantReport",
    "Trace",
    "TraceEvent",
    "UnknownJobError",
    "ValidationError",
    "audit_journal",
    "build_workload",
    "get_instance_type",
    "jain_fairness",
    "load_script",
    "recover",
    "reliability_frontier",
    "run_program",
    "run_script",
    "save_script",
    "search",
]
