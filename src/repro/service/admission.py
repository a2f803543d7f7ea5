"""Admission control: price a job before it touches the shared cluster.

Every submission is priced with the real optimizer pipeline — compile,
then simulate on the service's cluster spec — so admission decisions rest
on the same estimates deployment decisions do.  One shared
:class:`~repro.core.evalcache.EvalCache` spans all tenants: when ten
tenants submit the same parameterized workload, nine admissions are pure
cache hits.  The memo lives in memory only; a recovered service takes its
decisions from the journal.

The tenancy price is the *slot-second rate*: the cluster's hourly rental
divided across its slots.  A job's estimated dollars are the slot-seconds
it will consume at that rate, which is what per-tenant budgets meter
against (cluster-level billing still follows the coarse hourly
:class:`~repro.cloud.pricing.BillingModel`; the service report reconciles
the two — see :meth:`repro.service.jobs.ServiceReport`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.benchmarking import HardwareCoefficients
from repro.core.compiler import CompilerParams
from repro.core.evalcache import EvalCache
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import ElementwiseParams, MatMulParams
from repro.core.plans import DeploymentPlan
from repro.core.program import Program
from repro.errors import ValidationError

#: Rejection reasons.
REJECT_BUDGET = "budget"
REJECT_DEADLINE = "deadline"


def plan_to_doc(plan: DeploymentPlan) -> dict:
    """JSON-able form of a priced deployment plan (exact float round-trip).

    The inverse is :func:`plan_from_doc`; together they let the durability
    journal persist admission decisions so a recovered service replays
    them instead of re-pricing (see :mod:`repro.service.durability`).
    """
    params = plan.compiler_params
    return {
        "instance": plan.spec.instance_type.name,
        "nodes": plan.spec.num_nodes,
        "slots_per_node": plan.spec.slots_per_node,
        "tile_size": plan.tile_size,
        "estimated_seconds": plan.estimated_seconds,
        "estimated_cost": plan.estimated_cost,
        "compiler_params": {
            "matmul": {
                "tiles_per_task_i": params.matmul.tiles_per_task_i,
                "tiles_per_task_j": params.matmul.tiles_per_task_j,
                "k_splits": params.matmul.k_splits,
            },
            "elementwise": {
                "tiles_per_task": params.elementwise.tiles_per_task,
            },
            "fusion_enabled": params.fusion_enabled,
            "cse_enabled": params.cse_enabled,
            "reorder_chains": params.reorder_chains,
            "simplify_enabled": params.simplify_enabled,
        },
    }


def plan_from_doc(doc: dict) -> DeploymentPlan:
    """Rebuild a :class:`~repro.core.plans.DeploymentPlan` from its doc."""
    try:
        cp = doc["compiler_params"]
        params = CompilerParams(
            matmul=MatMulParams(
                tiles_per_task_i=int(cp["matmul"]["tiles_per_task_i"]),
                tiles_per_task_j=int(cp["matmul"]["tiles_per_task_j"]),
                k_splits=int(cp["matmul"]["k_splits"]),
            ),
            elementwise=ElementwiseParams(
                tiles_per_task=int(cp["elementwise"]["tiles_per_task"]),
            ),
            fusion_enabled=bool(cp["fusion_enabled"]),
            cse_enabled=bool(cp["cse_enabled"]),
            reorder_chains=bool(cp["reorder_chains"]),
            simplify_enabled=bool(cp["simplify_enabled"]),
        )
        return DeploymentPlan(
            spec=ClusterSpec(get_instance_type(doc["instance"]),
                             int(doc["nodes"]), int(doc["slots_per_node"])),
            compiler_params=params,
            estimated_seconds=float(doc["estimated_seconds"]),
            estimated_cost=float(doc["estimated_cost"]),
            tile_size=int(doc["tile_size"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ValidationError(
            f"malformed deployment-plan document: {error}") from error


def plan_digest(plan: DeploymentPlan | None) -> str:
    """Short content digest of a priced plan (journal/audit identity)."""
    if plan is None:
        return "none"
    payload = json.dumps(plan_to_doc(plan), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def decision_to_doc(decision: "AdmissionDecision") -> dict:
    """JSON-able form of one admission decision (journal payload)."""
    return {
        "admitted": decision.admitted,
        "plan": plan_to_doc(decision.plan),
        "plan_digest": plan_digest(decision.plan),
        "work_slot_seconds": decision.work_slot_seconds,
        "max_slots": decision.max_slots,
        "estimated_dollars": decision.estimated_dollars,
        "reject_reason": decision.reject_reason,
    }


def decision_from_doc(doc: dict) -> "AdmissionDecision":
    """Rebuild an :class:`AdmissionDecision` from its journal payload."""
    try:
        return AdmissionDecision(
            admitted=bool(doc["admitted"]),
            plan=plan_from_doc(doc["plan"]),
            work_slot_seconds=float(doc["work_slot_seconds"]),
            max_slots=int(doc["max_slots"]),
            estimated_dollars=float(doc["estimated_dollars"]),
            reject_reason=doc.get("reject_reason"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ValidationError(
            f"malformed admission-decision document: {error}") from error


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of pricing one submission against one tenant's limits."""

    admitted: bool
    #: Failure-free dedicated-run estimate on the service cluster.
    plan: DeploymentPlan
    #: Total work the fluid scheduler will drain, in slot-seconds.
    work_slot_seconds: float
    #: Parallelism ceiling: the job cannot absorb more slots than this.
    max_slots: int
    #: Slot-seconds priced at the tenancy rate, in dollars.
    estimated_dollars: float
    #: Why the job was turned away (None when admitted).
    reject_reason: str | None = None


class AdmissionController:
    """Prices submissions on a fixed cluster spec with a shared memo.

    ``tune_physical`` selects between tuning the physical plan per
    admission (every matmul split in ``space`` is priced, exactly like the
    optimizer's per-spec tuning) and pricing the default
    :class:`~repro.core.compiler.CompilerParams` only — the cheap mode a
    session front-door uses.
    """

    def __init__(self, spec: ClusterSpec, tile_size: int = 256,
                 coefficients: HardwareCoefficients | None = None,
                 cache: EvalCache | None = None,
                 tune_physical: bool = True):
        if tile_size <= 0:
            raise ValidationError(f"tile_size must be positive: {tile_size}")
        self.spec = spec
        self.tile_size = tile_size
        self.coefficients = coefficients
        self.cache = cache if cache is not None else EvalCache()
        self.tune_physical = tune_physical
        #: The degenerate search space admission pricing enumerates: the
        #: service's one spec, tuned over physical parameters only.
        self.space = SearchSpace(
            instance_types=(spec.instance_type,),
            node_counts=(spec.num_nodes,),
            slots_options=(spec.slots_per_node,),
        )
        #: Per-program optimizers (keyed by id) so repeated pricings of one
        #: Program object reuse its compile cache; the eval cache is shared
        #: across all of them regardless.
        self._optimizers: dict[int, DeploymentOptimizer] = {}
        #: Priced (plan, cap) per (program id, tile_size): the hot-path memo
        #: that keeps admission pricing affordable per-submission when the
        #: wall-clock server replays the same cached Program at high rates.
        self._price_memo: dict[tuple[int, int | None],
                               tuple[DeploymentPlan, int]] = {}
        #: Pricing traffic: memo hits vs full optimizer pricings.
        self.price_hits = 0
        self.price_misses = 0

    def optimizer_for(self, program: Program,
                      tile_size: int | None = None) -> DeploymentOptimizer:
        """The (memoized) optimizer pricing ``program`` for this service."""
        key = id(program)
        optimizer = self._optimizers.get(key)
        if optimizer is None or optimizer.tile_size != (tile_size or
                                                        self.tile_size):
            optimizer = DeploymentOptimizer(
                program,
                tile_size=tile_size if tile_size is not None
                else self.tile_size,
                coefficients=self.coefficients,
                startup_seconds=0.0,  # the shared cluster is already up
                cache=self.cache,
            )
            self._optimizers[key] = optimizer
        return optimizer

    def price(self, program: Program,
              tile_size: int | None = None) -> tuple[DeploymentPlan, int]:
        """Price ``program`` on the service cluster: (plan, parallelism cap).

        The cap is the widest single phase in the compiled DAG — the most
        slots the job can keep busy at once — clamped to the cluster.

        Memoized per (program object, tile_size): the wall-clock server
        submits the same cached Program objects thousands of times, and
        re-deriving an identical plan per submission would dominate the
        accept path.  Pricing a *new* program still runs the full
        optimizer (warmed by the shared eval cache).
        """
        memo_key = (id(program), tile_size)
        hit = self._price_memo.get(memo_key)
        if hit is not None:
            self.price_hits += 1
            return hit
        self.price_misses += 1
        optimizer = self.optimizer_for(program, tile_size)
        if self.tune_physical:
            plan = optimizer.best_params_for(self.spec, self.space)
        else:
            plan = optimizer.price(self.spec, CompilerParams())
        compiled = optimizer.compile_with(plan.compiler_params,
                                          plan.tile_size or None)
        cap = 1
        for job in compiled.dag:
            cap = max(cap, len(job.map_tasks), len(job.reduce_tasks))
        priced = (plan, min(cap, self.spec.total_slots))
        self._price_memo[memo_key] = priced
        return priced

    @property
    def slot_second_rate(self) -> float:
        """The tenancy price: dollars per slot-second on this cluster."""
        return self.spec.hourly_rate / 3600.0 / self.spec.total_slots

    def decide(self, program: Program,
               budget_remaining_dollars: float | None = None,
               deadline_seconds: float | None = None,
               tile_size: int | None = None) -> AdmissionDecision:
        """Admit or reject one submission against a tenant's limits.

        ``budget_remaining_dollars`` is what the tenant has left after
        earlier commitments; ``deadline_seconds`` is the tenant's per-job
        completion bound *relative to submission*.  A job whose dedicated-
        run estimate already exceeds the deadline can never meet it on a
        shared cluster, so it is rejected outright; queueing delay beyond
        that is deliberately not second-guessed at admission (documented
        optimism — the completion metrics record any miss).
        """
        plan, cap = self.price(program, tile_size)
        work = plan.estimated_seconds * cap
        dollars = work * self.slot_second_rate
        reason = None
        if deadline_seconds is not None \
                and plan.estimated_seconds > deadline_seconds:
            reason = REJECT_DEADLINE
        elif budget_remaining_dollars is not None \
                and dollars > budget_remaining_dollars:
            reason = REJECT_BUDGET
        return AdmissionDecision(
            admitted=reason is None,
            plan=plan,
            work_slot_seconds=work,
            max_slots=cap,
            estimated_dollars=dollars,
            reject_reason=reason,
        )
