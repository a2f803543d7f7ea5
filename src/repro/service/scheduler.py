"""Service-level slot scheduling: FIFO vs weighted fair sharing.

The cluster simulator already arbitrates *tasks within one DAG* (its
``FIFO``/``FAIR`` scan orders); this module extends those policies one
level up, to whole jobs from many tenants sharing one cluster.  The
service models each admitted job as a fluid bucket of *slot-seconds* (see
:mod:`repro.service.jobs`), so scheduling reduces to dividing the
cluster's slot capacity among the active jobs at every event instant:

* :data:`POLICY_FIFO` — strict admission order.  Each job takes up to its
  parallelism cap; later jobs only get what is left.  One heavy tenant's
  burst monopolizes the cluster, which is exactly the pathology E23
  measures.
* :data:`POLICY_FAIR` — preemption-free weighted fair queuing.  Capacity
  is divided across *tenants* in proportion to their weights (max-min /
  progressive filling, so a tenant that cannot use its share donates the
  surplus), then each tenant's share is divided max-min across its own
  jobs.  No job is ever killed or loses work; only its slot allocation
  changes between events.

Allocations are fractional (fluid-flow approximation) and the algorithms
are deterministic: ties break on admission order, and all arithmetic
happens in sorted order so repeated runs produce bit-identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.hadoop.simulator import FAIR, FIFO

#: Service scheduling policies (same spellings as the task-level simulator
#: policies they extend).
POLICY_FIFO = FIFO
POLICY_FAIR = FAIR
POLICIES = (POLICY_FIFO, POLICY_FAIR)

#: Allocations below this many slots are treated as zero.
EPSILON = 1e-12


@dataclass(frozen=True)
class SlotRequest:
    """One runnable job's demand on the shared cluster.

    ``cap`` is the job's parallelism ceiling (it cannot absorb more slots
    than its widest stage has tasks); ``order`` is the admission sequence
    number, which is both the FIFO priority and the deterministic
    tie-breaker everywhere else.
    """

    job_id: str
    tenant: str
    cap: float
    order: int

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValidationError(
                f"job {self.job_id!r} slot cap must be positive, "
                f"got {self.cap}")


def weighted_shares(demands: list[tuple[str, float, float]],
                    capacity: float) -> dict[str, float]:
    """Weighted max-min allocation (progressive filling).

    ``demands`` is a list of ``(key, cap, weight)``.  Capacity is divided
    in proportion to weights; a demand saturated at its cap drops out and
    its surplus is re-divided among the rest, until either everyone is
    saturated or the capacity is gone.  Runs in at most ``len(demands)``
    rounds because each round either saturates a demand or distributes
    everything that is left.
    """
    if capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    shares = {key: 0.0 for key, __, __ in demands}
    active = [(key, cap, weight) for key, cap, weight in demands
              if cap > EPSILON and weight > 0]
    remaining = capacity
    while active and remaining > EPSILON:
        total_weight = sum(weight for __, __, weight in active)
        quantum = remaining / total_weight
        saturated = []
        for key, cap, weight in active:
            grant = min(quantum * weight, cap - shares[key])
            shares[key] += grant
            remaining -= grant
            if cap - shares[key] <= EPSILON:
                saturated.append(key)
        if not saturated:
            break  # nobody hit a cap: the whole remainder was distributed
        active = [(key, cap, weight) for key, cap, weight in active
                  if key not in saturated]
    return shares


class RunQueues:
    """The running jobs' slot demands, kept grouped between allocations.

    The job service re-divides the cluster at every event instant; the
    set of demands changes by one job at a time.  This holds what a
    from-scratch allocation would otherwise rebuild per call: the demands
    in FIFO (``order``) order, the same demands grouped per tenant, and
    each tenant's total and smallest cap.  ``weights`` is the fair policy's
    ``tenant -> weight`` map (absent tenants weigh 1); the owner fills it.
    """

    def __init__(self, policy: str, total_slots: float,
                 weights: dict[str, float] | None = None):
        if policy not in POLICIES:
            raise ValidationError(
                f"scheduling policy must be one of {POLICIES}, "
                f"got {policy!r}")
        self.policy = policy
        self.total_slots = float(total_slots)
        self.weights: dict[str, float] = {} if weights is None else weights
        #: ``job_id -> request`` in ``order`` order (FIFO priority).
        self._fifo: dict[str, SlotRequest] = {}
        #: ``tenant -> {job_id -> request}``, each in ``order`` order;
        #: only tenants with a running job have an entry.
        self._tenants: dict[str, dict[str, SlotRequest]] = {}
        #: ``tenant -> (summed cap, smallest cap)``; dropped whenever its
        #: queue changes and recomputed by the next allocation.
        self._caps: dict[str, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._fifo)

    def add(self, request: SlotRequest) -> None:
        """Queue one demand, keeping every queue in ``order`` order."""
        queue = self._tenants.setdefault(request.tenant, {})
        for jobs in (self._fifo, queue):
            in_order = not jobs or next(reversed(jobs.values())).order \
                < request.order
            jobs[request.job_id] = request
            if not in_order:
                # Arrivals scheduled out of submission order: rare, so
                # pay for a full sort instead of keeping a search tree.
                ordered = sorted(jobs.values(), key=lambda r: r.order)
                jobs.clear()
                jobs.update((r.job_id, r) for r in ordered)
        self._caps.pop(request.tenant, None)

    def remove(self, request: SlotRequest) -> None:
        """Withdraw a demand queued with :meth:`add`."""
        del self._fifo[request.job_id]
        queue = self._tenants[request.tenant]
        del queue[request.job_id]
        if not queue:
            del self._tenants[request.tenant]
        self._caps.pop(request.tenant, None)

    def allocate(self) -> dict[str, float]:
        """Divide ``total_slots`` among the queued demands.

        Returns ``job_id -> slots`` (fractional; zero entries included so
        the caller can detect starved jobs).
        """
        allocation = dict.fromkeys(self._fifo, 0.0)
        if not allocation or self.total_slots <= 0:
            return allocation
        if self.policy == POLICY_FIFO:
            remaining = self.total_slots
            for request in self._fifo.values():
                grant = min(request.cap, remaining)
                allocation[request.job_id] = grant
                remaining -= grant
                if remaining <= EPSILON:
                    break
            return allocation
        # Fair share: tenants first (weighted), then each tenant's jobs.
        caps = self._caps
        tenants = sorted(self._tenants)
        for tenant in tenants:
            if tenant not in caps:
                each = [request.cap
                        for request in self._tenants[tenant].values()]
                caps[tenant] = (sum(each), min(each))
        tenant_shares = weighted_shares(
            [(tenant, caps[tenant][0], self.weights.get(tenant, 1.0))
             for tenant in tenants], self.total_slots)
        for tenant in tenants:
            queue = self._tenants[tenant]
            share = tenant_shares[tenant]
            quantum = share / len(queue)
            if share > EPSILON and caps[tenant][1] - quantum > EPSILON:
                # An even split saturates nobody, which is where
                # ``weighted_shares`` stops after its first round.
                allocation.update(dict.fromkeys(queue, quantum))
            else:
                allocation.update(weighted_shares(
                    [(request.job_id, request.cap, 1.0)
                     for request in queue.values()], share))
        return allocation


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index over ``values`` (1.0 = perfectly even).

    Conventionally applied to per-tenant *normalized* service (e.g. slot-
    seconds divided by weight).  An empty or all-zero list scores 1.0.
    """
    meaningful = [value for value in values if value > 0]
    if not meaningful:
        return 1.0
    total = sum(meaningful)
    squares = sum(value * value for value in meaningful)
    return (total * total) / (len(values) * squares)
