"""Surrogate-guided deployment search: a model instead of the grid.

The exhaustive method prices every ``(instance type, node count, slots)``
spec in the search space — and the reliability-aware search multiplies
that by N failure scenarios.  This module is the other *ordering* over
the same solver core (:mod:`repro.core.search`), following the
Lynceus/UDAO recipe: price a handful of *seed* candidates, fit a cheap
regressor from hand-rolled features of the cluster shape to log(time) and
log(cost), and pick each next candidate by **constrained expected
improvement** — minimize cost subject to the deadline (or minimize time
subject to the budget), weighting the improvement by the model's
probability that the candidate is feasible at all.  The model only
chooses *which candidate to price next*; objective, feasibility,
tie-breaks and prunes are the core's.

The model is deliberately light ("ridge/GP-lite"): ridge regression on
standardized features, with a distance-inflated residual uncertainty
standing in for a GP posterior — no dependencies beyond numpy, fully
deterministic, and refit from scratch every round (the training set never
exceeds a few dozen rows).

Three properties the exhaustive oracle tests lean on:

* **Feasibility is never guessed.**  The core only returns candidates it
  actually priced (and, in reliable mode, stress-tested across every
  scenario); an infeasible plan can never be returned.
* **Infeasibility is never guessed either.**  While no feasible incumbent
  exists the search keeps pricing (best predicted-feasibility first), so
  :class:`~repro.errors.InfeasibleConstraintError` is raised only after
  every spec was priced or settled by its floor — exactly when the
  exhaustive method raises.
* **Local optimality.**  A final *polish* pass walks the grid neighbors
  of the incumbent until none improves, so the returned plan is a local
  optimum of the true (priced) objective, not of the model.

``SearchStats.simulations_avoided`` reports the gap to the full unpruned
grid (see
:meth:`~repro.core.optimizer.DeploymentOptimizer.grid_sim_requests`), and
``surrogate_rounds`` counts the model-guided pricings after seeding.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.instances import ClusterSpec
from repro.core.optimizer import ReliablePlan, SearchSpace

if TYPE_CHECKING:  # search.py imports this module
    from repro.core.search import GridSolver

#: Candidates priced up front to give the model something to fit.
SEEDS = 5
#: Acquisition rounds (one pricing each) after seeding, at most.
MAX_ROUNDS = 12
#: Neighbor descents the polish pass walks, at most.
MAX_POLISH_STEPS = 8
RIDGE_LAMBDA = 1e-2
#: Acquisition stops once the best constrained-EI score falls below this.
EI_TOLERANCE = 1e-4
#: Floor on predictive sigma in log space (keeps EI exploring).
SIGMA_FLOOR = 0.02
#: How strongly distance from the training set inflates sigma.
EXPLORE_WEIGHT = 1.0


def reliability_frontier(plans: list[ReliablePlan]) -> list[ReliablePlan]:
    """Three-objective Pareto skyline: (p95 time, mean cost, completion).

    Extends the optimizer's (time, cost) frontier with the reliability
    completion rate as a third objective — a plan that is slower *and*
    dearer may still be undominated because more of its failure scenarios
    finish.  Dominance: no worse on all three axes, strictly better on
    one; ties on all three keep the earlier arrival.
    """
    frontier: list[ReliablePlan] = []
    for candidate in plans:
        dominated = False
        for other in plans:
            if other is candidate:
                continue
            no_worse = (other.p95_seconds <= candidate.p95_seconds
                        and other.mean_cost <= candidate.mean_cost
                        and other.completion_rate >= candidate.completion_rate)
            better = (other.p95_seconds < candidate.p95_seconds
                      or other.mean_cost < candidate.mean_cost
                      or other.completion_rate > candidate.completion_rate)
            if no_worse and better:
                dominated = True
                break
            if no_worse and not better and other in frontier:
                dominated = True  # exact tie: earlier arrival already kept
                break
        if not dominated:
            frontier.append(candidate)
    return frontier


def _phi(z: float) -> float:
    """Standard normal pdf."""
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _spec_features(spec: ClusterSpec) -> list[float]:
    """Hand-rolled feature vector of one cluster spec (no bias term).

    Log features capture the power laws the cost model is built from
    (time ~ work / parallelism, cost ~ nodes x price x hours); the
    reciprocal total-slots term lets the model express the serial
    fraction that keeps big clusters from scaling linearly.
    """
    instance = spec.instance_type
    total_slots = spec.num_nodes * spec.slots_per_node
    return [
        math.log2(spec.num_nodes),
        math.log2(spec.slots_per_node),
        math.log2(total_slots),
        1.0 / total_slots,
        float(spec.num_nodes),
        instance.core_speed,
        math.log2(instance.price_per_hour),
        math.log2(instance.disk_bandwidth),
        math.log2(instance.network_bandwidth),
        instance.memory_gb,
    ]


class _RidgeModel:
    """Ridge regression with distance-inflated uncertainty (GP-lite).

    Fit on standardized features against a scalar log-target.  The
    predictive sigma is the training residual RMS inflated by the
    candidate's distance to its nearest training row — far from the data
    the model admits it is guessing, which is what drives exploration.
    """

    def __init__(self, rows: np.ndarray, targets: np.ndarray):
        self._mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        self._std = np.where(std > 1e-12, std, 1.0)
        normalized = (rows - self._mean) / self._std
        self._train = normalized
        design = np.hstack([normalized,
                            np.ones((normalized.shape[0], 1))])
        gram = design.T @ design
        gram += RIDGE_LAMBDA * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ targets)
        residuals = design @ self._weights - targets
        self._residual_rms = float(np.sqrt(np.mean(residuals ** 2)))

    def predict(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(mu, sigma)`` per row, both in the target's (log) space."""
        normalized = (rows - self._mean) / self._std
        design = np.hstack([normalized,
                            np.ones((normalized.shape[0], 1))])
        mu = design @ self._weights
        # Distance of each candidate to its nearest training row.
        deltas = normalized[:, None, :] - self._train[None, :, :]
        nearest = np.sqrt((deltas ** 2).sum(axis=2)).min(axis=1)
        scale = math.sqrt(self._train.shape[1])
        sigma = np.maximum(
            SIGMA_FLOOR,
            self._residual_rms * (1.0 + EXPLORE_WEIGHT * nearest / scale))
        return mu, sigma


def surrogate_order(solver: GridSolver) -> int:
    """Seeds → constrained-EI picks → neighbor polish, over ``solver``.

    Returns the number of model-guided pricings after the seed phase
    (``SearchStats.surrogate_rounds``).  The answer is whatever the
    solver's incumbent is afterwards; when there is none no spec is left
    open (:meth:`GridSolver.is_open`).
    """
    features = np.array([_spec_features(spec) for spec in solver.specs])
    solver.price(_seed_indices(solver.specs), step=0)
    rounds, step = 0, 1
    while solver.incumbent is None or rounds < MAX_ROUNDS:
        pick = _acquisition(solver, features)
        if pick is None:
            break  # whole grid priced or settled
        index, score = pick
        if solver.incumbent is not None and score < EI_TOLERANCE:
            break  # model sees nothing left to gain
        solver.price([index], step=step)
        rounds += 1
        step += 1
    return rounds + _polish(solver, step)


def _seed_indices(specs: list[ClusterSpec]) -> list[int]:
    """Quantile-spread seeds over the grid, ordered by parallelism.

    Sorting by total slots (then hourly rate) and taking evenly spaced
    quantiles covers tiny-to-huge clusters and, with multiple instance
    types interleaved by size, usually covers every type.  Deterministic
    by construction.
    """
    order = sorted(
        range(len(specs)),
        key=lambda i: (specs[i].num_nodes * specs[i].slots_per_node,
                       specs[i].instance_type.price_per_hour
                       * specs[i].num_nodes, i))
    count = min(SEEDS, len(order))
    if count == len(order):
        return order
    picks = []
    for position in range(count):
        offset = round(position * (len(order) - 1) / (count - 1))
        if order[offset] not in picks:
            picks.append(order[offset])
    return picks


def _acquisition(solver: GridSolver,
                 features: np.ndarray) -> tuple[int, float] | None:
    """Best open candidate by constrained EI: ``(index, score)``.

    With a feasible incumbent the score is expected improvement on the
    objective times the probability of feasibility; without one it is the
    probability of feasibility alone (find *any* feasible point first).
    Returns None when the grid is exhausted.
    """
    unpriced = [i for i in range(len(solver.specs)) if solver.is_open(i)]
    if not unpriced:
        return None
    priced = sorted(solver.plans)
    if len(priced) < 2:  # nothing to fit a model to yet: best floor first
        return min(unpriced, key=solver.order.index), math.inf
    time_model = _RidgeModel(features[priced], np.log(
        [solver.plans[i].estimated_seconds for i in priced]))
    cost_model = _RidgeModel(features[priced], np.log(
        [solver.plans[i].estimated_cost for i in priced]))
    rows = features[unpriced]
    mu_t, sig_t = time_model.predict(rows)
    mu_c, sig_c = cost_model.predict(rows)
    if solver.minimize_cost:
        mu_obj, sig_obj = mu_c, sig_c
        z_feas = (math.log(solver.limit) - mu_t) / sig_t
    else:
        mu_obj, sig_obj = mu_t, sig_t
        z_feas = (math.log(solver.limit) - mu_c) / sig_c
    p_feasible = np.array([_Phi(z) for z in z_feas])
    if solver.incumbent is None:
        scores = p_feasible
    else:
        best = math.log(solver.objective(solver.incumbent))
        z = (best - mu_obj) / sig_obj
        ei = sig_obj * np.array([z_i * _Phi(z_i) + _phi(z_i)
                                 for z_i in z])
        scores = ei * p_feasible
    winner = max(range(len(unpriced)),
                 key=lambda pos: (scores[pos], -unpriced[pos]))
    return unpriced[winner], float(scores[winner])


def _spec_key(spec: ClusterSpec) -> tuple[str, int, int]:
    return (spec.instance_type.name, spec.num_nodes, spec.slots_per_node)


def _neighbors(spec: ClusterSpec, space: SearchSpace) -> list[ClusterSpec]:
    """Adjacent specs: one node-count step, one slot, every other type."""
    neighbors = []
    counts = sorted(space.node_counts)
    if spec.num_nodes in counts:
        index = counts.index(spec.num_nodes)
        adjacent_counts = [counts[i] for i in (index - 1, index + 1)
                           if 0 <= i < len(counts)]
    else:
        adjacent_counts = counts[:1]
    for count in adjacent_counts:
        neighbors.append(ClusterSpec(spec.instance_type, count,
                                     min(spec.slots_per_node,
                                         spec.instance_type.max_slots)))
    for delta in (-1, 1):
        slots = spec.slots_per_node + delta
        if 1 <= slots <= spec.instance_type.max_slots:
            neighbors.append(ClusterSpec(spec.instance_type,
                                         spec.num_nodes, slots))
    for instance in space.instance_types:
        if instance.name != spec.instance_type.name:
            slots = min(spec.slots_per_node, instance.max_slots)
            neighbors.append(ClusterSpec(instance, spec.num_nodes, slots))
    return neighbors


def _polish(solver: GridSolver, step: int) -> int:
    """Greedy neighbor descent from the incumbent; returns pricings made.

    Certifies the incumbent as a local optimum of the *priced* objective:
    every grid neighbor of the final plan has been priced (or settled by
    its floor) and none improves on it.
    """
    grid_index = {_spec_key(spec): index
                  for index, spec in enumerate(solver.specs)}
    priced = 0
    for offset in range(MAX_POLISH_STEPS):
        before = solver.incumbent
        if before is None:
            break
        around = [grid_index.get(_spec_key(neighbor)) for neighbor
                  in _neighbors(solver.specs[before], solver.space)]
        fresh = [index for index in around
                 if index is not None and solver.is_open(index)]
        if not fresh:
            break
        solver.price(fresh, step=step + offset)
        priced += len(fresh)
        if solver.incumbent == before:
            break
    return priced
