"""Unit tests for the multi-tenant job service."""

import io

import numpy as np
import pytest

from repro.api import (
    AdmissionRejectedError,
    ClusterSpec,
    CumulonSession,
    JobCancelledError,
    Program,
    ServiceError,
    get_instance_type,
)
from repro.cli import main
from repro.errors import ValidationError
from repro.service.admission import (
    REJECT_BUDGET,
    REJECT_DEADLINE,
    AdmissionController,
)
from repro.service.jobs import (
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_REJECTED,
    JobService,
)
from repro.service.scheduler import (
    POLICY_FAIR,
    POLICY_FIFO,
    RunQueues,
    SlotRequest,
    jain_fairness,
    weighted_shares,
)
from repro.workloads.catalog import build_workload


def cluster(nodes=4, slots=2, instance="c1.medium"):
    return ClusterSpec(get_instance_type(instance), nodes, slots)


def allocate(policy, requests, weights, total_slots):
    """One allocation of a fresh :class:`RunQueues` holding ``requests``."""
    queues = RunQueues(policy, total_slots, weights)
    for request in requests:
        queues.add(request)
    return queues.allocate()


def tiny_multiply():
    program, tile = build_workload("multiply", "tiny")
    return program, tile


class TestWeightedShares:
    def test_even_split_under_capacity(self):
        shares = weighted_shares([("a", 10.0, 1.0), ("b", 10.0, 1.0)], 8.0)
        assert shares == {"a": 4.0, "b": 4.0}

    def test_weights_divide_proportionally(self):
        shares = weighted_shares([("a", 10.0, 2.0), ("b", 10.0, 1.0)], 6.0)
        assert shares["a"] == pytest.approx(4.0)
        assert shares["b"] == pytest.approx(2.0)

    def test_saturated_demand_donates_surplus(self):
        shares = weighted_shares([("a", 1.0, 1.0), ("b", 10.0, 1.0)], 8.0)
        assert shares["a"] == pytest.approx(1.0)
        assert shares["b"] == pytest.approx(7.0)

    def test_everything_fits(self):
        shares = weighted_shares([("a", 2.0, 1.0), ("b", 3.0, 1.0)], 100.0)
        assert shares["a"] == pytest.approx(2.0)
        assert shares["b"] == pytest.approx(3.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            weighted_shares([("a", 1.0, 1.0)], -1.0)


class TestAllocateSlots:
    def requests(self):
        return [SlotRequest("j0", "acme", 6.0, 0),
                SlotRequest("j1", "zeta", 6.0, 1)]

    def test_fifo_is_strict_order(self):
        allocation = allocate(POLICY_FIFO, self.requests(), {}, 8.0)
        assert allocation == {"j0": 6.0, "j1": 2.0}

    def test_fair_splits_across_tenants(self):
        allocation = allocate(POLICY_FAIR, self.requests(), {}, 8.0)
        assert allocation["j0"] == pytest.approx(4.0)
        assert allocation["j1"] == pytest.approx(4.0)

    def test_fair_respects_weights(self):
        allocation = allocate(POLICY_FAIR, self.requests(),
                              {"acme": 3.0, "zeta": 1.0}, 8.0)
        assert allocation["j0"] == pytest.approx(6.0)
        assert allocation["j1"] == pytest.approx(2.0)

    def test_within_tenant_split_is_even(self):
        requests = [SlotRequest("j0", "acme", 8.0, 0),
                    SlotRequest("j1", "acme", 8.0, 1),
                    SlotRequest("j2", "zeta", 8.0, 2)]
        allocation = allocate(POLICY_FAIR, requests, {}, 8.0)
        assert allocation["j0"] == pytest.approx(2.0)
        assert allocation["j1"] == pytest.approx(2.0)
        assert allocation["j2"] == pytest.approx(4.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            allocate("lottery", self.requests(), {}, 8.0)

    def test_jain_index(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([]) == 1.0
        assert jain_fairness([4.0, 0.0]) < 1.0


class TestAdmission:
    def test_admits_within_budget(self):
        program, __ = tiny_multiply()
        controller = AdmissionController(cluster(), tile_size=256)
        decision = controller.decide(program,
                                     budget_remaining_dollars=100.0)
        assert decision.admitted
        assert decision.work_slot_seconds > 0
        assert decision.max_slots >= 1
        assert decision.estimated_dollars == pytest.approx(
            decision.work_slot_seconds * controller.slot_second_rate)

    def test_rejects_over_budget(self):
        program, __ = tiny_multiply()
        controller = AdmissionController(cluster())
        decision = controller.decide(program,
                                     budget_remaining_dollars=1e-9)
        assert not decision.admitted
        assert decision.reject_reason == REJECT_BUDGET

    def test_rejects_impossible_deadline(self):
        program, __ = tiny_multiply()
        controller = AdmissionController(cluster())
        decision = controller.decide(program, deadline_seconds=1e-6)
        assert not decision.admitted
        assert decision.reject_reason == REJECT_DEADLINE

    def test_shared_cache_spans_programs(self):
        program, __ = tiny_multiply()
        controller = AdmissionController(cluster())
        controller.decide(program)
        hits_before = controller.cache.hits
        controller.decide(program)  # same program object: memoized pricing
        assert controller.cache.hits >= hits_before


class TestJobService:
    def service(self, policy=POLICY_FAIR, **tenants):
        svc = JobService(cluster(), policy=policy)
        for name, kwargs in (tenants or {"acme": {}}).items():
            svc.add_tenant(name, **kwargs)
        return svc

    def test_submit_runs_to_completion(self):
        svc = self.service()
        program, tile = tiny_multiply()
        handle = svc.submit(program, "acme", tile_size=tile)
        assert handle.status == STATE_PENDING
        result = handle.result()
        assert result.state == STATE_COMPLETED
        assert result.finished_at > result.submitted_at
        assert result.slot_seconds == pytest.approx(
            result.work_slot_seconds, rel=1e-6)

    def test_unknown_tenant_rejected(self):
        svc = self.service()
        program, __ = tiny_multiply()
        with pytest.raises(ValidationError, match="unknown tenant"):
            svc.submit(program, "nobody")

    def test_budget_rejection_raises_from_result(self):
        svc = self.service(acme={"budget_dollars": 1e-9})
        program, __ = tiny_multiply()
        handle = svc.submit(program, "acme")
        svc.drain()
        assert handle.status == STATE_REJECTED
        with pytest.raises(AdmissionRejectedError, match="budget"):
            handle.result()

    def test_cancel_before_completion(self):
        svc = self.service()
        program, __ = tiny_multiply()
        handle = svc.submit(program, "acme", submit_at=100.0)
        handle.cancel()
        svc.drain()
        assert handle.status == STATE_CANCELLED
        with pytest.raises(JobCancelledError):
            handle.result()

    def test_result_before_drain_raises(self):
        svc = self.service()
        program, __ = tiny_multiply()
        handle = svc.submit(program, "acme")
        with pytest.raises(ServiceError, match="still"):
            svc.result(handle.job_id)

    def test_clock_never_runs_backwards(self):
        svc = self.service()
        svc.run_until(50.0)
        with pytest.raises(ValidationError):
            svc.run_until(10.0)
        program, __ = tiny_multiply()
        with pytest.raises(ValidationError, match="past"):
            svc.submit(program, "acme", submit_at=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("flag,keyword", [
        ("submit-at", None), ("weight", "weight"),
        ("budget", "budget_dollars"), ("deadline", "deadline_seconds")])
    def test_non_finite_limits_and_arrivals_are_refused(
            self, tmp_path, capsys, flag, keyword, value):
        # NaN compares false to every bound: unchecked, a NaN arrival
        # stalls drain() and a NaN weight leaves its jobs running forever.
        program, tile = tiny_multiply()
        with pytest.raises(ValidationError, match="finite"):
            if keyword is None:
                self.service().submit(program, "acme", submit_at=value,
                                      tile_size=tile)
            else:
                self.service(acme={keyword: value})
        script = tmp_path / "script.json"
        code = main(["submit", str(script), "multiply", "--scale", "tiny",
                     "--tenant", "acme", f"--{flag}", str(value)],
                    out=io.StringIO())
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not script.exists()

    def test_tenant_dollars_sum_to_meter_total(self):
        svc = self.service(acme={"weight": 2.0}, zeta={})
        program, tile = tiny_multiply()
        gnmf, gtile = build_workload("gnmf", "tiny")
        svc.submit(program, "acme", tile_size=tile)
        svc.submit(gnmf, "zeta", submit_at=5.0, tile_size=gtile)
        svc.submit(program, "acme", submit_at=10.0, tile_size=tile)
        svc.drain()
        report = svc.report()
        assert sum(t.dollars for t in report.tenants) == pytest.approx(
            report.total_dollars)
        assert report.makespan_seconds > 0
        assert 0 < report.fairness_index <= 1.0

    def test_fifo_and_fair_schedule_differently(self):
        def light_tenant_p95(policy):
            svc = JobService(cluster(nodes=2, slots=1), policy=policy)
            svc.add_tenant("heavy")
            svc.add_tenant("light")
            gnmf, gtile = build_workload("gnmf", "tiny")
            mult, mtile = tiny_multiply()
            for index in range(3):
                svc.submit(gnmf, "heavy", submit_at=0.0, tile_size=gtile)
            svc.submit(mult, "light", submit_at=1.0, tile_size=mtile)
            svc.drain()
            return svc.report().tenant("light").p95_latency_seconds

        # Under FIFO the heavy tenant's burst is ahead of the light job;
        # fair sharing must get the light tenant served sooner.
        assert light_tenant_p95(POLICY_FAIR) < light_tenant_p95(POLICY_FIFO)

    def test_deadline_miss_is_recorded(self):
        svc = JobService(cluster(nodes=1, slots=1))
        # Deadline is loose enough to admit (dedicated estimate fits) but
        # tight enough that two jobs sharing the one slot both blow it.
        gnmf, gtile = build_workload("gnmf", "tiny")
        estimate = svc.admission.decide(
            gnmf, tile_size=gtile).plan.estimated_seconds
        svc.add_tenant("acme", deadline_seconds=estimate * 1.5)
        svc.submit(gnmf, "acme", tile_size=gtile)
        svc.submit(gnmf, "acme", tile_size=gtile)
        svc.drain()
        report = svc.report().tenant("acme")
        assert report.completed == 2
        assert report.deadline_misses >= 1


class TestSessionOnService:
    def test_run_executes_via_service(self):
        session = CumulonSession(tile_size=8)
        rng = np.random.default_rng(5)
        a = rng.random((16, 16))
        program = Program("p")
        av = program.declare_input("A", 16, 16)
        program.assign("S", av @ av)
        program.mark_output("S")
        result = session.run(program, {"A": a})
        np.testing.assert_allclose(result.output("S"), a @ a, rtol=1e-9)
        report = session.service.report()
        assert report.tenant("session").completed == 1

    def test_submit_returns_resolvable_handle(self):
        session = CumulonSession(tile_size=8)
        program = Program("p")
        av = program.declare_input("A", 8, 8)
        program.assign("S", av + av)
        program.mark_output("S")
        handle = session.submit(program, {"A": np.ones((8, 8))})
        result = handle.result()
        assert result.state == STATE_COMPLETED
        np.testing.assert_allclose(result.execution.output("S"),
                                   2 * np.ones((8, 8)))

    def test_cluster_spec_kwarg(self):
        spec = cluster(nodes=2, slots=4)
        session = CumulonSession(tile_size=8, cluster=spec)
        assert session.spec.total_slots == 8
        with pytest.raises(ValidationError, match="not both"):
            CumulonSession(cluster=spec, nodes=3)

    def test_slots_per_node_no_longer_hardcoded(self):
        session = CumulonSession(tile_size=8, nodes=2, slots_per_node=4)
        assert session.spec.slots_per_node == 4

    def test_telemetry_accessors(self):
        session = CumulonSession(tile_size=8)
        program = Program("p")
        av = program.declare_input("A", 8, 8)
        program.assign("S", av * 2.0)
        program.mark_output("S")
        session.run(program, {"A": np.ones((8, 8))})
        assert len(session.trace) > 0
        snapshot = session.metrics.snapshot()
        assert snapshot["counters"]
