"""Unit tests for the spot-market extension."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.spot import (
    SpotMarket,
    estimate_spot_deployment,
    on_demand_cost,
    simulate_spot_run,
)
from repro.errors import ValidationError


def spec(nodes=4):
    return ClusterSpec(get_instance_type("m1.large"), nodes, 2)


@pytest.fixture
def market():
    return SpotMarket(base_discount=0.3, volatility=0.6, floor=0.1)


class TestSpotMarket:
    def test_price_deterministic(self, market):
        assert market.price_fraction(1, 5) == market.price_fraction(1, 5)

    def test_price_respects_floor(self, market):
        prices = [market.price_fraction(seed, hour)
                  for seed in range(20) for hour in range(20)]
        assert min(prices) >= market.floor

    def test_prices_vary(self, market):
        prices = {round(market.price_fraction(0, hour), 6)
                  for hour in range(50)}
        assert len(prices) > 10

    def test_median_near_base_discount(self, market):
        prices = sorted(market.price_fraction(0, hour)
                        for hour in range(2000))
        median = prices[len(prices) // 2]
        assert 0.2 < median < 0.4

    def test_occasional_spikes_above_on_demand(self):
        spiky = SpotMarket(base_discount=0.3, volatility=1.2)
        prices = [spiky.price_fraction(3, hour) for hour in range(2000)]
        assert max(prices) > 1.0

    def test_cluster_price(self, market):
        cluster = spec(nodes=4)
        fraction = market.price_fraction(0, 0)
        assert market.price_per_hour(cluster, 0, 0) == pytest.approx(
            fraction * 4 * cluster.instance_type.price_per_hour)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpotMarket(base_discount=0.0)
        with pytest.raises(ValidationError):
            SpotMarket(floor=0.5, base_discount=0.3)
        with pytest.raises(ValidationError):
            SpotMarket(volatility=-1.0)


class TestSpotRun:
    def test_high_bid_completes_quickly(self, market):
        run = simulate_spot_run(spec(), work_seconds=3 * 3600,
                                bid_fraction=10.0, market=market, seed=1)
        assert run.completed
        assert run.hours_elapsed == 3
        assert run.revocations == 0

    def test_cost_below_on_demand_for_reasonable_bid(self, market):
        run = simulate_spot_run(spec(), work_seconds=3 * 3600,
                                bid_fraction=10.0, market=market, seed=1)
        assert run.cost < on_demand_cost(spec(), 3 * 3600)

    def test_low_bid_waits_or_restarts(self, market):
        greedy = simulate_spot_run(spec(), work_seconds=5 * 3600,
                                   bid_fraction=0.22, market=market, seed=7)
        patient = simulate_spot_run(spec(), work_seconds=5 * 3600,
                                    bid_fraction=10.0, market=market, seed=7)
        assert greedy.hours_elapsed >= patient.hours_elapsed

    def test_bid_below_floor_never_completes(self, market):
        run = simulate_spot_run(spec(), work_seconds=3600,
                                bid_fraction=0.05, market=market, seed=1)
        assert not run.completed
        assert run.cost == 0.0

    def test_checkpointing_never_slower(self, market):
        for seed in range(10):
            plain = simulate_spot_run(spec(), 6 * 3600, 0.3, market,
                                      seed=seed, checkpointing=False)
            checkpointed = simulate_spot_run(spec(), 6 * 3600, 0.3, market,
                                             seed=seed, checkpointing=True)
            assert checkpointed.hours_elapsed <= plain.hours_elapsed

    def test_deterministic(self, market):
        runs = [simulate_spot_run(spec(), 4 * 3600, 0.35, market, seed=5)
                for __ in range(2)]
        assert runs[0] == runs[1]

    def test_validation(self, market):
        with pytest.raises(ValidationError):
            simulate_spot_run(spec(), 0.0, 0.5, market, seed=0)
        with pytest.raises(ValidationError):
            simulate_spot_run(spec(), 100.0, 0.0, market, seed=0)


class TestSpotEstimate:
    def test_estimate_fields(self, market):
        estimate = estimate_spot_deployment(spec(), 4 * 3600, 0.5, market,
                                            samples=50)
        assert 0.0 <= estimate.completion_rate <= 1.0
        assert estimate.mean_seconds > 0
        assert estimate.p95_seconds >= estimate.mean_seconds * 0.5

    def test_spot_cheaper_than_on_demand_at_generous_bid(self, market):
        work = 6 * 3600
        estimate = estimate_spot_deployment(spec(), work, 1.0, market,
                                            samples=100)
        assert estimate.completion_rate == 1.0
        assert estimate.mean_cost < 0.8 * on_demand_cost(spec(), work)

    def test_lower_bid_cheaper_but_slower_with_checkpointing(self, market):
        # With checkpointing every paid hour is productive, so a lower bid
        # strictly filters for cheaper hours: cost is monotone in the bid.
        # (Without checkpointing restarts burn paid hours and low bids can
        # cost MORE — covered by the next test.)
        work = 6 * 3600
        low = estimate_spot_deployment(spec(), work, 0.28, market,
                                       samples=100, seed=3,
                                       checkpointing=True)
        high = estimate_spot_deployment(spec(), work, 2.0, market,
                                        samples=100, seed=3,
                                        checkpointing=True)
        assert low.mean_cost <= high.mean_cost
        assert low.mean_seconds >= high.mean_seconds

    def test_low_bid_without_checkpointing_wastes_paid_hours(self):
        spiky = SpotMarket(base_discount=0.35, volatility=1.0)
        work = 10 * 3600
        plain = estimate_spot_deployment(spec(), work, 0.4, spiky,
                                         samples=100, checkpointing=False)
        checkpointed = estimate_spot_deployment(spec(), work, 0.4, spiky,
                                                samples=100,
                                                checkpointing=True)
        # Restarts re-buy hours: the plain policy pays at least as much.
        assert plain.mean_cost >= checkpointed.mean_cost

    def test_checkpointing_improves_completion_time(self):
        spiky = SpotMarket(base_discount=0.35, volatility=1.0)
        work = 10 * 3600
        plain = estimate_spot_deployment(spec(), work, 0.4, spiky,
                                         samples=100, checkpointing=False)
        checkpointed = estimate_spot_deployment(spec(), work, 0.4, spiky,
                                                samples=100,
                                                checkpointing=True)
        assert checkpointed.mean_seconds < plain.mean_seconds

    def test_validation(self, market):
        with pytest.raises(ValidationError):
            estimate_spot_deployment(spec(), 3600, 0.5, market, samples=0)
