"""Unit tests for the cloud layer: catalog, cluster specs, billing."""

import pytest

from repro.cloud.instances import EC2_CATALOG, ClusterSpec, get_instance_type
from repro.cloud.pricing import HourlyBilling, PerSecondBilling
from repro.cloud.provisioning import provision
from repro.errors import ReplicationError, ValidationError


class TestCatalog:
    def test_known_types_present(self):
        for name in ("m1.small", "m1.large", "c1.xlarge", "m2.4xlarge"):
            assert name in EC2_CATALOG

    def test_lookup(self):
        instance = get_instance_type("c1.medium")
        assert instance.cores == 2

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            get_instance_type("p5.48xlarge")

    def test_no_type_dominates_on_price_per_core_speed(self):
        # The catalog must present real trade-offs: the cheapest
        # core-second is not also the one with the most memory per dollar.
        def core_value(instance):
            return instance.cores * instance.core_speed / instance.price_per_hour

        def memory_value(instance):
            return instance.memory_gb / instance.price_per_hour

        best_compute = max(EC2_CATALOG.values(), key=core_value)
        best_memory = max(EC2_CATALOG.values(), key=memory_value)
        assert best_compute.name != best_memory.name

    def test_max_slots(self):
        assert get_instance_type("m1.large").max_slots == 4


class TestClusterSpec:
    def test_totals(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 4, 2)
        assert spec.total_slots == 8
        assert spec.hourly_rate == pytest.approx(4 * 0.24)

    def test_node_names_unique(self):
        spec = ClusterSpec(get_instance_type("m1.small"), 5, 1)
        names = spec.node_names()
        assert len(set(names)) == 5

    def test_invalid_nodes(self):
        with pytest.raises(ValidationError):
            ClusterSpec(get_instance_type("m1.small"), 0, 1)

    def test_slots_bounds(self):
        instance = get_instance_type("m1.large")
        with pytest.raises(ValidationError):
            ClusterSpec(instance, 2, 0)
        with pytest.raises(ValidationError):
            ClusterSpec(instance, 2, instance.max_slots + 1)

    def test_describe_mentions_type(self):
        spec = ClusterSpec(get_instance_type("c1.xlarge"), 2, 8)
        assert "c1.xlarge" in spec.describe()


class TestBilling:
    def spec(self, nodes=2):
        return ClusterSpec(get_instance_type("m1.large"), nodes, 2)

    def test_hourly_rounds_up(self):
        billing = HourlyBilling()
        spec = self.spec()
        assert billing.cost(spec, 1.0) == pytest.approx(spec.hourly_rate)
        assert billing.cost(spec, 3600.0) == pytest.approx(spec.hourly_rate)
        assert billing.cost(spec, 3601.0) == pytest.approx(2 * spec.hourly_rate)

    def test_hourly_minimum_one_hour(self):
        billing = HourlyBilling()
        spec = self.spec()
        assert billing.cost(spec, 0.0) == pytest.approx(spec.hourly_rate)

    def test_per_second_exact(self):
        billing = PerSecondBilling(minimum_seconds=0.0)
        spec = self.spec()
        assert billing.cost(spec, 1800.0) == pytest.approx(spec.hourly_rate / 2)

    def test_per_second_minimum(self):
        billing = PerSecondBilling(minimum_seconds=60.0)
        spec = self.spec()
        assert billing.cost(spec, 1.0) == pytest.approx(
            spec.hourly_rate * 60 / 3600
        )

    def test_hourly_never_cheaper_than_per_second(self):
        hourly = HourlyBilling()
        per_second = PerSecondBilling(minimum_seconds=0.0)
        spec = self.spec()
        for seconds in (1.0, 100.0, 3599.0, 3600.0, 5000.0, 7200.5):
            assert hourly.cost(spec, seconds) >= per_second.cost(spec, seconds)

    def test_negative_usage_rejected(self):
        with pytest.raises(ValidationError):
            HourlyBilling().cost(self.spec(), -1.0)

    def test_nan_usage_rejected(self):
        with pytest.raises(ValidationError):
            HourlyBilling().cost(self.spec(), float("nan"))

    def test_cost_monotone_in_time(self):
        billing = HourlyBilling()
        spec = self.spec()
        costs = [billing.cost(spec, s) for s in (10, 100, 4000, 8000)]
        assert costs == sorted(costs)


class TestProvisioning:
    def test_provision_registers_datanodes(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 3, 2)
        namenode = provision(spec)
        assert all(namenode.has_datanode(name) for name in spec.node_names())

    def test_replication_capped_by_nodes(self):
        spec = ClusterSpec(get_instance_type("m1.small"), 2, 1)
        assert provision(spec, replication=3).replication == 2

    def test_capacity_from_catalog(self):
        spec = ClusterSpec(get_instance_type("m1.small"), 1, 1)
        namenode = provision(spec)
        namenode.create("/full", spec.instance_type.storage_bytes)
        with pytest.raises(ReplicationError):
            namenode.create("/one-more-byte", 1)
