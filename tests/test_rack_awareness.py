"""Unit tests for rack-aware replica placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.provisioning import provision
from repro.errors import ValidationError
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import DefaultPlacement


def racked_namenode(racks: int, nodes_per_rack: int, replication: int = 3):
    namenode = NameNode(replication=replication)
    for rack in range(racks):
        for node in range(nodes_per_rack):
            namenode.register_datanode(
                DataNode(f"r{rack}n{node}", 10**9, rack=f"rack-{rack}")
            )
    return namenode


def rack_of(namenode, node_name):
    return next(node.rack for node in namenode.datanodes()
                if node.name == node_name)


class TestRackPlacement:
    def test_replicas_span_two_racks(self):
        namenode = racked_namenode(racks=3, nodes_per_rack=3)
        namenode.create("/a", 100, writer="r0n0")
        for info in namenode.block_infos("/a"):
            racks = {rack_of(namenode, name) for name in info.replicas}
            assert len(racks) >= 2

    def test_first_replica_writer_local(self):
        namenode = racked_namenode(racks=2, nodes_per_rack=2)
        namenode.create("/a", 100, writer="r1n1")
        assert "r1n1" in namenode.replica_nodes("/a")

    def test_third_replica_shares_second_rack(self):
        policy = DefaultPlacement()
        nodes = [DataNode(f"r{r}n{n}", 10**9, rack=f"rack-{r}")
                 for r in range(3) for n in range(3)]
        chosen = policy.choose(nodes, 100, 3, writer="r0n0")
        assert chosen[0].rack == "rack-0"
        assert chosen[1].rack != "rack-0"
        assert chosen[2].rack == chosen[1].rack
        assert chosen[2].name != chosen[1].name

    def test_single_rack_fallback(self):
        namenode = racked_namenode(racks=1, nodes_per_rack=4)
        namenode.create("/a", 100, writer="r0n0")
        for info in namenode.block_infos("/a"):
            assert info.replication == 3

    def test_two_nodes_one_per_rack(self):
        namenode = racked_namenode(racks=2, nodes_per_rack=1, replication=2)
        namenode.create("/a", 100)
        for info in namenode.block_infos("/a"):
            racks = {rack_of(namenode, name) for name in info.replicas}
            assert len(racks) == 2

    def test_replication_one_single_replica(self):
        namenode = racked_namenode(racks=2, nodes_per_rack=2, replication=1)
        namenode.create("/a", 100, writer="r0n0")
        for info in namenode.block_infos("/a"):
            assert info.replication == 1
            assert "r0n0" in info.replicas


class TestProvisionRacks:
    def test_racks_assigned_contiguously(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 6, 2)
        cluster = provision(spec, nodes_per_rack=2)
        racks = [node.rack for node in cluster.namenode.datanodes()]
        assert racks == ["rack-0", "rack-0", "rack-1", "rack-1",
                         "rack-2", "rack-2"]

    def test_default_single_rack(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 3, 2)
        cluster = provision(spec)
        assert {node.rack for node in cluster.namenode.datanodes()} \
            == {"default"}

    def test_invalid_nodes_per_rack(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 3, 2)
        with pytest.raises(ValidationError):
            provision(spec, nodes_per_rack=0)


@given(racks=st.integers(2, 4), nodes_per_rack=st.integers(1, 4),
       files=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_property_rack_spread_invariant(racks, nodes_per_rack, files):
    """With >= 2 racks and replication >= 2, every block spans >= 2 racks."""
    namenode = racked_namenode(racks, nodes_per_rack, replication=3)
    names = [node.name for node in namenode.datanodes()]
    for index in range(files):
        namenode.create(f"/f{index}", 100 + index,
                        writer=names[index % len(names)])
    for index in range(files):
        for info in namenode.block_infos(f"/f{index}"):
            block_racks = {rack_of(namenode, name)
                           for name in info.replicas}
            if info.replication >= 2:
                assert len(block_racks) >= 2
