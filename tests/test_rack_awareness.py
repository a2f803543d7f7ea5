"""Replica placement on a one-rack cluster, seen through the NameNode.

Every cluster the product provisions is a single rack, so placement keeps
the writer-local first replica and fills the replication factor from the
nodes of that one rack.
"""

from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode


def one_rack_namenode(nodes: int, replication: int = 3) -> NameNode:
    namenode = NameNode(replication=replication)
    for node in range(nodes):
        namenode.register_datanode(DataNode(f"r0n{node}", 10**9))
    return namenode


class TestRackPlacement:
    def test_first_replica_writer_local(self):
        namenode = one_rack_namenode(nodes=4)
        namenode.create("/a", 100, writer="r0n3")
        for info in namenode.block_infos("/a"):
            assert "r0n3" in info.replicas

    def test_single_rack_fallback(self):
        namenode = one_rack_namenode(nodes=4)
        namenode.create("/a", 100, writer="r0n0")
        for info in namenode.block_infos("/a"):
            assert info.replication == 3
            assert len(set(info.replicas)) == 3
