"""Unit tests for the simulated HDFS: blocks, datanodes, placement, namenode."""

import pytest

from repro.errors import (
    FileExistsInHDFSError,
    FileNotFoundInHDFSError,
    ReplicationError,
    StorageError,
    ValidationError,
)
from repro.hdfs.blocks import BlockId, BlockInfo, split_into_block_sizes
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode


def make_namenode(nodes: int = 4, replication: int = 3,
                  capacity: int = 10**9, block_size: int = 64 * 2**20):
    namenode = NameNode(block_size=block_size, replication=replication)
    for index in range(nodes):
        namenode.register_datanode(DataNode(f"node-{index}", capacity))
    return namenode


class TestBlocks:
    def test_split_exact(self):
        assert split_into_block_sizes(128, 64) == [64, 64]

    def test_split_remainder(self):
        assert split_into_block_sizes(130, 64) == [64, 64, 2]

    def test_split_small_file(self):
        assert split_into_block_sizes(10, 64) == [10]

    def test_split_empty_file(self):
        assert split_into_block_sizes(0, 64) == [0]

    def test_split_negative_rejected(self):
        with pytest.raises(ValidationError):
            split_into_block_sizes(-1, 64)

    def test_block_id_validation(self):
        with pytest.raises(ValidationError):
            BlockId(-1)

    def test_block_info_replication_count(self):
        info = BlockInfo(BlockId(0), 100, replicas={"a", "b"})
        assert info.replication == 2


class TestDataNode:
    def test_store_and_capacity(self):
        node = DataNode("n", 1000)
        node.store(BlockId(0), 400)
        assert node.used_bytes == 400
        assert node.free_bytes == 600

    def test_store_over_capacity_rejected(self):
        node = DataNode("n", 100)
        with pytest.raises(StorageError):
            node.store(BlockId(0), 200)

    def test_duplicate_store_rejected(self):
        node = DataNode("n", 1000)
        node.store(BlockId(0), 10)
        with pytest.raises(StorageError):
            node.store(BlockId(0), 10)

    def test_evict_frees_space(self):
        node = DataNode("n", 1000)
        node.store(BlockId(0), 400)
        node.evict(BlockId(0))
        assert node.used_bytes == 0
        assert not node.holds(BlockId(0))

    def test_evict_missing_rejected(self):
        node = DataNode("n", 1000)
        with pytest.raises(StorageError):
            node.evict(BlockId(7))

    def test_validation(self):
        with pytest.raises(ValidationError):
            DataNode("", 100)
        with pytest.raises(ValidationError):
            DataNode("n", 0)


def place(nodes, size, replication, writer=None):
    """Replica holders of one new ``size``-byte block over ``nodes``."""
    namenode = NameNode(replication=replication)
    for node in nodes:
        namenode.register_datanode(node)
    namenode.create("/f", size, writer=writer)
    return {name for info in namenode.block_infos("/f")
            for name in info.replicas}


class TestPlacement:
    def test_writer_local_first_replica(self):
        nodes = [DataNode(f"n{i}", 1000) for i in range(4)]
        # The writer's node, then the least loaded by name.
        assert place(nodes, 100, 3, writer="n2") == {"n2", "n0", "n1"}

    def test_replication_one_is_the_writer(self):
        nodes = [DataNode(f"n{i}", 1000) for i in range(4)]
        assert place(nodes, 100, 1, writer="n3") == {"n3"}

    def test_distinct_nodes(self):
        nodes = [DataNode(f"n{i}", 1000) for i in range(4)]
        assert len(place(nodes, 100, 3)) == 3

    def test_prefers_least_loaded(self):
        nodes = [DataNode(f"n{i}", 1000) for i in range(3)]
        nodes[0].store(BlockId(99), 500)
        assert place(nodes, 100, 1) == {"n1"}

    def test_replication_capped_by_capacity(self):
        nodes = [DataNode("n0", 1000), DataNode("n1", 50)]
        assert place(nodes, 100, 3) == {"n0"}

    def test_no_space_anywhere(self):
        nodes = [DataNode("n0", 10)]
        with pytest.raises(ReplicationError):
            place(nodes, 100, 1)


class TestNameNode:
    def test_create_and_read_payload(self):
        namenode = make_namenode()
        namenode.create("/a", 100, payload={"hello": 1})
        assert namenode.read("/a") == {"hello": 1}

    def test_create_duplicate_rejected(self):
        namenode = make_namenode()
        namenode.create("/a", 100)
        with pytest.raises(FileExistsInHDFSError):
            namenode.create("/a", 100)

    def test_create_without_datanodes_rejected(self):
        namenode = NameNode()
        with pytest.raises(ReplicationError):
            namenode.create("/a", 100)

    def test_empty_path_rejected(self):
        namenode = make_namenode()
        with pytest.raises(ValidationError):
            namenode.create("", 100)

    def test_read_missing_raises(self):
        namenode = make_namenode()
        with pytest.raises(FileNotFoundInHDFSError):
            namenode.read("/missing")

    def test_file_size(self):
        namenode = make_namenode()
        namenode.create("/a", 12345)
        assert namenode.file_size("/a") == 12345

    def test_multi_block_file(self):
        namenode = make_namenode(block_size=100)
        entry = namenode.create("/big", 250)
        assert len(entry.blocks) == 3
        assert namenode.file_size("/big") == 250

    def test_replication_factor(self):
        namenode = make_namenode(nodes=5, replication=3)
        namenode.create("/a", 100)
        for info in namenode.block_infos("/a"):
            assert info.replication == 3

    def test_replication_capped_by_cluster_size(self):
        namenode = make_namenode(nodes=2, replication=3)
        namenode.create("/a", 100)
        for info in namenode.block_infos("/a"):
            assert info.replication == 2

    def test_replicas_on_distinct_nodes(self):
        namenode = make_namenode(nodes=5)
        namenode.create("/a", 100)
        for info in namenode.block_infos("/a"):
            assert len(info.replicas) == len(set(info.replicas))

    def test_delete_releases_capacity(self):
        namenode = make_namenode()
        namenode.create("/a", 1000)
        assert namenode.total_used_bytes() == 3000
        namenode.delete("/a")
        assert namenode.total_used_bytes() == 0
        assert not namenode.exists("/a")

    def test_delete_missing_raises(self):
        namenode = make_namenode()
        with pytest.raises(FileNotFoundInHDFSError):
            namenode.delete("/missing")

    def test_list_files_prefix(self):
        namenode = make_namenode()
        namenode.create("/m/A/t0", 10)
        namenode.create("/m/A/t1", 10)
        namenode.create("/m/B/t0", 10)
        assert namenode.list_files("/m/A/") == ["/m/A/t0", "/m/A/t1"]

    def test_replica_nodes_and_locality(self):
        namenode = make_namenode(nodes=4, replication=2)
        namenode.create("/a", 100, writer="node-1")
        nodes = namenode.replica_nodes("/a")
        assert "node-1" in nodes
        assert all("node-1" in info.replicas
                   for info in namenode.block_infos("/a"))

    def test_writer_locality_respected(self):
        namenode = make_namenode(nodes=4)
        namenode.create("/a", 50, writer="node-3")
        assert "node-3" in namenode.replica_nodes("/a")

    def test_decommission_rereplicates(self):
        namenode = make_namenode(nodes=4, replication=2)
        namenode.create("/a", 100, writer="node-0")
        namenode.decommission("node-0")
        infos = namenode.block_infos("/a")
        for info in infos:
            assert info.replication == 2
            assert "node-0" not in info.replicas

    def test_decommission_unknown_node(self):
        namenode = make_namenode()
        with pytest.raises(ValidationError):
            namenode.decommission("nope")

    def test_duplicate_datanode_rejected(self):
        namenode = make_namenode()
        with pytest.raises(ValidationError):
            namenode.register_datanode(DataNode("node-0", 100))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            NameNode(block_size=0)
        with pytest.raises(ValidationError):
            NameNode(replication=0)


class TestDecommissionAndUnderReplication:
    """Node loss at the namenode: re-replication billing, graceful
    degradation, and opportunistic healing."""

    def test_decommission_rereplicates_and_returns_bytes(self):
        namenode = make_namenode(nodes=4, replication=2)
        namenode.create("/a", 150 * 2**20, writer="node-0")
        victim = sorted(namenode.replica_nodes("/a"))[0]
        total = sum(info.size for info in namenode.block_infos("/a")
                    if victim in info.replicas)
        copied = namenode.decommission(victim)
        assert copied == total
        assert not namenode.has_datanode(victim)
        assert namenode.under_replicated() == []
        for info in namenode.block_infos("/a"):
            assert info.replication == 2
            assert victim not in info.replicas

    def test_decommission_unknown_node_rejected(self):
        namenode = make_namenode()
        with pytest.raises(ValidationError):
            namenode.decommission("node-99")

    def test_losing_last_replica_still_raises(self):
        namenode = NameNode(replication=1)
        namenode.register_datanode(DataNode("only", 10**9))
        namenode.create("/a", 10 * 2**20)
        with pytest.raises(ReplicationError, match="last replica"):
            namenode.decommission("only")

    def test_capacity_shortfall_recorded_not_raised(self):
        namenode = NameNode(replication=2)
        namenode.register_datanode(DataNode("node-0", 10**9))
        namenode.register_datanode(DataNode("node-1", 10**9))
        namenode.register_datanode(DataNode("node-2", 1))  # no room
        namenode.create("/a", 100 * 2**20, writer="node-0")
        copied = namenode.decommission("node-0")
        assert copied == 0  # nowhere to copy to
        under = namenode.under_replicated()
        assert under
        assert all(info.replication == 1 for info in under)

    def test_registering_capacity_heals_under_replication(self):
        namenode = NameNode(replication=2)
        namenode.register_datanode(DataNode("node-0", 10**9))
        namenode.register_datanode(DataNode("node-1", 10**9))
        namenode.register_datanode(DataNode("node-2", 1))  # no room
        namenode.create("/a", 100 * 2**20, writer="node-0")
        namenode.decommission("node-0")
        assert namenode.under_replicated()
        namenode.register_datanode(DataNode("node-3", 10**9))
        assert namenode.under_replicated() == []
        for info in namenode.block_infos("/a"):
            assert info.replication == 2

    def test_explicit_heal_reports_bytes(self):
        namenode = NameNode(replication=2)
        namenode.register_datanode(DataNode("node-0", 10**9))
        namenode.register_datanode(DataNode("node-1", 10**9))
        namenode.register_datanode(DataNode("node-2", 1))  # no room
        namenode.create("/a", 100 * 2**20, writer="node-0")
        namenode.decommission("node-0")
        assert namenode.heal() == 0  # still no spare capacity
        assert namenode.under_replicated()
        namenode.register_datanode(DataNode("node-4", 10**9))
        assert namenode.under_replicated() == []
        for info in namenode.block_infos("/a"):
            assert info.replication == 2

    def test_create_short_placement_is_under_replicated(self):
        namenode = NameNode(replication=3)
        namenode.register_datanode(DataNode("node-0", 10**9))
        namenode.create("/a", 10 * 2**20)
        # Only one node exists: target adapts, so nothing is pending...
        assert namenode.under_replicated() == []
        namenode_small = NameNode(replication=2)
        namenode_small.register_datanode(DataNode("big", 10**9))
        namenode_small.register_datanode(DataNode("tiny", 1))
        namenode_small.create("/b", 10 * 2**20, writer="big")
        # ...but a reachable target missed for lack of capacity is pending.
        assert namenode_small.under_replicated()

    def test_delete_clears_pending_blocks(self):
        namenode = NameNode(replication=2)
        namenode.register_datanode(DataNode("node-0", 10**9))
        namenode.register_datanode(DataNode("node-1", 10**9))
        namenode.register_datanode(DataNode("node-2", 1))  # no room
        namenode.create("/a", 100 * 2**20, writer="node-0")
        namenode.decommission("node-0")
        assert namenode.under_replicated()
        namenode.delete("/a")
        assert namenode.under_replicated() == []
