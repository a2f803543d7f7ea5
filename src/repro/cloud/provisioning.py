"""Provisioning: turn a :class:`ClusterSpec` into its simulated HDFS.

:func:`provision` builds the datanode fleet, one node per instance, and
registers it with a fresh namenode.  Cluster startup latency (instance
boot + Hadoop daemon start), which the paper's end-to-end times include,
is priced by the optimizer from :data:`DEFAULT_STARTUP_SECONDS`.
"""

from __future__ import annotations

from repro.cloud.instances import ClusterSpec
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode

#: Seconds from "provision" to "cluster usable": VM boot + daemon start.
DEFAULT_STARTUP_SECONDS = 90.0


def provision(spec: ClusterSpec, replication: int = 3,
              input_files: dict[str, int] | None = None) -> NameNode:
    """A namenode over one datanode per instance, capacity from the catalog.

    Replication is capped at the node count.  ``input_files`` (path ->
    bytes) are written round-robin in path order, each with a different
    node as its writer, so every node holds some blocks -- the layout a
    prior ingest job would leave behind.
    """
    namenode = NameNode(replication=min(replication, spec.num_nodes))
    names = spec.node_names()
    for name in names:
        namenode.register_datanode(
            DataNode(name, capacity_bytes=spec.instance_type.storage_bytes))
    for index, (path, size) in enumerate(sorted((input_files or {}).items())):
        namenode.create(path, size, writer=names[index % len(names)])
    return namenode
