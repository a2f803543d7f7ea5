"""The namenode: file namespace, block map, and replica management.

This is a metadata-faithful simulation of HDFS: files map to blocks, blocks
map to replica locations, and every byte of capacity is accounted for on the
datanodes.  Payload *contents* are stored in a side table keyed by path
(rather than shipped around), which keeps the simulation cheap while letting
read-after-write tests verify real data round-trips.

Placement is one rule, HDFS's default on a single rack: a new block's
first replica goes to the writer's node when it has room, and every other
replica to the least-loaded node with room, ties broken by name.  Rack
tiers are not modelled (see ``docs/cost-model.md``).

Like real HDFS, replication is *eventually* restored: losing a datanode
never fails the namespace.  Blocks that cannot reach their target
replication (no spare capacity, too few nodes) are tracked as
under-replicated and healed opportunistically when capacity returns —
a new datanode registers, or a delete frees space.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field

from repro.errors import (
    FileExistsInHDFSError,
    FileNotFoundInHDFSError,
    ReplicationError,
    ValidationError,
)
from repro.hdfs.blocks import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_REPLICATION,
    BlockId,
    BlockInfo,
    split_into_block_sizes,
)
from repro.hdfs.datanode import DataNode


@dataclass
class FileEntry:
    """Namespace entry: ordered blocks plus the (simulated) payload."""

    path: str
    blocks: list[BlockId] = field(default_factory=list)
    payload: object = None


class NameNode:
    """Single-namenode HDFS metadata service."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE,
                 replication: int = DEFAULT_REPLICATION):
        if block_size <= 0:
            raise ValidationError(f"block size must be positive, got {block_size}")
        if replication <= 0:
            raise ValidationError(f"replication must be positive, got {replication}")
        self.block_size = block_size
        self.replication = replication
        self._datanodes: dict[str, DataNode] = {}
        self._files: dict[str, FileEntry] = {}
        self._blocks: dict[BlockId, BlockInfo] = {}
        self._next_block = 0
        #: Blocks below target replication, awaiting capacity to heal.
        self._under_replicated: set[BlockId] = set()

    # -- cluster membership ---------------------------------------------------

    def register_datanode(self, node: DataNode) -> None:
        if node.name in self._datanodes:
            raise ValidationError(f"datanode {node.name!r} already registered")
        self._datanodes[node.name] = node
        if self._under_replicated:
            self.heal()

    def has_datanode(self, name: str) -> bool:
        return name in self._datanodes

    def decommission(self, name: str) -> int:
        """Remove a datanode, re-replicating its blocks elsewhere.

        Returns the number of bytes copied to restore replication (the
        traffic a simulator should bill).  Blocks that cannot be fully
        restored — no spare node with capacity — are recorded as
        under-replicated rather than raising; they heal opportunistically
        when capacity returns.  Losing the *last* replica of a block is
        still an error: the data is gone, not merely under-replicated.
        """
        try:
            node = self._datanodes.pop(name)
        except KeyError:
            raise ValidationError(f"unknown datanode {name!r}") from None
        copied = 0
        for block_id in sorted(node.block_ids(), key=lambda b: b.value):
            info = self._blocks[block_id]
            info.replicas.discard(name)
            node.evict(block_id)
            if not info.replicas:
                raise ReplicationError(
                    f"block {info.block_id.value} lost its last replica "
                    f"with datanode {name!r}"
                )
            copied += self._restore_replication(info)
        return copied

    def under_replicated(self) -> list[BlockInfo]:
        """Blocks currently below their target replication, by block id."""
        return [self._blocks[block_id]
                for block_id in sorted(self._under_replicated,
                                       key=lambda b: b.value)]

    def heal(self) -> int:
        """Try to restore replication of every under-replicated block.

        Returns the bytes copied.  Called automatically when a datanode
        registers; safe to call any time.
        """
        copied = 0
        for block_id in sorted(self._under_replicated,
                               key=lambda b: b.value):
            copied += self._restore_replication(self._blocks[block_id])
        return copied

    def _restore_replication(self, info: BlockInfo) -> int:
        """Copy ``info`` toward target replication; never raises on a
        capacity shortfall — the block is tracked as under-replicated
        instead.  Returns bytes copied."""
        target = min(self.replication, len(self._datanodes))
        copied = 0
        while info.replication < target:
            spare = self._placement(info.size, exclude=info.replicas)
            if not spare:
                self._under_replicated.add(info.block_id)
                return copied
            chosen = spare[0]
            chosen.store(info.block_id, info.size)
            info.replicas.add(chosen.name)
            copied += info.size
        self._under_replicated.discard(info.block_id)
        return copied

    def _placement(self, size: int, writer: str | None = None,
                   exclude: Container[str] = ()) -> list[DataNode]:
        """Datanodes with room for a ``size``-byte replica, best first:
        the ``writer``'s node, then least used bytes, then name."""
        return sorted(
            (node for node in self._datanodes.values()
             if node.free_bytes >= size and node.name not in exclude),
            key=lambda node: (node.name != writer, node.used_bytes,
                              node.name))

    # -- namespace operations ---------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(path for path in self._files if path.startswith(prefix))

    def create(self, path: str, size: int, payload: object = None,
               writer: str | None = None) -> FileEntry:
        """Create a file of ``size`` bytes, allocating and placing its blocks."""
        if not path:
            raise ValidationError("path must be non-empty")
        if self.exists(path):
            raise FileExistsInHDFSError(f"path already exists: {path}")
        if not self._datanodes:
            raise ReplicationError("no datanodes registered")
        entry = FileEntry(path=path, payload=payload)
        target = min(self.replication, len(self._datanodes))
        for chunk in split_into_block_sizes(size, self.block_size):
            block_id = BlockId(self._next_block)
            self._next_block += 1
            info = BlockInfo(block_id, chunk)
            nodes = self._placement(chunk, writer)[:target]
            if not nodes:
                raise ReplicationError(
                    f"no datanode has {chunk} free bytes for a new block")
            for node in nodes:
                node.store(block_id, chunk)
                info.replicas.add(node.name)
            if len(nodes) < target:
                self._under_replicated.add(block_id)
            self._blocks[block_id] = info
            entry.blocks.append(block_id)
        self._files[path] = entry
        return entry

    def delete(self, path: str) -> None:
        try:
            entry = self._files.pop(path)
        except KeyError:
            raise FileNotFoundInHDFSError(f"no such file: {path}") from None
        for block_id in entry.blocks:
            info = self._blocks.pop(block_id)
            self._under_replicated.discard(block_id)
            for holder in info.replicas:
                node = self._datanodes.get(holder)
                if node is not None:
                    node.evict(block_id)
        if self._under_replicated:
            self.heal()  # the freed capacity may unblock pending copies

    def read(self, path: str) -> object:
        """Return the payload stored at ``path``."""
        return self._entry(path).payload

    def file_size(self, path: str) -> int:
        entry = self._entry(path)
        return sum(self._blocks[block_id].size for block_id in entry.blocks)

    def block_infos(self, path: str) -> list[BlockInfo]:
        entry = self._entry(path)
        return [self._blocks[block_id] for block_id in entry.blocks]

    def replica_nodes(self, path: str) -> set[str]:
        """Union of datanode names holding any block of the file."""
        nodes: set[str] = set()
        for info in self.block_infos(path):
            nodes |= info.replicas
        return nodes

    def total_used_bytes(self) -> int:
        return sum(node.used_bytes for node in self._datanodes.values())

    def _entry(self, path: str) -> FileEntry:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInHDFSError(f"no such file: {path}") from None
