"""Datanodes: per-node block storage with a capacity budget.

A datanode only stores and evicts replicas; which node receives a replica
is the namenode's decision (see :mod:`repro.hdfs.namenode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError, ValidationError
from repro.hdfs.blocks import BlockId


@dataclass
class DataNode:
    """One storage node.  ``name`` doubles as the cluster hostname."""

    name: str
    capacity_bytes: int
    _blocks: dict[BlockId, int] = field(default_factory=dict)
    _used: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("datanode name must be non-empty")
        if self.capacity_bytes <= 0:
            raise ValidationError(
                f"datanode capacity must be positive, got {self.capacity_bytes}"
            )

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def holds(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def block_ids(self) -> set[BlockId]:
        return set(self._blocks)

    def store(self, block_id: BlockId, size: int) -> None:
        """Accept a replica of ``block_id``; raises when out of space."""
        if self.holds(block_id):
            raise StorageError(
                f"datanode {self.name} already holds block {block_id.value}"
            )
        if size > self.free_bytes:
            raise StorageError(
                f"datanode {self.name} has {self.free_bytes} bytes free, "
                f"cannot store {size}-byte block {block_id.value}"
            )
        self._blocks[block_id] = size
        self._used += size

    def evict(self, block_id: BlockId) -> None:
        """Drop a replica (e.g. on file delete or rebalancing)."""
        try:
            size = self._blocks.pop(block_id)
        except KeyError:
            raise StorageError(
                f"datanode {self.name} does not hold block {block_id.value}"
            ) from None
        self._used -= size
