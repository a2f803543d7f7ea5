"""Unit tests for the HDFS-backed tile store."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import Tile, TileId
from repro.matrix.tiled import TiledMatrix


@pytest.fixture
def store():
    namenode = NameNode(replication=2)
    for index in range(3):
        namenode.register_datanode(DataNode(f"node-{index}", 10**9))
    return TileStore(namenode)


class TestTileStore:
    def test_put_get_roundtrip(self, store):
        tile = Tile(TileId("A", 0, 0), np.arange(4.0).reshape(2, 2))
        store.put(tile)
        fetched = store.get(TileId("A", 0, 0))
        np.testing.assert_array_equal(fetched.to_dense(), tile.to_dense())

    def test_overwrite_on_put(self, store):
        store.put(Tile(TileId("A", 0, 0), np.zeros((2, 2))))
        store.put(Tile(TileId("A", 0, 0), np.ones((2, 2))))
        np.testing.assert_array_equal(
            store.get(TileId("A", 0, 0)).to_dense(), np.ones((2, 2))
        )

    def test_exists(self, store):
        assert not store.exists(TileId("A", 0, 0))
        store.put(Tile(TileId("A", 0, 0), np.zeros((2, 2))))
        assert store.exists(TileId("A", 0, 0))

    def test_tile_bytes_matches_payload(self, store):
        tile = Tile(TileId("A", 0, 0), np.ones((4, 4)))
        store.put(tile)
        assert store.tile_bytes(TileId("A", 0, 0)) == tile.nbytes()

    def test_replica_nodes(self, store):
        store.put(Tile(TileId("A", 0, 0), np.ones((2, 2))), writer="node-1")
        nodes = store.replica_nodes(TileId("A", 0, 0))
        assert "node-1" in nodes
        assert len(nodes) == 2

    def test_replica_nodes_missing_tile(self, store):
        assert store.replica_nodes(TileId("Z", 0, 0)) == set()

    def test_virtual_tile_has_size_but_no_payload(self, store):
        store.put_virtual(TileId("V", 0, 0), 4096, writer="node-0")
        assert store.tile_bytes(TileId("V", 0, 0)) == 4096
        with pytest.raises(StorageError):
            store.get(TileId("V", 0, 0))

    def test_matrix_bytes(self, store):
        matrix = TiledMatrix.from_numpy("M", np.ones((6, 6)), 3, store)
        assert store.matrix_bytes("M") == matrix.nbytes()
        assert store.matrix_bytes("absent") == 0

    def test_tiled_matrix_backed_by_store_roundtrip(self, store):
        data = np.arange(36.0).reshape(6, 6)
        TiledMatrix.from_numpy("M", data, 3, store)
        again = TiledMatrix("M", TiledMatrix.from_numpy(
            "tmp", data, 3).grid, store)
        np.testing.assert_array_equal(again.to_numpy(), data)

    def test_storage_accounted_in_namenode(self, store):
        TiledMatrix.from_numpy("M", np.ones((4, 4)), 2, store)
        # replication 2: every byte stored twice across datanodes
        assert store.namenode.total_used_bytes() == 2 * store.matrix_bytes("M")


class TestCodecFastPath:
    """Regression: reads used to pay the codec on *every* ``get`` — the
    write-through resident table must absorb repeat reads entirely."""

    @staticmethod
    def make_store(codec="zlib1", **kwargs):
        namenode = NameNode(replication=2)
        for index in range(3):
            namenode.register_datanode(DataNode(f"node-{index}", 10**9))
        return TileStore(namenode, codec=codec, **kwargs)

    def test_repeat_reads_do_not_redecode(self):
        store = self.make_store()
        tile = Tile(TileId("A", 0, 0), np.arange(16.0).reshape(4, 4))
        store.put(tile)
        assert store.codec_encodes == 1
        for __ in range(10):
            store.get(TileId("A", 0, 0))
        # The put write-throughs the resident table; no read ever decodes.
        assert store.codec_decodes == 0

    def test_cold_read_decodes_exactly_once(self):
        store = self.make_store()
        tile = Tile(TileId("A", 0, 0), np.arange(16.0).reshape(4, 4))
        store.put(tile)
        store.drop_resident()
        for __ in range(5):
            store.get(TileId("A", 0, 0))
        # First (cold) read decodes and re-pins; the rest are fast-path.
        assert store.codec_decodes == 1

    def test_cache_disabled_decodes_every_read(self):
        store = self.make_store(cache=False)
        tile = Tile(TileId("A", 0, 0), np.arange(16.0).reshape(4, 4))
        store.put(tile)
        for __ in range(5):
            store.get(TileId("A", 0, 0))
        assert store.codec_decodes == 5

    def test_overwrite_invalidates_resident_tile(self):
        store = self.make_store()
        store.put(Tile(TileId("A", 0, 0), np.zeros((2, 2))))
        store.put(Tile(TileId("A", 0, 0), np.ones((2, 2))))
        np.testing.assert_array_equal(
            store.get(TileId("A", 0, 0)).to_dense(), np.ones((2, 2)))

    def test_lossy_codec_fastpath_matches_blob(self):
        """The resident tile for a lossy codec is the *decoded* tile, so
        warm and cold reads agree bit for bit."""
        store = self.make_store(codec="q8")
        rng = np.random.default_rng(5)
        store.put(Tile(TileId("A", 0, 0), rng.random((6, 6))))
        warm = store.get(TileId("A", 0, 0)).to_dense()
        cold = store.read_through_codec(TileId("A", 0, 0)).to_dense()
        np.testing.assert_array_equal(warm, cold)

    def test_fastpath_metrics(self):
        from repro.observability.metrics import MetricsRegistry
        registry = MetricsRegistry()
        namenode = NameNode(replication=2)
        for index in range(3):
            namenode.register_datanode(DataNode(f"node-{index}", 10**9))
        store = TileStore(namenode, codec="zlib1", metrics=registry)
        tile = Tile(TileId("A", 0, 0), np.ones((4, 4)))
        store.put(tile)
        store.get(TileId("A", 0, 0))
        store.get(TileId("A", 0, 0))
        assert registry.counter("tilestore.fastpath_hits").value == 2
        assert registry.counter("tilestore.hits").value == 2
        assert registry.counter("tilestore.codec_encodes").value == 1
        assert registry.counter("tilestore.bytes_read").value \
            == 2 * tile.nbytes()

    def test_unknown_codec_rejected(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError, match="unknown codec"):
            self.make_store(codec="lz77")
