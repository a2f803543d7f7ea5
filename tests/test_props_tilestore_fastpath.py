"""Property tests: the TileStore fast path is invisible except for speed.

Two invariants, fuzzed over random tiles and every registered codec:

1. **Round-trip equality** — a fast-path read (resident tile) and a codec
   read (decode the at-rest blob) return equal tiles.  Exact equality for
   lossless codecs; for lossy codecs the two paths must *still* agree
   bit for bit, because the store pins the decoded tile, never the
   original.
2. **Accounting invariance** — ``tile_bytes``/``matrix_bytes`` and the
   namenode's usage numbers are identical whether the fast path is on or
   off: the cost model must not be able to observe the cache.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.matrix.compression import available_codecs
from repro.matrix.tile import Tile, TileId, maybe_sparsify

CODEC_NAMES = sorted(available_codecs())


def make_store(codec, cache=True):
    namenode = NameNode(replication=2)
    for index in range(3):
        namenode.register_datanode(DataNode(f"node-{index}", 10**9))
    return TileStore(namenode, codec=codec, cache=cache)


@st.composite
def tiles(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=12))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((rows, cols)) * 4.0
    if density < 1.0:
        dense *= rng.random((rows, cols)) < density
    tile_id = TileId("P", draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return Tile(tile_id, maybe_sparsify(dense))


def as_dense(tile):
    return tile.data.toarray() if tile.is_sparse else np.asarray(tile.data)


@settings(max_examples=60, deadline=None)
@given(tile=tiles(), codec=st.sampled_from(CODEC_NAMES))
def test_fastpath_read_equals_codec_read(tile, codec):
    store = make_store(codec)
    store.put(tile)
    fast = store.get(tile.tile_id)
    slow = store.read_through_codec(tile.tile_id)
    assert fast.is_sparse == slow.is_sparse
    assert np.array_equal(as_dense(fast), as_dense(slow))


@settings(max_examples=40, deadline=None)
@given(tile=tiles(), codec=st.sampled_from(CODEC_NAMES))
def test_cold_read_equals_fastpath_read(tile, codec):
    """A cache-disabled store (always cold) agrees with a cached one."""
    cached = make_store(codec)
    cold = make_store(codec, cache=False)
    cached.put(tile)
    cold.put(tile)
    assert np.array_equal(as_dense(cached.get(tile.tile_id)),
                          as_dense(cold.get(tile.tile_id)))


@settings(max_examples=40, deadline=None)
@given(tile=tiles(), codec=st.sampled_from([None] + CODEC_NAMES))
def test_accounting_unchanged_by_fastpath(tile, codec):
    """Byte accounting is a function of the tile, not of the read path."""
    reference, cold = make_store(codec), make_store(codec, cache=False)
    for store in (reference, cold):
        store.put(tile)
        store.get(tile.tile_id)
    assert reference.tile_bytes(tile.tile_id) == tile.nbytes()
    assert cold.tile_bytes(tile.tile_id) \
        == reference.tile_bytes(tile.tile_id)
    assert cold.matrix_bytes("P") == reference.matrix_bytes("P")
    assert cold.namenode.total_used_bytes() \
        == reference.namenode.total_used_bytes()


@settings(max_examples=30, deadline=None)
@given(tile=tiles(), codec=st.sampled_from(CODEC_NAMES))
def test_eviction_falls_back_to_codec(tile, codec):
    """After drop_resident, reads decode but still return equal data."""
    store = make_store(codec)
    store.put(tile)
    warm = as_dense(store.get(tile.tile_id))
    assert store.drop_resident() == 1
    decodes_before = store.codec_decodes
    cold = as_dense(store.get(tile.tile_id))
    assert store.codec_decodes == decodes_before + 1
    assert np.array_equal(warm, cold)
