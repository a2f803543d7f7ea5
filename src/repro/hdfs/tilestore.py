"""TileStore: matrices as HDFS directories of tile files.

Cumulon stores each matrix as an HDFS directory with one file per tile.  A
:class:`TileStore` is a :class:`repro.matrix.tiled.TileBacking` whose payloads
live in the simulated namenode, so the scheduler can ask "which node holds
this tile?" and the cost model can ask "how many bytes does this job read?".

Two storage modes:

* **Object mode** (``codec=None``, the historical default): the live
  :class:`~repro.matrix.tile.Tile` is the namenode payload; reads hand the
  same object back.
* **Codec-at-rest mode** (``codec="zlib1"`` etc.): the namenode holds an
  :class:`~repro.matrix.compression.EncodedTile` blob — tiles are compressed
  at rest like the 2013 system's — and reads must decode.

Codec mode pairs with the **resident fast path**: every ``put`` write-throughs
the decoded tile into a resident table, and ``get`` serves locally-resident
tiles from it without touching the codec.  Only a
genuinely cold read — a tile this process never wrote or already evicted —
pays the decode.  :meth:`read_through_codec` deliberately bypasses the fast
path so tests and audits can prove both paths return equal tiles.

Metrics tell the two paths apart: ``tilestore.fastpath_hits`` counts reads
the fast path absorbed, ``tilestore.codec_decodes``/``codec_encodes`` count
real codec work (also mirrored on :attr:`codec_decodes`/:attr:`codec_encodes`
for registry-free tests).  The namenode-side accounting — file sizes, block
placement, ``tile_bytes``/``matrix_bytes`` — is identical in every mode, so
nothing downstream of the cost model can tell the fast path is there.
"""

from __future__ import annotations

from repro.errors import FileNotFoundInHDFSError, StorageError, ValidationError
from repro.hdfs.namenode import NameNode
from repro.matrix.compression import (
    Codec,
    EncodedTile,
    available_codecs,
    decode_tile,
    encode_tile,
)
from repro.matrix.tile import Tile, TileId
from repro.matrix.tiled import TileBacking
from repro.observability.metrics import NULL_METRICS, MetricsRegistry


def _resolve_codec(codec: "str | Codec | None") -> Codec | None:
    if codec is None or isinstance(codec, Codec):
        return codec
    try:
        return available_codecs()[codec]
    except KeyError:
        raise ValidationError(
            f"unknown codec {codec!r}; expected one of "
            f"{sorted(available_codecs())}") from None


class TileStore(TileBacking):
    """Tile backing that persists tiles as files in a (simulated) HDFS.

    With a recording :class:`MetricsRegistry`, the store counts tile hits
    and misses, HDFS block reads, and bytes moved — the storage-side
    telemetry behind locality and caching experiments.

    ``codec`` selects codec-at-rest storage (see module docstring);
    ``cache`` (default on) enables the resident fast path in codec mode.
    """

    def __init__(self, namenode: NameNode, root: str = "/matrices",
                 metrics: MetricsRegistry = NULL_METRICS,
                 codec: "str | Codec | None" = None,
                 cache: bool = True):
        self.namenode = namenode
        self.root = root.rstrip("/")
        self.metrics = metrics
        self.codec = _resolve_codec(codec)
        self.cache_enabled = cache
        self._resident: dict[str, Tile] = {}
        #: Codec invocation counters (also mirrored into ``metrics``).
        self.codec_encodes = 0
        self.codec_decodes = 0

    def path_for(self, tile_id: TileId) -> str:
        return f"{self.root}/{tile_id.key()}"

    # -- codec + fast-path internals ---------------------------------------------

    def _encode(self, tile: Tile) -> EncodedTile:
        self.codec_encodes += 1
        if self.metrics.enabled:
            self.metrics.inc("tilestore.codec_encodes")
        return encode_tile(tile, self.codec)

    def _decode(self, encoded: EncodedTile, tile_id: TileId) -> Tile:
        self.codec_decodes += 1
        if self.metrics.enabled:
            self.metrics.inc("tilestore.codec_decodes")
        return decode_tile(encoded, self.codec, tile_id)

    def _make_resident(self, path: str, tile: Tile) -> None:
        """Write-through the fast path: pin ``tile`` for same-process reads."""
        if self.cache_enabled:
            self._resident[path] = tile

    def _evict(self, path: str) -> None:
        self._resident.pop(path, None)

    # -- TileBacking interface ---------------------------------------------------

    def get(self, tile_id: TileId) -> Tile:
        path = self.path_for(tile_id)
        resident = self._resident.get(path)
        if resident is not None:
            if self.metrics.enabled:
                self.metrics.inc("tilestore.fastpath_hits")
                self.metrics.inc("tilestore.hits")
                self.metrics.inc("tilestore.bytes_read", resident.nbytes())
                self.metrics.inc("tilestore.block_reads",
                                 len(self.namenode.block_infos(path)))
            return resident
        try:
            payload = self.namenode.read(path)
        except FileNotFoundInHDFSError:
            if self.metrics.enabled:
                self.metrics.inc("tilestore.misses")
            raise
        if isinstance(payload, EncodedTile):
            tile = self._decode(payload, tile_id)
            self._make_resident(path, tile)
            payload = self._resident.get(path, tile)
        if not isinstance(payload, Tile):
            if self.metrics.enabled:
                self.metrics.inc("tilestore.misses")
            raise StorageError(f"path {path} does not hold a tile")
        if self.metrics.enabled:
            self.metrics.inc("tilestore.hits")
            self.metrics.inc("tilestore.bytes_read", payload.nbytes())
            self.metrics.inc("tilestore.block_reads",
                             len(self.namenode.block_infos(path)))
        return payload

    def read_through_codec(self, tile_id: TileId) -> Tile:
        """Read a tile the slow way: decode the at-rest payload, bypassing
        the resident fast path.  In object mode this is a plain read.  Used
        to verify the fast path returns exactly what the codec would."""
        path = self.path_for(tile_id)
        payload = self.namenode.read(path)
        if isinstance(payload, EncodedTile):
            return self._decode(payload, tile_id)
        if not isinstance(payload, Tile):
            raise StorageError(f"path {path} does not hold a tile")
        return payload

    def put(self, tile: Tile, writer: str | None = None) -> None:
        """Write a tile, replacing any previous version (overwrite-on-put)."""
        path = self.path_for(tile.tile_id)
        self._evict(path)
        if self.namenode.exists(path):
            self.namenode.delete(path)
        if self.codec is not None:
            encoded = self._encode(tile)
            self.namenode.create(path, tile.nbytes(), payload=encoded,
                                 writer=writer)
            # Lossy codecs must pin what a decode would return, not the
            # original — the fast path may never diverge from the blob.
            resident = tile if self.codec.lossless \
                else self._decode(encoded, tile.tile_id)
            self._make_resident(path, resident)
        else:
            self.namenode.create(path, tile.nbytes(), payload=tile,
                                 writer=writer)
        if self.metrics.enabled:
            self.metrics.inc("tilestore.puts")
            self.metrics.inc("tilestore.bytes_written", tile.nbytes())

    def put_virtual(self, tile_id: TileId, nbytes: int,
                    writer: str | None = None) -> None:
        """Create a tile *file* (metadata + placement) without a payload.

        Used by the optimizer's simulations: jobs over terabyte-scale virtual
        matrices need real block placement for locality decisions but no
        actual numbers.
        """
        path = self.path_for(tile_id)
        self._evict(path)
        if self.namenode.exists(path):
            self.namenode.delete(path)
        self.namenode.create(path, nbytes, payload=None, writer=writer)
        if self.metrics.enabled:
            self.metrics.inc("tilestore.virtual_puts")

    # -- storage-aware queries ---------------------------------------------------

    def exists(self, tile_id: TileId) -> bool:
        return self.namenode.exists(self.path_for(tile_id))

    def tile_bytes(self, tile_id: TileId) -> int:
        return self.namenode.file_size(self.path_for(tile_id))

    def replica_nodes(self, tile_id: TileId) -> set[str]:
        """Datanodes holding a full replica of this tile."""
        path = self.path_for(tile_id)
        if self.metrics.enabled:
            self.metrics.inc("tilestore.replica_queries")
        try:
            infos = self.namenode.block_infos(path)
        except FileNotFoundInHDFSError:
            return set()
        if not infos:
            return set()
        nodes = set(infos[0].replicas)
        for info in infos[1:]:
            nodes &= info.replicas
        return nodes

    def matrix_bytes(self, matrix_name: str) -> int:
        """Total stored bytes across every tile of a matrix."""
        prefix = f"{self.root}/{matrix_name}/"
        return sum(self.namenode.file_size(path)
                   for path in self.namenode.list_files(prefix))

    # -- fast-path lifecycle -----------------------------------------------------

    def drop_resident(self) -> int:
        """Evict every resident tile (subsequent reads pay the codec);
        returns how many were dropped."""
        count = len(self._resident)
        self._resident.clear()
        return count

    def close(self) -> None:
        """Drop resident tiles."""
        self.drop_resident()
