"""The SIEF index store: append-only segments + flat offset index.

SIEF builds its index once and then only reads it, so one flat mmap
layout serves every query: the frozen labeling's CSR arrays plus one
record per failure case.  It is the only persisted form of the index.
``sief build`` writes it through the sharded build: each finished
shard's supplements append to a single segment file, the in-RAM shard
is dropped, and peak build memory becomes O(shard) instead of O(E).
Every other command opens it through
:meth:`~repro.core.index.SIEFIndex.load`, and ``sief serve`` serves it
demand-paged through :class:`~repro.core.lazy.PagedSIEFIndex`.  A store
with zero cases persists a labeling on its own.

A store is a directory ``<name>.siefseg/`` holding three files:

``labeling.npz``
    The frozen labeling's flat arrays (``vertex_at``/``offsets``/
    ``hubs``/``dists`` — the key names of the shared-memory build spec
    in :mod:`repro.core.shm`), saved uncompressed so :func:`_memmap_npz`
    maps them without copies.
``segments.bin``
    One record per failure case, appended in canonical edge order.  A
    record is seven little-endian ``int64`` header words ``(u, v,
    n_side_u, n_side_v, n_vertices, n_entries, disconnected)`` followed
    by ``side_u``/``side_v``/``vertices`` (``int64``), the rebased
    ``entry_offsets`` (``int64``, length ``n_vertices + 1``) and the
    concatenated ``ranks``/``dists`` (``int32``).  Every field is a
    multiple of 8 bytes, so records stay 8-aligned and all views are
    zero-copy slices of the mmap.
``toc.npz``
    The flat offset index: per-case byte offsets/lengths into
    ``segments.bin`` plus the sorted ``uint64`` edge keys
    (``u << 32 | v``) a query resolves with one ``searchsorted``.

:class:`SegmentStore` verifies the table of contents against the
segment file and the labeling, and every decoded record's ids, offsets
and distances against their ranges, raising
:class:`~repro.exceptions.StoreError` on any disagreement — corruption
that breaks the structure refuses to answer instead of crashing a query.
Flips that stay in range can still change answers; content checksums
are not part of the format yet.
"""

from __future__ import annotations

import os
import struct
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.affected import AffectedVertices
from repro.core.supplemental import FlatSupplement, SupplementalLabels
from repro.exceptions import FailureCaseNotIndexed, ReproError, StoreError
from repro.graph.graph import Graph, normalize_edge
from repro.labeling.label import Labeling
from repro.obs import hooks as _obs
from repro.order.ordering import VertexOrdering

Edge = Tuple[int, int]
PathLike = Union[str, Path]

SEGSTORE_FORMAT_VERSION = 1
"""Version stamped into ``toc.npz`` (checked on open)."""

STORE_SUFFIX = ".siefseg"
"""Directory suffix of every store (:class:`SegmentWriter` appends it)."""

LABELING_FILE = "labeling.npz"
SEGMENTS_FILE = "segments.bin"
TOC_FILE = "toc.npz"

_HEADER_WORDS = 7
_HEADER_BYTES = _HEADER_WORDS * 8

DEFAULT_SHARD_CASES = 4096
"""Default failure cases per build shard (~a few MB of supplements)."""


# ---------------------------------------------------------------------------
# Mapped supplement: SupplementalIndex duck type over one segment record
# ---------------------------------------------------------------------------


class MappedSupplement:
    """Read-only ``SI(u, v)`` view over one decoded segment record.

    Implements the surface :class:`~repro.core.query.SIEFQueryEngine`
    and ``SIEFIndex.__eq__`` touch — ``affected``, ``side_arrays``,
    ``get``, ``flat``, ``edge``, ``labels``/``iter_labels``,
    ``total_entries`` — without ever copying the side/rank/dist arrays:
    ``side_arrays()`` and ``flat()`` return views into the segment mmap.
    The affected-side tuples and the per-vertex ``labels`` dict are built
    lazily and cached; the batch query path never builds either.
    """

    __slots__ = (
        "_u", "_v", "_disc", "_side_u", "_side_v",
        "_vertices", "_entry_offsets", "_ranks", "_dists",
        "_affected", "_flat", "_labels", "search_expanded",
    )

    def __init__(
        self,
        u: int,
        v: int,
        disconnected: bool,
        side_u: np.ndarray,
        side_v: np.ndarray,
        vertices: np.ndarray,
        entry_offsets: np.ndarray,
        ranks: np.ndarray,
        dists: np.ndarray,
    ) -> None:
        self._u = u
        self._v = v
        self._disc = disconnected
        self._side_u = side_u
        self._side_v = side_v
        self._vertices = vertices
        self._entry_offsets = entry_offsets
        self._ranks = ranks
        self._dists = dists
        self._affected: Optional[AffectedVertices] = None
        self._flat: Optional[FlatSupplement] = None
        self._labels: Optional[Dict[int, SupplementalLabels]] = None
        self.search_expanded = 0

    # -- SupplementalIndex surface ----------------------------------------

    @property
    def edge(self) -> Tuple[int, int]:
        return (self._u, self._v)

    @property
    def affected(self) -> AffectedVertices:
        av = self._affected
        if av is None:
            av = AffectedVertices(
                u=self._u,
                v=self._v,
                side_u=tuple(int(x) for x in self._side_u),
                side_v=tuple(int(x) for x in self._side_v),
                disconnected=self._disc,
            )
            self._affected = av
        return av

    def side_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The record's int64 sides, as views (no ``affected`` build)."""
        return self._side_u, self._side_v

    def flat(self) -> FlatSupplement:
        flat = self._flat
        if flat is None:
            # The record's entry offsets already start at 0 (``_decode``
            # rejects any other record), so every array stays a view.
            flat = FlatSupplement(
                np.asarray(self._vertices, dtype=np.int64),
                np.asarray(self._entry_offsets, dtype=np.int64),
                self._ranks,
                self._dists,
            )
            self._flat = flat
        return flat

    def get(self, vertex: int) -> SupplementalLabels:
        flat = self.flat()
        pos = int(np.searchsorted(flat.vertices, vertex))
        if pos >= flat.vertices.size or flat.vertices[pos] != vertex:
            return _EMPTY
        lo, hi = int(flat.offsets[pos]), int(flat.offsets[pos + 1])
        return SupplementalLabels(flat.ranks[lo:hi], flat.dists[lo:hi])

    @property
    def labels(self) -> Dict[int, SupplementalLabels]:
        """Materialized per-vertex labels (built once, on first access)."""
        labels = self._labels
        if labels is None:
            flat = self.flat()
            labels = {}
            for i, vertex in enumerate(flat.vertices):
                lo, hi = int(flat.offsets[i]), int(flat.offsets[i + 1])
                labels[int(vertex)] = SupplementalLabels(
                    [int(r) for r in flat.ranks[lo:hi]],
                    [int(d) for d in flat.dists[lo:hi]],
                )
            self._labels = labels
        return labels

    def iter_labels(self) -> Iterator[Tuple[int, SupplementalLabels]]:
        labels = self.labels
        for vertex in sorted(labels):
            yield vertex, labels[vertex]

    def total_entries(self) -> int:
        return int(len(self._ranks))

    def __repr__(self) -> str:
        return (
            f"MappedSupplement(edge={self.edge}, "
            f"entries={self.total_entries()})"
        )


_EMPTY = SupplementalLabels([], [])


def _memmap_npz(path: Path) -> Dict[str, np.ndarray]:
    """Map every member of an *uncompressed* npz straight from the file.

    npz is a zip; stored (not deflated) members sit contiguously, so each
    array is a read-only :class:`numpy.memmap` at ``local header + npy
    header`` into the archive itself.  Compressed members raise
    :class:`StoreError` — the store's labeling must be re-written by
    :class:`SegmentWriter`.
    """
    out: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            if info.compress_type != zipfile.ZIP_STORED:
                raise StoreError(
                    f"npz member {info.filename!r} is compressed and cannot "
                    "be memory-mapped; re-write the store with SegmentWriter"
                )
            with zf.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(member)
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(member)
                    )
                else:  # pragma: no cover - numpy only writes 1.0/2.0
                    raise StoreError(
                        f"unsupported npy header version {version} "
                        f"in member {info.filename!r}"
                    )
                header_len = member.tell()
            if int(np.prod(shape)) == 0 or shape == ():
                # mmap cannot express zero-length (or 0-d) windows; these
                # arrays are bytes-sized, so a plain read loses nothing.
                with zf.open(info) as member:
                    out[name] = np.lib.format.read_array(member)
                continue
            # Absolute data offset: zip local file header (30 bytes +
            # name + extra) then the npy header we just parsed.
            with open(path, "rb") as fh:
                fh.seek(info.header_offset)
                lh = fh.read(30)
            if lh[:4] != b"PK\x03\x04":
                raise StoreError(
                    f"corrupt zip local header for {info.filename!r}"
                )
            name_len, extra_len = struct.unpack("<HH", lh[26:30])
            data_offset = (
                info.header_offset + 30 + name_len + extra_len + header_len
            )
            out[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=data_offset,
                shape=shape,
                order="F" if fortran else "C",
            )
    return out


# ---------------------------------------------------------------------------
# Segment records
# ---------------------------------------------------------------------------


def _edge_key(u: int, v: int) -> int:
    """Canonical ``uint64`` TOC key of a normalized edge."""
    return (u << 32) | v


def encode_case(edge: Edge, si) -> bytes:
    """Serialize one supplemental index to its segment record."""
    u, v = edge
    affected = si.affected
    flat = si.flat()
    vertices = np.ascontiguousarray(flat.vertices, dtype="<i8")
    offsets = np.ascontiguousarray(flat.offsets, dtype="<i8")
    if offsets.size:
        offsets = offsets - offsets[0]
    else:
        offsets = np.zeros(1, dtype="<i8")
    ranks = np.ascontiguousarray(flat.ranks, dtype="<i4")
    dists = np.ascontiguousarray(flat.dists, dtype="<i4")
    side_u = np.asarray(affected.side_u, dtype="<i8")
    side_v = np.asarray(affected.side_v, dtype="<i8")
    header = np.array(
        [
            u,
            v,
            len(side_u),
            len(side_v),
            len(vertices),
            len(ranks),
            1 if affected.disconnected else 0,
        ],
        dtype="<i8",
    )
    return b"".join(
        a.tobytes()
        for a in (header, side_u, side_v, vertices, offsets, ranks, dists)
    )


def _record_nbytes(
    n_side_u: int, n_side_v: int, n_vertices: int, n_entries: int
) -> int:
    return (
        _HEADER_BYTES
        + 8 * (n_side_u + n_side_v + n_vertices + n_vertices + 1)
        + 8 * n_entries  # int32 ranks + int32 dists
    )


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class SegmentWriter:
    """Builds a ``.siefseg`` store: labeling up front, cases appended.

    Cases must arrive in ascending canonical edge order (the sharded
    build's global edge sort guarantees this); the TOC is written by
    :meth:`finalize` (or context-manager exit).
    """

    def __init__(self, path: PathLike, labeling: Labeling) -> None:
        self.path = Path(path)
        if self.path.suffix != STORE_SUFFIX:
            self.path = self.path.with_name(self.path.name + STORE_SUFFIX)
        self.path.mkdir(parents=True, exist_ok=True)
        labeling.freeze()
        np.savez(
            str(self.path / LABELING_FILE),
            format_version=np.int64(SEGSTORE_FORMAT_VERSION),
            vertex_at=np.asarray(
                labeling.ordering.sequence(), dtype=np.int32
            ),
            offsets=np.asarray(labeling.offsets, dtype=np.int64),
            hubs=np.asarray(labeling.hubs_flat, dtype=np.int32),
            dists=np.asarray(labeling.dists_flat, dtype=np.int32),
        )
        self.num_vertices = labeling.num_vertices
        self._seg = open(self.path / SEGMENTS_FILE, "wb")
        self._pos = 0
        self._keys: List[int] = []
        self._edges: List[Edge] = []
        self._offsets: List[int] = []
        self._lengths: List[int] = []
        self.total_entries = 0
        self._finalized = False

    def append_case(self, edge: Edge, si) -> int:
        """Spill one supplement; returns the record's byte length."""
        key = normalize_edge(*edge)
        if self._keys and _edge_key(*key) <= self._keys[-1]:
            raise StoreError(
                f"case {key} appended out of canonical edge order"
            )
        blob = encode_case(key, si)
        self._seg.write(blob)
        self._keys.append(_edge_key(*key))
        self._edges.append(key)
        self._offsets.append(self._pos)
        self._lengths.append(len(blob))
        self._pos += len(blob)
        self.total_entries += si.total_entries()
        return len(blob)

    @property
    def num_cases(self) -> int:
        return len(self._keys)

    @property
    def bytes_written(self) -> int:
        return self._pos

    def finalize(self) -> Path:
        """Flush the segment file and write the TOC; idempotent."""
        if self._finalized:
            return self.path
        self._seg.flush()
        os.fsync(self._seg.fileno())
        self._seg.close()
        np.savez(
            str(self.path / TOC_FILE),
            format_version=np.int64(SEGSTORE_FORMAT_VERSION),
            num_vertices=np.int64(self.num_vertices),
            case_keys=np.asarray(self._keys, dtype=np.uint64),
            case_edges=np.asarray(
                self._edges, dtype=np.int64
            ).reshape(len(self._edges), 2),
            case_offsets=np.asarray(self._offsets, dtype=np.int64),
            case_lengths=np.asarray(self._lengths, dtype=np.int64),
            total_entries=np.int64(self.total_entries),
            segment_bytes=np.int64(self._pos),
        )
        self._finalized = True
        return self.path

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        elif not self._seg.closed:
            self._seg.close()


def write_index(index, path: PathLike) -> SegmentWriter:
    """Write a resident :class:`~repro.core.index.SIEFIndex` to a store.

    Freezes the index, writes its labeling and every case in canonical
    order, and returns the finalized writer
    (``path``, ``num_cases``, ``total_entries``, ``bytes_written``).
    """
    index.freeze()
    with SegmentWriter(path, index.labeling) as writer:
        for edge, si in index.iter_cases():
            writer.append_case(edge, si)
    return writer


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

_TOC_KEYS = (
    "format_version", "num_vertices", "case_keys", "case_edges",
    "case_offsets", "case_lengths", "total_entries", "segment_bytes",
)


class SegmentStore:
    """Read side of a ``.siefseg`` directory: mmap'd, validated access.

    ``load_case`` decodes one record into a
    :class:`MappedSupplement` whose arrays are
    zero-copy views of the segment mmap; nothing beyond the touched
    pages ever becomes resident.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        if not self.path.is_dir():
            raise StoreError(
                f"{self.path} is not a {STORE_SUFFIX} segment store; "
                f"write one with `sief build GRAPH -o X{STORE_SUFFIX}`"
            )
        for name in (LABELING_FILE, SEGMENTS_FILE, TOC_FILE):
            if not (self.path / name).exists():
                raise StoreError(
                    f"segment store {self.path} is missing {name}"
                )
        try:
            with np.load(str(self.path / TOC_FILE)) as doc:
                toc = {k: doc[k] for k in doc.files}
        except Exception as exc:
            raise StoreError(
                f"unreadable TOC in {self.path}: {exc}"
            ) from exc
        missing = [k for k in _TOC_KEYS if k not in toc]
        if missing:
            raise StoreError(f"TOC of {self.path} is missing {missing}")
        version = int(toc["format_version"])
        if version != SEGSTORE_FORMAT_VERSION:
            raise StoreError(
                f"unsupported segment store version {version}"
            )
        self.num_vertices = int(toc["num_vertices"])
        self._keys = np.asarray(toc["case_keys"], dtype=np.uint64)
        self._edges = np.asarray(toc["case_edges"], dtype=np.int64)
        self._offsets = np.asarray(toc["case_offsets"], dtype=np.int64)
        self._lengths = np.asarray(toc["case_lengths"], dtype=np.int64)
        self.total_entries = int(toc["total_entries"])
        m = len(self._keys)
        if (
            self._edges.shape != (m, 2)
            or len(self._offsets) != m
            or len(self._lengths) != m
        ):
            raise StoreError(f"inconsistent TOC arrays in {self.path}")
        if m and np.any(self._keys[1:] <= self._keys[:-1]):
            raise StoreError(f"TOC keys not sorted in {self.path}")
        seg_path = self.path / SEGMENTS_FILE
        self._seg_size = seg_path.stat().st_size
        if int(toc["segment_bytes"]) != self._seg_size:
            raise StoreError(
                f"segment file {seg_path} is {self._seg_size} bytes, "
                f"TOC expects {int(toc['segment_bytes'])} "
                "(truncated or partially written store)"
            )
        if self._seg_size:
            self._seg = np.memmap(seg_path, dtype=np.uint8, mode="r")
        else:
            self._seg = np.zeros(0, dtype=np.uint8)
        self._labeling: Optional[Labeling] = None

    # -- labeling -----------------------------------------------------------

    def labeling(self) -> Labeling:
        """The frozen original labeling (mmap'd, cached)."""
        if self._labeling is None:
            try:
                arrays = _memmap_npz(self.path / LABELING_FILE)
            except Exception as exc:
                raise StoreError(
                    f"unreadable labeling in {self.path}: {exc}"
                ) from exc
            for key in ("vertex_at", "offsets", "hubs", "dists"):
                if key not in arrays:
                    raise StoreError(
                        f"labeling of {self.path} is missing {key!r}"
                    )
            shape = arrays["vertex_at"].shape
            if shape != (self.num_vertices,):
                raise StoreError(
                    f"labeling of {self.path} has vertex shape {shape}, "
                    f"TOC expects {self.num_vertices} vertices "
                    "(mixed-up store files)"
                )
            try:
                ordering = VertexOrdering(
                    [int(x) for x in arrays["vertex_at"]]
                )
                self._labeling = Labeling.from_flat(
                    ordering,
                    arrays["offsets"],
                    arrays["hubs"],
                    arrays["dists"],
                )
            except ReproError as exc:
                raise StoreError(
                    f"corrupt labeling in {self.path}: {exc}"
                ) from exc
        return self._labeling

    # -- case access --------------------------------------------------------

    @property
    def num_cases(self) -> int:
        return len(self._keys)

    def case_edges(self) -> List[Edge]:
        """All indexed failure edges, canonical order (TOC only)."""
        return [(int(u), int(v)) for u, v in self._edges]

    def has_case(self, u: int, v: int) -> bool:
        key = _edge_key(*normalize_edge(u, v))
        pos = int(np.searchsorted(self._keys, np.uint64(key)))
        return pos < len(self._keys) and int(self._keys[pos]) == key

    def load_case(self, u: int, v: int) -> MappedSupplement:
        """Decode the record for failed edge ``(u, v)``.

        Raises :class:`FailureCaseNotIndexed` for unknown edges and
        :class:`StoreError` whenever the record disagrees with the TOC.
        """
        cu, cv = normalize_edge(u, v)
        key = _edge_key(cu, cv)
        pos = int(np.searchsorted(self._keys, np.uint64(key)))
        if pos >= len(self._keys) or int(self._keys[pos]) != key:
            raise FailureCaseNotIndexed(u, v)
        return self._decode(pos, cu, cv)

    def _decode(self, pos: int, u: int, v: int) -> MappedSupplement:
        off = int(self._offsets[pos])
        length = int(self._lengths[pos])
        if off < 0 or length < _HEADER_BYTES:
            raise StoreError(
                f"case ({u}, {v}): TOC offset {off}/length {length} invalid"
            )
        if off + length > self._seg_size:
            raise StoreError(
                f"case ({u}, {v}): record [{off}, {off + length}) is past "
                f"the end of the {self._seg_size}-byte segment file "
                "(truncated store)"
            )
        # A plain-ndarray view of the mapped record: every array below
        # stays zero-copy, without np.memmap's per-operation overhead.
        rec = np.asarray(self._seg[off : off + length])
        header = rec[:_HEADER_BYTES].view("<i8")
        ru, rv, n_su, n_sv, n_verts, n_ent, disc = (int(x) for x in header)
        if (ru, rv) != (u, v):
            raise StoreError(
                f"case ({u}, {v}): segment record is for edge "
                f"({ru}, {rv}) — TOC/segment mismatch"
            )
        if min(n_su, n_sv, n_verts, n_ent) < 0 or _record_nbytes(
            n_su, n_sv, n_verts, n_ent
        ) != length:
            raise StoreError(
                f"case ({u}, {v}): record header describes "
                f"{_record_nbytes(n_su, n_sv, n_verts, n_ent)} bytes, "
                f"TOC stores {length} (corrupt record)"
            )
        cur = _HEADER_BYTES

        def take(n_items: int, dtype: str) -> np.ndarray:
            nonlocal cur
            width = np.dtype(dtype).itemsize
            out = rec[cur : cur + n_items * width].view(dtype)
            cur += n_items * width
            return out

        side_u = take(n_su, "<i8")
        side_v = take(n_sv, "<i8")
        vertices = take(n_verts, "<i8")
        entry_offsets = take(n_verts + 1, "<i8")
        ranks = take(n_ent, "<i4")
        dists = take(n_ent, "<i4")
        if int(entry_offsets[0]) != 0 or int(entry_offsets[-1]) != n_ent:
            raise StoreError(
                f"case ({u}, {v}): entry offsets cover "
                f"[{int(entry_offsets[0])}, {int(entry_offsets[-1])}], "
                f"record stores {n_ent} entries (corrupt offsets)"
            )
        n = self.num_vertices
        for name, ids in (
            ("side_u", side_u), ("side_v", side_v), ("vertices", vertices)
        ):
            if ids.size and (
                ids[0] < 0 or ids[-1] >= n or np.any(ids[1:] <= ids[:-1])
            ):
                raise StoreError(
                    f"case ({u}, {v}): {name} is not strictly ascending "
                    f"within [0, {n}) (corrupt record)"
                )
        if np.any(entry_offsets[1:] < entry_offsets[:-1]):
            raise StoreError(
                f"case ({u}, {v}): entry offsets decrease (corrupt record)"
            )
        # Read as unsigned, a negative rank is >= 2**31 >= n: one pass.
        if n_ent and (ranks.view("<u4").max() >= n or dists.min() < 0):
            raise StoreError(
                f"case ({u}, {v}): a rank lies outside [0, {n}) or a "
                "distance is negative (corrupt record)"
            )
        return MappedSupplement(
            u, v, bool(disc), side_u, side_v,
            vertices, entry_offsets, ranks, dists,
        )

    def iter_cases(self) -> Iterator[Tuple[Edge, MappedSupplement]]:
        """Stream every case in canonical order (nothing cached)."""
        for pos in range(len(self._keys)):
            u, v = int(self._edges[pos, 0]), int(self._edges[pos, 1])
            yield (u, v), self._decode(pos, u, v)

    def to_index(self):
        """Rebuild a fully-resident :class:`SIEFIndex` from the store.

        What ``SIEFIndex.load`` returns; the supplements stay zero-copy
        views of the segment mmap.
        """
        from repro.core.index import SIEFIndex

        index = SIEFIndex(self.labeling())
        for edge, si in self.iter_cases():
            index.supplements[edge] = si
        return index

    def close(self) -> None:
        """Drop the segment mmap (views handed out become invalid)."""
        self._seg = np.zeros(0, dtype=np.uint8)
        self._labeling = None

    def __repr__(self) -> str:
        return (
            f"SegmentStore({self.path}, n={self.num_vertices}, "
            f"cases={self.num_cases}, bytes={self._seg_size})"
        )


# ---------------------------------------------------------------------------
# Sharded out-of-core build
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedBuildReport:
    """Aggregate of one out-of-core build: the spill totals plus the
    IDENTIFY/RELABEL split summed over each shard's
    :class:`~repro.core.builder.BuildReport`."""

    num_shards: int
    num_cases: int
    total_entries: int
    spilled_bytes: int
    max_resident_cases: int
    build_seconds: float
    identify_seconds: float
    relabel_seconds: float


def build_sief_sharded(
    graph: Graph,
    path: PathLike,
    labeling: Optional[Labeling] = None,
    algorithm: str = "batched",
    edges: Optional[Sequence[Edge]] = None,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    jobs: int = 1,
) -> Tuple[Path, ShardedBuildReport]:
    """Build a SIEF index out of core: shard E, build, spill, drop.

    The edge list is sorted globally and split into contiguous shards,
    so the concatenated segment order equals the canonical order of an
    in-RAM build and the rebuilt store equals the in-RAM index
    (``SIEFIndex.__eq__``).  One :class:`SIEFBuilder` (one CSR
    snapshot) is reused across shards; with ``jobs > 1`` each shard
    routes through :func:`repro.core.parallel.build_sief_parallel` over
    shared memory instead.

    Returns ``(store_path, ShardedBuildReport)``.
    """
    from repro.core.builder import SIEFBuilder
    from repro.labeling.pll import build_pll

    t0 = time.perf_counter()
    if labeling is None:
        labeling = build_pll(graph, freeze=True)
    if edges is None:
        edge_list = sorted(graph.edges())
    else:
        edge_list = sorted(normalize_edge(*e) for e in edges)
    m = len(edge_list)
    if shard_size is None:
        if shards is not None:
            shard_size = max(1, -(-m // max(1, shards)))
        else:
            shard_size = DEFAULT_SHARD_CASES
    shard_size = max(1, shard_size)

    writer = SegmentWriter(path, labeling)
    builder = SIEFBuilder(graph, labeling, algorithm) if jobs <= 1 else None
    reg = _obs.registry
    num_shards = 0
    max_resident = 0
    identify_seconds = relabel_seconds = 0.0
    with _obs.span("sief.ooc.build"):
        for s0 in range(0, m, shard_size):
            shard = edge_list[s0 : s0 + shard_size]
            with _obs.span("sief.ooc.shard"):
                if builder is not None:
                    shard_index, shard_report = builder.build(edges=shard)
                else:
                    from repro.core.parallel import build_sief_parallel

                    shard_index, shard_report = build_sief_parallel(
                        graph,
                        labeling,
                        algorithm,
                        workers=jobs,
                        edges=shard,
                    )
                identify_seconds += shard_report.identify_seconds
                relabel_seconds += shard_report.relabel_seconds
                resident = shard_index.num_cases
                max_resident = max(max_resident, resident)
                spilled = 0
                for edge, si in shard_index.iter_cases():
                    spilled += writer.append_case(edge, si)
                # Drop the shard before building the next one — this is
                # the O(shard) peak-memory property.
                shard_index.supplements.clear()
            num_shards += 1
            if reg is not None:
                reg.counter("sief.ooc.shards").inc()
                reg.counter("sief.ooc.spilled_cases").inc(len(shard))
                reg.counter("sief.ooc.spilled_bytes").inc(spilled)
                reg.gauge("sief.ooc.max_resident_cases").set(max_resident)
    store_path = writer.finalize()
    report = ShardedBuildReport(
        num_shards=num_shards,
        num_cases=writer.num_cases,
        total_entries=writer.total_entries,
        spilled_bytes=writer.bytes_written,
        max_resident_cases=max_resident,
        build_seconds=time.perf_counter() - t0,
        identify_seconds=identify_seconds,
        relabel_seconds=relabel_seconds,
    )
    return store_path, report
