"""RELABEL stage output: supplemental label structures.

For a failed edge ``(u, v)`` the supplemental index ``SI(u,v)`` maps an
affected vertex ``t`` to its *supplemental label* ``SL(t)``: pairs
``(h, δ)`` where ``h`` is an affected vertex **on the opposite side**
with ``σ[h] < σ[t]`` and ``δ = d_{G'}(h, t)``.  Only distances the
original index can no longer answer (the cross-side Case 4 pairs) are
stored, which is what makes SIEF compact.

As in :mod:`repro.labeling.label`, hubs are stored as ordering ranks in
strictly ascending order, so Case-4 evaluation is a merge against the
querying vertex's original label-distance function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.affected import AffectedVertices
from repro.exceptions import IndexError_


class FlatSupplement(NamedTuple):
    """Frozen CSR-style view of one edge's supplemental labels.

    Same storage discipline as the frozen
    :class:`~repro.labeling.label.Labeling`: ``SL(vertices[i])`` occupies
    ``ranks[offsets[i]:offsets[i+1]]`` / ``dists[...]``.  ``vertices`` is
    sorted ascending, so batch lookups are one ``searchsorted``.
    """

    vertices: np.ndarray  # int64, sorted vertex ids with a stored label
    offsets: np.ndarray   # int64, length len(vertices) + 1
    ranks: np.ndarray     # int32, concatenated hub ranks
    dists: np.ndarray     # int32, concatenated supplemental distances


@dataclass
class SupplementalLabels:
    """Mutable per-vertex supplemental label: parallel rank/dist lists.

    ``flat_cache`` is the flat-view cache of the
    :class:`SupplementalIndex` that handed the label out through
    :meth:`SupplementalIndex.label_of`; :meth:`append` empties it.  It
    is the shared cache list, not the index, so the two form no
    reference cycle.
    """

    ranks: List[int]
    dists: List[int]
    flat_cache: Optional[List["FlatSupplement"]] = field(
        default=None, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.ranks)

    def append(self, rank: int, dist: int) -> None:
        """Append an entry, enforcing ascending rank order."""
        if self.ranks and rank <= self.ranks[-1]:
            raise IndexError_(
                f"supplemental entries must arrive in ascending rank order "
                f"(got {rank} after {self.ranks[-1]})"
            )
        self.ranks.append(rank)
        self.dists.append(dist)
        if self.flat_cache:
            self.flat_cache.clear()

    def pairs(self) -> List[Tuple[int, int]]:
        """``(rank, dist)`` tuples."""
        return list(zip(self.ranks, self.dists))


class SupplementalIndex:
    """``SI(u,v)`` — affected sides plus supplemental labels for one edge.

    Attributes
    ----------
    affected:
        The :class:`AffectedVertices` split this index was built from.
    labels:
        Mapping of affected vertex id -> :class:`SupplementalLabels`.
        Vertices whose supplemental label came out empty after pruning
        are not stored.
    """

    __slots__ = ("_affected", "_labels", "search_expanded", "_flat", "_sides")

    def __init__(self, affected: AffectedVertices) -> None:
        # The flat view and the side arrays are built lazily for the
        # batch query path and dropped by every mutation: a new
        # ``affected`` or ``labels``, ``label_of`` storing a new label,
        # ``append`` on a label it handed out, and ``drop_empty``.
        self._flat: List[FlatSupplement] = []  # the flat view, once built
        self._sides: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.affected = affected
        self.labels: Dict[int, SupplementalLabels] = {}
        # Vertices the RELABEL stage's searches expanded while building
        # this index — a machine-independent cost measure the Figure 7
        # bench reports alongside wall-clock.  Not part of equality.
        self.search_expanded = 0

    @property
    def affected(self) -> AffectedVertices:
        return self._affected

    @affected.setter
    def affected(self, affected: AffectedVertices) -> None:
        self._affected = affected
        self._sides = None
        self._flat.clear()

    @property
    def labels(self) -> Dict[int, SupplementalLabels]:
        return self._labels

    @labels.setter
    def labels(self, labels: Dict[int, SupplementalLabels]) -> None:
        self._labels = labels
        self._flat.clear()

    @property
    def edge(self) -> Tuple[int, int]:
        """The failed edge ``(u, v)`` this index covers."""
        return (self.affected.u, self.affected.v)

    def label_of(self, vertex: int) -> SupplementalLabels:
        """Get-or-create the supplemental label of ``vertex``."""
        label = self._labels.get(vertex)
        if label is None:
            label = SupplementalLabels([], [], self._flat)
            self._labels[vertex] = label
            self._flat.clear()
        return label

    def get(self, vertex: int) -> SupplementalLabels:
        """Supplemental label of ``vertex`` (empty label if none stored)."""
        return self.labels.get(vertex, _EMPTY)

    def drop_empty(self) -> None:
        """Remove vertices whose label stayed empty (storage hygiene)."""
        self.labels = {v: sl for v, sl in self.labels.items() if len(sl)}

    def total_entries(self) -> int:
        """Supplemental label entry count — the per-edge SLEN statistic."""
        return sum(len(sl) for sl in self.labels.values())

    def side_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``affected.side_u``/``side_v`` as sorted int64 arrays (cached)."""
        sides = self._sides
        if sides is None:
            av = self._affected
            sides = (
                np.asarray(av.side_u, dtype=np.int64),
                np.asarray(av.side_v, dtype=np.int64),
            )
            self._sides = sides
        return sides

    def flat(self) -> FlatSupplement:
        """The frozen flat view of this index's labels (cached).

        A cache hit is one attribute read; the mutations listed in
        ``__init__`` drop the cache, so the next call rebuilds it.
        """
        if self._flat:
            return self._flat[0]
        stored = {v: sl for v, sl in self._labels.items() if len(sl)}
        vertices = np.asarray(sorted(stored), dtype=np.int64)
        offsets = np.zeros(len(vertices) + 1, dtype=np.int64)
        sizes = np.fromiter(
            (len(stored[int(v)]) for v in vertices),
            count=len(vertices),
            dtype=np.int64,
        )
        np.cumsum(sizes, out=offsets[1:])
        total = int(offsets[-1])
        ranks = np.empty(total, dtype=np.int32)
        dists = np.empty(total, dtype=np.int32)
        pos = 0
        for v in vertices:
            sl = stored[int(v)]
            k = len(sl)
            ranks[pos : pos + k] = sl.ranks
            dists[pos : pos + k] = sl.dists
            pos += k
        flat = FlatSupplement(vertices, offsets, ranks, dists)
        self._flat.append(flat)
        return flat

    def iter_labels(self) -> Iterator[Tuple[int, SupplementalLabels]]:
        """Iterate stored ``(vertex, label)`` pairs in vertex order."""
        for v in sorted(self.labels):
            yield v, self.labels[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupplementalIndex):
            return NotImplemented
        if self.affected != other.affected:
            return False
        mine = {v: (sl.ranks, sl.dists) for v, sl in self.labels.items() if len(sl)}
        theirs = {
            v: (sl.ranks, sl.dists) for v, sl in other.labels.items() if len(sl)
        }
        return mine == theirs

    def __repr__(self) -> str:
        return (
            f"SupplementalIndex(edge={self.edge}, "
            f"affected={self.affected.total}, entries={self.total_entries()})"
        )


_EMPTY = SupplementalLabels([], [])
