"""The complete SIEF index: original labeling + one supplement per edge.

This is the object a downstream user holds: build once (via
:class:`repro.core.builder.SIEFBuilder`), then answer any
``distance(s, t, failed_edge)`` query in microseconds through
:class:`repro.core.query.SIEFQueryEngine`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.supplemental import SupplementalIndex
from repro.exceptions import FailureCaseNotIndexed, IndexError_
from repro.graph.graph import normalize_edge
from repro.labeling.label import Labeling

Edge = Tuple[int, int]


class SIEFIndex:
    """Original 2-hop labeling plus per-edge supplemental indexes.

    Attributes
    ----------
    labeling:
        The well-ordered 2-hop distance cover of the original graph.
    supplements:
        Mapping of canonical failed edge -> :class:`SupplementalIndex`.
    """

    __slots__ = ("labeling", "supplements")

    def __init__(
        self,
        labeling: Labeling,
        supplements: Optional[Dict[Edge, SupplementalIndex]] = None,
    ) -> None:
        self.labeling = labeling
        self.supplements: Dict[Edge, SupplementalIndex] = {}
        if supplements:
            for edge, si in supplements.items():
                self.add_supplement(edge, si)

    def freeze(self) -> "SIEFIndex":
        """Switch the whole index to the flat numpy query backend.

        Freezes the labeling in place and prebuilds every supplement's
        :class:`~repro.core.supplemental.FlatSupplement` view, so the
        first batch query pays no conversion cost.  Idempotent; returns
        ``self``.  (The batch paths also freeze lazily on first use —
        this is for callers who want the conversion off the query path.)
        """
        self.labeling.freeze()
        for si in self.supplements.values():
            si.flat()
        return self

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SIEFIndex":
        """Open a ``.siefseg`` segment store as a fully-resident index.

        The supplements stay views of the segment mmap; for demand-paged
        serving use :class:`~repro.core.lazy.PagedSIEFIndex` instead.
        Any other path raises :class:`~repro.exceptions.StoreError`.
        """
        from repro.core.segstore import SegmentStore

        return SegmentStore(path).to_index()

    def __eq__(self, other: object) -> bool:
        """Content equality: labeling, case set and every supplement.

        Per case it compares ``affected`` (sides and the ``disconnected``
        flag) and the four ``flat()`` arrays — everything the segment
        store persists — so an in-RAM index equals the one read back
        from its store, whichever supplement class either side holds.
        """
        if not isinstance(other, SIEFIndex):
            return NotImplemented
        if self.supplements.keys() != other.supplements.keys():
            return False
        if self.labeling != other.labeling:
            return False
        for edge, si in self.supplements.items():
            theirs = other.supplements[edge]
            if si.affected != theirs.affected or not all(
                np.array_equal(a, b) for a, b in zip(si.flat(), theirs.flat())
            ):
                return False
        return True

    def add_supplement(self, edge: Edge, si: SupplementalIndex) -> None:
        """Register the supplemental index for one failed-edge case."""
        key = normalize_edge(*edge)
        if normalize_edge(*si.edge) != key:
            raise IndexError_(
                f"supplement built for edge {si.edge}, registered under {edge}"
            )
        self.supplements[key] = si

    def supplement(self, u: int, v: int) -> SupplementalIndex:
        """The supplemental index for failed edge ``(u, v)``.

        Raises
        ------
        FailureCaseNotIndexed
            If that edge was never indexed (e.g. not an edge of ``G``).
        """
        key = normalize_edge(u, v)
        try:
            return self.supplements[key]
        except KeyError:
            raise FailureCaseNotIndexed(u, v) from None

    def has_case(self, u: int, v: int) -> bool:
        """Whether failed edge ``(u, v)`` is covered by this index."""
        return normalize_edge(u, v) in self.supplements

    @property
    def num_cases(self) -> int:
        """Number of indexed single-edge failure cases (should equal m)."""
        return len(self.supplements)

    def iter_cases(self) -> Iterator[Tuple[Edge, SupplementalIndex]]:
        """Iterate ``(edge, supplement)`` pairs in canonical edge order."""
        for edge in sorted(self.supplements):
            yield edge, self.supplements[edge]

    def total_supplemental_entries(self) -> int:
        """Total supplemental label entries — the paper's SLEN numerator."""
        return sum(si.total_entries() for si in self.supplements.values())

    def __repr__(self) -> str:
        return (
            f"SIEFIndex(n={self.labeling.num_vertices}, "
            f"cases={self.num_cases}, "
            f"supplemental_entries={self.total_supplemental_entries()})"
        )
