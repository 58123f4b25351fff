"""Error hierarchy for the ``repro`` package.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library errors with one clause
while letting genuine bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Structural problem with a graph (bad vertex, bad edge, ...)."""


class VertexNotFound(GraphError):
    """A vertex id is outside the graph's vertex range."""

    def __init__(self, vertex: int, n: int) -> None:
        super().__init__(f"vertex {vertex} not in graph with {n} vertices")
        self.vertex = vertex
        self.n = n


class EdgeNotFound(GraphError):
    """An edge does not exist in the graph."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u}, {v}) not in graph")
        self.u = u
        self.v = v


class LabelingError(ReproError):
    """A 2-hop labeling is malformed or inconsistent with its graph."""


class NotWellOrdered(LabelingError):
    """A labeling violates the well-ordering property (Definition 1)."""


class IndexError_(ReproError):
    """A SIEF index is malformed or queried inconsistently."""


class FailureCaseNotIndexed(IndexError_):
    """A query named a failed edge with no supplemental index."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(
            f"no supplemental index for failed edge ({u}, {v}); "
            "was the edge part of the indexed graph?"
        )
        self.u = u
        self.v = v


class SerializationError(ReproError):
    """Persisted index/graph bytes could not be parsed."""


class StoreError(SerializationError):
    """An on-disk segment store is corrupt or internally inconsistent.

    Raised by :mod:`repro.core.segstore` whenever the table of contents
    and the segment file disagree — truncated segments, offset/length
    mismatches, records past EOF.  The store refuses to answer rather
    than risk returning wrong distances.
    """


class DatasetError(ReproError):
    """A benchmark dataset could not be generated or loaded."""


class KernelTierError(ReproError):
    """An explicitly requested kernel tier is unknown or unavailable.

    Raised only for *explicit* selections (``SIEF_KERNELS=cext``,
    ``sief --kernels cext``) — the ``auto`` tier never raises, it falls
    through to pure numpy.
    """
