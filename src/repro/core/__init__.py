"""SIEF — the paper's contribution: supplemental indexes for edge failures.

Pipeline (§4 of the paper):

1. **IDENTIFY** (:mod:`repro.core.affected`): for a failed edge ``(u, v)``
   find the two affected-vertex trees ``AV(u)`` and ``AV(v)``
   (Algorithm 1, justified by Lemmas 5–8).
2. **RELABEL** (:mod:`repro.core.bfs_aff`, :mod:`repro.core.bfs_all`):
   build the supplemental index ``SI(u,v)`` holding only the changed
   distances, with late (BFS AFF, Algorithm 2) or early (BFS ALL,
   Algorithm 3) label pruning.  Both produce identical indexes.
3. **QUERY** (:mod:`repro.core.query`): answer
   ``d_{G-(u,v)}(s, t)`` via the Case 1–4 analysis of §4.4, combining the
   original PLL labeling with the supplemental labels.

:class:`~repro.core.builder.SIEFBuilder` drives steps 1–2 for every edge
of the graph (the paper's "all single-edge failure cases") and returns a
:class:`~repro.core.index.SIEFIndex`.
"""

from repro.core.affected import AffectedVertices, identify_affected
from repro.core.supplemental import SupplementalIndex, SupplementalLabels
from repro.core.bfs_aff import build_supplemental_bfs_aff
from repro.core.bfs_all import build_supplemental_bfs_all
from repro.core.index import SIEFIndex
from repro.core.builder import SIEFBuilder, BuildReport, EdgeBuildRecord
from repro.core.query import SIEFQueryEngine, QueryCase
from repro.core.stats import SIEFStats, sief_stats
from repro.core.lazy import LazySIEFIndex
from repro.core.parallel import build_sief_parallel
from repro.core.verify import verify_index

__all__ = [
    "AffectedVertices",
    "identify_affected",
    "SupplementalIndex",
    "SupplementalLabels",
    "build_supplemental_bfs_aff",
    "build_supplemental_bfs_all",
    "SIEFIndex",
    "SIEFBuilder",
    "BuildReport",
    "EdgeBuildRecord",
    "SIEFQueryEngine",
    "QueryCase",
    "SIEFStats",
    "sief_stats",
    "LazySIEFIndex",
    "build_sief_parallel",
    "verify_index",
]
