"""2-hop distance labeling: structures, PLL construction, query, checks.

A 2-hop distance labeling (Cohen et al., SODA 2002) stores for every
vertex ``v`` a set of *(hub, distance)* pairs such that the distance of
any pair ``(s, t)`` is the minimum of ``δ(h,s) + δ(h,t)`` over shared hubs
``h``.  This package builds *well-ordered* labelings (Definition 1 of the
SIEF paper) with Pruned Landmark Labeling — unweighted (pruned BFS),
weighted (pruned Dijkstra), and directed (in/out labels) — and provides
query evaluation, verification, redundancy analysis (Lemma 4) and
statistics.  A labeling persists as a zero-case segment store
(:mod:`repro.core.segstore`).
"""

from repro.labeling.label import Labeling, LabelEntry
from repro.labeling.pll import build_pll
from repro.labeling.pll_weighted import build_weighted_pll, WeightedLabeling
from repro.labeling.pll_directed import build_directed_pll, DirectedLabeling
from repro.labeling.query import batch_dist_query, dist_query, INF
from repro.labeling.verify import (
    is_well_ordered,
    is_distance_cover,
    verify_labeling,
)
from repro.labeling.prune import find_redundant_entries, prune_redundant
from repro.labeling.stats import LabelingStats, labeling_stats, BYTES_PER_ENTRY
from repro.labeling.paths import (
    shortest_path_via_labeling,
    failure_shortest_path,
    hub_of_pair,
)
from repro.labeling.dynamic import insert_edge, insert_edges
from repro.labeling.isl import build_isl

__all__ = [
    "Labeling",
    "LabelEntry",
    "build_pll",
    "build_weighted_pll",
    "WeightedLabeling",
    "build_directed_pll",
    "DirectedLabeling",
    "dist_query",
    "batch_dist_query",
    "INF",
    "is_well_ordered",
    "is_distance_cover",
    "verify_labeling",
    "find_redundant_entries",
    "prune_redundant",
    "LabelingStats",
    "labeling_stats",
    "BYTES_PER_ENTRY",
    "shortest_path_via_labeling",
    "failure_shortest_path",
    "hub_of_pair",
    "insert_edge",
    "insert_edges",
    "build_isl",
]
