"""Property-based tests (hypothesis) for the core invariants.

The central property is the paper's whole correctness claim, stated once
per layer:

* PLL: ``dist(s, t, L) == d_G(s, t)`` for every pair, any graph, any
  ordering;
* Algorithm 1: identified affected sets equal the Definition-2 oracle;
* BFS AFF ≡ BFS ALL: the two relabel strategies emit identical indexes;
* SIEF: ``engine.distance(s, t, e) == d_{G-e}(s, t)`` for every triple;
* segment-store round trips preserve everything.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.graph import Graph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    bfs_distances_avoiding_edge,
)
from repro.labeling.pll import build_pll
from repro.labeling.query import INF, dist_query
from repro.order.strategies import random_order
from repro.core.affected import affected_by_definition, identify_affected
from repro.core.bfs_aff import build_supplemental_bfs_aff
from repro.core.bfs_all import build_supplemental_bfs_all
from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import SegmentStore, SegmentWriter, write_index


@st.composite
def graphs(draw, min_vertices=2, max_vertices=16):
    """Random simple graphs with at least one edge."""
    n = draw(st.integers(min_vertices, max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seed = draw(st.integers(0, 2**20))
    density = draw(st.floats(0.1, 0.7))
    rng = random.Random(seed)
    edges = [e for e in possible if rng.random() < density]
    if not edges:
        edges = [possible[seed % len(possible)]]
    return Graph(n, edges)


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(g=graphs(), order_seed=st.integers(0, 1000))
@settings(max_examples=60, **COMMON)
def test_pll_is_exact_distance_cover_under_any_ordering(g, order_seed):
    labeling = build_pll(g, random_order(g, seed=order_seed))
    assert labeling.validate() == []
    for s in range(g.num_vertices):
        truth = bfs_distances(g, s)
        for t in range(g.num_vertices):
            expected = truth[t] if truth[t] != UNREACHED else INF
            assert dist_query(labeling, s, t) == expected


@given(g=graphs())
@settings(max_examples=50, **COMMON)
def test_identify_affected_matches_definition(g):
    for u, v in g.edges():
        got = identify_affected(g, u, v)
        want_u, want_v = affected_by_definition(g, u, v)
        assert list(got.side_u) == sorted(want_u)
        assert list(got.side_v) == sorted(want_v)


@given(g=graphs(), order_seed=st.integers(0, 1000))
@settings(max_examples=40, **COMMON)
def test_bfs_aff_and_bfs_all_emit_identical_indexes(g, order_seed):
    labeling = build_pll(g, random_order(g, seed=order_seed))
    for u, v in g.edges():
        affected = identify_affected(g, u, v)
        aff = build_supplemental_bfs_aff(g, labeling, affected)
        all_ = build_supplemental_bfs_all(g, labeling, affected)
        assert aff == all_


@given(g=graphs(max_vertices=12), order_seed=st.integers(0, 1000))
@settings(max_examples=40, **COMMON)
def test_sief_queries_equal_bfs_ground_truth(g, order_seed):
    labeling = build_pll(g, random_order(g, seed=order_seed))
    index, _ = SIEFBuilder(g, labeling).build()
    engine = SIEFQueryEngine(index)
    for u, v in g.edges():
        for s in range(g.num_vertices):
            truth = bfs_distances_avoiding_edge(g, s, (u, v))
            for t in range(g.num_vertices):
                expected = truth[t] if truth[t] != UNREACHED else INF
                assert engine.distance(s, t, (u, v)) == expected


@given(g=graphs())
@settings(max_examples=40, **COMMON)
def test_labeling_binary_round_trip(g):
    # A zero-case store persists a labeling on its own.
    labeling = build_pll(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = SegmentWriter(Path(tmp) / "lab", labeling.copy()).finalize()
        assert SegmentStore(path).labeling() == labeling


@given(g=graphs(max_vertices=10))
@settings(max_examples=25, **COMMON)
def test_sief_index_round_trip(g):
    index, _ = SIEFBuilder(g).build()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_index(index, Path(tmp) / "idx.siefseg").path
        assert SegmentStore(path).to_index() == index


@given(g=graphs())
@settings(max_examples=40, **COMMON)
def test_supplemental_entries_always_exact_distances(g):
    labeling = build_pll(g)
    vertex = labeling.ordering.vertex
    for u, v in g.edges():
        affected = identify_affected(g, u, v)
        si = build_supplemental_bfs_all(g, labeling, affected)
        for t, sl in si.iter_labels():
            truth = bfs_distances_avoiding_edge(g, t, (u, v))
            for h_rank, delta in zip(sl.ranks, sl.dists):
                assert truth[vertex(h_rank)] == delta


@given(g=graphs())
@settings(max_examples=40, **COMMON)
def test_affected_sides_are_disjoint_and_contain_endpoints(g):
    for u, v in g.edges():
        av = identify_affected(g, u, v)
        assert u in av.side_u and v in av.side_v
        assert not set(av.side_u) & set(av.side_v)
