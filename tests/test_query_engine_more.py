"""Additional query-engine behavior tests (case taxonomy, round trips)."""

from __future__ import annotations

import random

import pytest

from repro.graph import generators
from repro.graph.graph import Graph
from repro.labeling.query import INF
from repro.core.builder import SIEFBuilder
from repro.core.query import QueryCase, SIEFQueryEngine
from repro.core.index import SIEFIndex
from repro.core.segstore import write_index


@pytest.fixture(scope="module")
def engine_pair():
    g = generators.erdos_renyi_gnm(22, 40, seed=33)
    index, _ = SIEFBuilder(g).build()
    return g, SIEFQueryEngine(index)


class TestCaseTaxonomy:
    def test_every_query_gets_exactly_one_case(self, engine_pair):
        g, engine = engine_pair
        seen = set()
        for edge in list(g.edges())[:10]:
            for s in range(0, 22, 3):
                for t in range(0, 22, 4):
                    _d, case = engine.distance_with_case(s, t, edge)
                    assert isinstance(case, QueryCase)
                    seen.add(case)
        # A random graph workload must exercise several cases.
        assert QueryCase.UNAFFECTED_PAIR in seen
        assert QueryCase.CROSS_SIDES in seen

    def test_fast_path_agrees_with_case_path(self, engine_pair):
        g, engine = engine_pair
        rng = random.Random(0)
        edges = list(g.edges())
        for _ in range(300):
            s, t = rng.randrange(22), rng.randrange(22)
            edge = rng.choice(edges)
            assert engine.distance(s, t, edge) == (
                engine.distance_with_case(s, t, edge)[0]
            )

    def test_bridge_cross_query_is_case4_inf(self, two_triangles):
        index, _ = SIEFBuilder(two_triangles).build()
        engine = SIEFQueryEngine(index)
        d, case = engine.distance_with_case(1, 4, (2, 3))
        assert case is QueryCase.CROSS_SIDES
        assert d == INF

    def test_case2_includes_disconnected_component_pairs(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        index, _ = SIEFBuilder(g).build()
        engine = SIEFQueryEngine(index)
        # 0 is affected by failing (0,1); 3 sits in another component.
        d, case = engine.distance_with_case(0, 3, (0, 1))
        assert d == INF
        assert case in (QueryCase.ONE_AFFECTED, QueryCase.UNAFFECTED_PAIR)


class TestRoundTripBehavior:
    def test_serialized_engine_identical_answers(self, engine_pair, tmp_path):
        g, engine = engine_pair
        path = write_index(engine.index, tmp_path / "idx.siefseg").path
        loaded = SIEFQueryEngine(SIEFIndex.load(path))
        rng = random.Random(1)
        edges = list(g.edges())
        for _ in range(200):
            s, t = rng.randrange(22), rng.randrange(22)
            edge = rng.choice(edges)
            assert loaded.distance(s, t, edge) == engine.distance(
                s, t, edge
            )

    def test_engine_shares_index(self, engine_pair):
        _g, engine = engine_pair
        other = SIEFQueryEngine(engine.index)
        assert other.index is engine.index


class TestSelfLoopsAndIdentity:
    def test_distance_to_self_always_zero(self, engine_pair):
        g, engine = engine_pair
        for edge in list(g.edges())[:5]:
            for v in range(g.num_vertices):
                assert engine.distance(v, v, edge) == 0

    def test_failed_edge_endpoints_query(self, engine_pair):
        g, engine = engine_pair
        from repro.graph.traversal import UNREACHED, bfs_distance_between

        for u, v in list(g.edges())[:10]:
            expected = bfs_distance_between(g, u, v, avoid=(u, v))
            expected = expected if expected != UNREACHED else INF
            assert engine.distance(u, v, (u, v)) == expected
            assert engine.distance(u, v, (u, v)) >= 2 or expected == INF
