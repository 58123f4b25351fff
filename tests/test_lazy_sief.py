"""Unit tests for the lazy, mutation-aware SIEF index."""

from __future__ import annotations

import pytest

from repro.exceptions import EdgeNotFound, IndexError_
from repro.graph import generators
from repro.graph.traversal import UNREACHED, bfs_distance_between
from repro.labeling.query import INF
from repro.core.lazy import LazySIEFIndex


def truth(graph, s, t, edge):
    d = bfs_distance_between(graph, s, t, avoid=edge)
    return d if d != UNREACHED else INF


@pytest.fixture
def lazy():
    g = generators.erdos_renyi_gnm(18, 32, seed=20)
    return LazySIEFIndex(g)


class TestLaziness:
    def test_no_cases_up_front(self, lazy):
        assert lazy.cache.resident_cases == 0

    def test_case_built_on_first_query(self, lazy):
        edge = next(iter(lazy.graph.edges()))
        lazy.distance(0, 5, edge)
        assert lazy.cache.resident_cases == 1
        lazy.distance(1, 6, edge)
        assert lazy.cache.resident_cases == 1
        assert lazy.cache.hits == 1

    def test_answers_match_bfs(self, lazy):
        g = lazy.graph
        for edge in list(g.edges())[:6]:
            for s in range(0, 18, 3):
                for t in range(0, 18, 5):
                    assert lazy.distance(s, t, edge) == truth(g, s, t, edge)

    def test_unknown_edge_rejected(self, lazy):
        non_edge = next(
            (u, v)
            for u in range(18)
            for v in range(u + 1, 18)
            if not lazy.graph.has_edge(u, v)
        )
        with pytest.raises(EdgeNotFound):
            lazy.distance(0, 1, non_edge)

    def test_unknown_algorithm_rejected(self, path5):
        with pytest.raises(IndexError_):
            LazySIEFIndex(path5, algorithm="dfs")


class TestMutation:
    def test_insert_edge_invalidates_and_stays_exact(self, lazy):
        g = lazy.graph
        edge = next(iter(g.edges()))
        lazy.distance(0, 9, edge)
        assert lazy.cache.resident_cases == 1
        new = next(
            (u, v)
            for u in range(18)
            for v in range(u + 1, 18)
            if not g.has_edge(u, v)
        )
        lazy.insert_edge(*new)
        assert lazy.cache.resident_cases == 0  # cache invalidated
        # Every answer reflects the grown graph.
        for e in list(g.edges())[:5]:
            for s, t in [(0, 9), (3, 14), (2, 17)]:
                assert lazy.distance(s, t, e) == truth(g, s, t, e)

    def test_query_new_edge_as_failure(self, lazy):
        g = lazy.graph
        new = next(
            (u, v)
            for u in range(18)
            for v in range(u + 1, 18)
            if not g.has_edge(u, v)
        )
        lazy.insert_edge(*new)
        # Failing the just-inserted edge must give pre-insertion answers.
        for s, t in [(0, 9), (5, 12)]:
            assert lazy.distance(s, t, new) == truth(g, s, t, new)

    def test_commit_failure_rebases(self, lazy):
        g = lazy.graph
        edge = next(iter(g.edges()))
        before = lazy.distance(0, 9, edge)
        lazy.commit_failure(*edge)
        assert not g.has_edge(*edge)
        # The failure is now the baseline: static queries match.
        from repro.labeling.query import dist_query

        assert dist_query(lazy.labeling, 0, 9) == before
        # And the removed edge can no longer be named as a failure.
        with pytest.raises(EdgeNotFound):
            lazy.distance(0, 9, edge)

    def test_interleaved_mutations(self):
        g = generators.cycle_graph(8)
        lazy = LazySIEFIndex(g)
        lazy.insert_edge(0, 4)          # chord
        assert lazy.distance(0, 4, (0, 1)) == 1
        lazy.commit_failure(0, 4)       # chord gone again
        assert lazy.distance(0, 4, (0, 1)) == truth(g, 0, 4, (0, 1))


def test_repr(lazy):
    assert "LazySIEFIndex" in repr(lazy)
