"""Cache-metric coverage for :class:`LazySIEFIndex`.

The hit/miss/eviction contract of the shared case cache lives in
``tests/test_paged_index.py``; this file covers what only the lazy
index does — ``insert_edge`` invalidation, ``commit_failure`` rebuild —
replays the graph shapes archived in ``tests/corpus/`` (which include
awkward fuzz-found topologies) plus an explicitly disconnected graph,
asserts the answers never depend on whether a registry is installed,
and checks that each cache series is exported exactly once.
"""

from __future__ import annotations

import re

import pytest

from repro.core.lazy import LazySIEFIndex
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs import hooks, installed
from repro.obs.export import to_prometheus_text
from repro.testing.corpus import iter_corpus

CORPUS_DIR = "tests/corpus"


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    before = (hooks.registry, hooks.tracer)
    yield
    assert (hooks.registry, hooks.tracer) == before


def _graph():
    return generators.erdos_renyi_gnm(18, 30, seed=21)


def _an_edge(graph):
    return next(iter(sorted(graph.edges())))


class TestCacheCounters:
    def test_insert_edge_invalidates_cached_cases(self):
        graph = _graph()
        edges = sorted(graph.edges())[:2]
        with installed() as reg:
            lazy = LazySIEFIndex(graph)
            for e in edges:
                lazy.distance(0, 9, e)
            lazy.insert_edge(0, 17)
            assert reg.counter_value("sief.lazy.insertions") == 1
            assert reg.counter_value("sief.lazy.invalidations") == 1
            assert reg.counter_value("sief.lazy.invalidated_cases") == 2
            assert reg.gauge("sief.lazy.cache.resident").value == 0
            # Next query on a previously cached edge must rebuild.
            lazy.distance(0, 9, edges[0])
            assert reg.counter_value("sief.lazy.cache.misses") == 3
            # Every miss is a build, fed into the shared build counters.
            assert reg.counter_value("sief.build.cases") == 3

    def test_commit_failure_counts_rebuild_and_drops(self):
        graph = _graph()
        edges = sorted(graph.edges())
        with installed() as reg:
            lazy = LazySIEFIndex(graph)
            lazy.distance(0, 9, edges[0])
            lazy.distance(0, 9, edges[1])
            lazy.commit_failure(*edges[0])
            assert reg.counter_value("sief.lazy.rebuilds") == 1
            assert reg.counter_value("sief.lazy.invalidated_cases") == 2
            assert reg.gauge("sief.lazy.cache.resident").value == 0
        assert not lazy.graph.has_edge(*edges[0])
        assert lazy.cache.resident_cases == 0

    def test_invalidation_with_empty_cache_counts_no_cases(self):
        graph = _graph()
        with installed() as reg:
            lazy = LazySIEFIndex(graph)
            lazy.insert_edge(0, 17)
            assert reg.counter_value("sief.lazy.invalidations") == 1
            assert reg.counter_value("sief.lazy.invalidated_cases") == 0


class TestAnswersUnchanged:
    def test_lifecycle_answers_match_metrics_off(self):
        pairs = [(s, t) for s in range(6) for t in range(12, 18)]

        def lifecycle():
            graph = _graph()
            lazy = LazySIEFIndex(graph)
            edges = sorted(graph.edges())[:2]
            out = []
            for e in edges:
                out.extend(lazy.distance(s, t, e) for s, t in pairs)
            lazy.insert_edge(0, 17)
            out.extend(lazy.distance(s, t, edges[0]) for s, t in pairs)
            lazy.commit_failure(*edges[1])
            remaining = sorted(lazy.graph.edges())[0]
            out.extend(lazy.distance(s, t, remaining) for s, t in pairs)
            return out

        with hooks.disabled():
            plain = lifecycle()
        with installed():
            instrumented = lifecycle()
        assert plain == instrumented


class TestCorpusShapes:
    """Replay archived fuzz-found graph shapes through the lazy cache."""

    def _cases(self):
        found = list(iter_corpus(CORPUS_DIR))
        assert found, f"corpus at {CORPUS_DIR} is empty"
        for path, cx in found:
            graph = Graph(cx.num_vertices, [tuple(e) for e in cx.edges])
            yield path.name, graph, cx

    def test_corpus_shapes_hit_miss_and_match_plain(self):
        for name, graph, cx in self._cases():
            kind = cx.failure[0]
            if kind != "edge":
                continue
            edge = (cx.failure[1], cx.failure[2])
            with hooks.disabled():
                plain = LazySIEFIndex(
                    Graph(cx.num_vertices, [tuple(e) for e in cx.edges])
                ).distance(cx.s, cx.t, edge)
            with installed() as reg:
                lazy = LazySIEFIndex(graph)
                first = lazy.distance(cx.s, cx.t, edge)
                second = lazy.distance(cx.s, cx.t, edge)
            assert first == second == plain, f"answer drift on corpus {name}"
            assert reg.counter_value("sief.lazy.cache.misses") == 1, name
            assert reg.counter_value("sief.lazy.cache.hits") == 1, name

    def test_disconnected_graph_shape(self):
        # Disconnected worlds exercise the unreachable (inf) paths the
        # corpus families fuzz; cache metrics must behave identically.
        graph = generators.compose_disjoint(
            [generators.path_graph(5), generators.cycle_graph(4)]
        )
        edge = (0, 1)  # inside the path component
        with installed() as reg:
            lazy = LazySIEFIndex(graph)
            same_side = lazy.distance(0, 4, edge)
            cross = lazy.distance(0, 6, edge)  # other component: inf
            assert cross == float("inf")
            assert reg.counter_value("sief.lazy.cache.misses") == 1
            assert reg.counter_value("sief.lazy.cache.hits") == 1
        with hooks.disabled():
            plain = LazySIEFIndex(
                generators.compose_disjoint(
                    [generators.path_graph(5), generators.cycle_graph(4)]
                )
            ).distance(0, 4, edge)
        assert same_side == plain


def test_prometheus_exports_each_cache_series_once():
    graph = _graph()
    edge = _an_edge(graph)
    with installed() as reg:
        lazy = LazySIEFIndex(graph)
        lazy.distance(0, 5, edge)  # miss
        lazy.distance(1, 6, edge)  # hit
        text = to_prometheus_text(reg)
    names = [
        line.split()[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]
    cache = [n for n in names if n.startswith("sief_lazy_cache")]
    assert sorted(cache) == [
        "sief_lazy_cache_hits",
        "sief_lazy_cache_misses",
        "sief_lazy_cache_resident",
    ]
    # A hash suffix marks two registry names colliding on one series.
    assert not [n for n in names if re.search(r"_[0-9a-f]{6}$", n)]
