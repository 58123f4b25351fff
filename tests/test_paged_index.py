"""Case-cache contract coverage for :class:`PagedSIEFIndex`.

The cache is one LRU over a case source; every contract test runs it
over both sources — the segment store (load on touch) and the build
source (build on touch).  Under a query stream wider than its capacity
the cache must (a) give the same answers as the fully-resident engine,
(b) keep its resident set bounded by the capacity, and (c) report the
same traffic through its attributes and the ``sief.lazy.cache.*``
metrics.
"""

from __future__ import annotations

import pytest

from repro.core.builder import build_sief
from repro.core.lazy import BuildSource, PagedSIEFIndex
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import SegmentStore, build_sief_sharded
from repro.exceptions import IndexError_
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.obs import hooks, installed
from repro.order.strategies import by_degree

CAPACITY = 4
SOURCES = ("segstore", "build")


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    before = (hooks.registry, hooks.tracer)
    yield
    assert (hooks.registry, hooks.tracer) == before


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    graph = generators.erdos_renyi_gnm(36, 80, seed=5)
    path, _ = build_sief_sharded(
        graph, tmp_path_factory.mktemp("paged") / "store", shard_size=9
    )
    reference = SIEFQueryEngine(
        build_sief(graph, build_pll(graph, by_degree(graph)))
    )
    return graph, path, reference


def _source(world, kind):
    graph, path, _ = world
    if kind == "segstore":
        return SegmentStore(path)
    return BuildSource(graph.copy(), build_pll(graph, by_degree(graph)))


def _paged(world, kind, capacity=CAPACITY):
    return PagedSIEFIndex(_source(world, kind), capacity=capacity)


def test_answers_match_in_ram_engine_under_eviction(world):
    graph, _, reference = world
    pairs = [(s, (s * 7 + 3) % graph.num_vertices) for s in range(18)]
    for kind in SOURCES:
        paged = _paged(world, kind)
        engine = SIEFQueryEngine(paged)
        for edge in sorted(graph.edges()):
            for s, t in pairs:
                assert engine.distance(s, t, edge) == reference.distance(
                    s, t, edge
                ), (kind, edge, s, t)
            assert paged.resident_cases <= CAPACITY, kind


def test_resident_set_is_bounded_and_evictions_counted(world):
    graph, _, _ = world
    edges = sorted(graph.edges())
    assert len(edges) > 3 * CAPACITY  # the stream is wider than the cache
    for kind in SOURCES:
        with installed() as reg:
            paged = _paged(world, kind)
            for u, v in edges:
                paged.supplement(u, v)
                assert paged.resident_cases <= CAPACITY, kind
            assert reg.counter_value("sief.lazy.cache.misses") == len(edges)
            assert (
                reg.counter_value("sief.lazy.cache.evictions")
                == len(edges) - CAPACITY
            )
            assert reg.gauge("sief.lazy.cache.resident").value == CAPACITY
            # The hot tail is resident: re-touching it is pure hits.
            for u, v in edges[-CAPACITY:]:
                paged.supplement(u, v)
            # Attributes and metrics report the same traffic.
            assert reg.counter_value("sief.lazy.cache.hits") == paged.hits
            assert reg.counter_value("sief.lazy.cache.misses") == paged.misses
            assert (
                reg.counter_value("sief.lazy.cache.evictions")
                == paged.evictions
            )
            assert (
                reg.gauge("sief.lazy.cache.resident").value
                == paged.resident_cases
            )
        assert paged.hits == CAPACITY, kind
        assert paged.misses == len(edges), kind
        assert paged.evictions == len(edges) - CAPACITY, kind


def test_lru_evicts_least_recently_used(world):
    graph, _, _ = world
    e0, e1, e2 = sorted(graph.edges())[:3]
    for kind in SOURCES:
        paged = _paged(world, kind, capacity=2)
        paged.supplement(*e0)
        paged.supplement(*e1)
        paged.supplement(*e0)  # refresh e0; e1 is now the LRU victim
        paged.supplement(*e2)
        misses = paged.misses
        paged.supplement(*e0)  # still resident: no new miss
        assert paged.misses == misses, kind
        paged.supplement(*e1)  # evicted: paged back in
        assert paged.misses == misses + 1, kind


def test_batch_query_matches_reference(world):
    graph, _, reference = world
    edge = sorted(graph.edges())[0]
    pairs = [(s, (s + 11) % graph.num_vertices) for s in range(25)]
    for kind in SOURCES:
        engine = SIEFQueryEngine(_paged(world, kind))
        assert [float(d) for d in engine.batch_query(edge, pairs)] == [
            float(d) for d in reference.batch_query(edge, pairs)
        ], kind


def test_duck_type_surface(world):
    graph, path, _ = world
    paged = PagedSIEFIndex(SegmentStore(path), capacity=CAPACITY)
    assert paged.supplements == sorted(graph.edges())
    u, v = paged.supplements[0]
    assert paged.has_case(u, v)
    assert not paged.has_case(4000, 4001)
    for kind in SOURCES:
        paged = _paged(world, kind)
        assert paged.num_cases == graph.num_edges, kind
        assert paged.labeling.num_vertices == graph.num_vertices, kind


def test_clear_drops_resident_cases(world):
    graph, _, _ = world
    edges = sorted(graph.edges())[:3]
    for kind in SOURCES:
        with installed() as reg:
            paged = _paged(world, kind)
            for u, v in edges:
                paged.supplement(u, v)
            assert paged.clear() == 3, kind
            assert paged.resident_cases == 0, kind
            assert reg.gauge("sief.lazy.cache.resident").value == 0
            paged.supplement(*edges[0])  # a miss again after the clear
            assert paged.misses == 4, kind


def test_capacity_must_be_positive(world):
    for kind in SOURCES:
        with pytest.raises(IndexError_):
            _paged(world, kind, capacity=0)
