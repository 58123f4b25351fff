"""Edge-case audit for the batch query entry points (ISSUE 2 satellite).

``batch_dist_query`` and ``SIEFQueryEngine.batch_query`` must behave
like the scalar paths on every degenerate input: empty pair lists, all
``s == t`` pairs, duplicated pairs — and malformed input (out-of-range
or negative ids, wrong shapes) must raise one clear exception instead
of a numpy index error from deep inside the join, or worse, silently
wrong answers from negative-index wraparound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_sief
from repro.core.lazy import PagedSIEFIndex
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import MappedSupplement, SegmentStore, write_index
from repro.core.supplemental import SupplementalIndex
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.labeling.query import batch_dist_query, validate_pairs


@pytest.fixture(scope="module")
def world():
    g = generators.erdos_renyi_gnm(18, 30, seed=7)
    labeling = build_pll(g)
    index = build_sief(g, labeling)
    return g, labeling, index, SIEFQueryEngine(index)


class TestValidatePairs:
    def test_empty_is_allowed(self):
        p = validate_pairs([], 10)
        assert p.shape == (0, 2)

    def test_wrong_shape_raises_value_error(self):
        with pytest.raises(ValueError, match="shape"):
            validate_pairs([1, 2, 3], 10)
        with pytest.raises(ValueError, match="shape"):
            validate_pairs([[1, 2, 3]], 10)

    def test_out_of_range_raises_index_error_with_range(self):
        with pytest.raises(IndexError, match=r"\[0, 9\]"):
            validate_pairs([(0, 10)], 10)

    def test_negative_raises_index_error(self):
        with pytest.raises(IndexError, match="out of range"):
            validate_pairs([(-1, 3)], 10)


class TestBatchDistQuery:
    def test_empty_pairs(self, world):
        _g, labeling, _index, _engine = world
        out = batch_dist_query(labeling, [])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_all_self_pairs(self, world):
        _g, labeling, _index, _engine = world
        pairs = [(v, v) for v in range(labeling.num_vertices)]
        assert (batch_dist_query(labeling, pairs) == 0.0).all()

    def test_small_batch_out_of_range_is_clear(self, world):
        """The k < scalar-threshold shortcut must validate too."""
        _g, labeling, _index, _engine = world
        n = labeling.num_vertices
        with pytest.raises(IndexError, match="out of range"):
            batch_dist_query(labeling, [(0, n)])

    def test_small_batch_negative_is_clear(self, world):
        """Negative ids must not wrap around to valid vertices."""
        _g, labeling, _index, _engine = world
        with pytest.raises(IndexError, match="out of range"):
            batch_dist_query(labeling, [(-1, 2)])

    def test_large_batch_out_of_range_is_clear(self, world):
        _g, labeling, _index, _engine = world
        n = labeling.num_vertices
        pairs = [(0, 1)] * 50 + [(n + 3, 0)]
        with pytest.raises(IndexError, match="out of range"):
            batch_dist_query(labeling, pairs)


class TestEngineBatchQuery:
    def _edge(self, world):
        g = world[0]
        return next(iter(g.edges()))

    def test_empty_pairs(self, world):
        _g, _labeling, _index, engine = world
        out = engine.batch_query(self._edge(world), [])
        assert out.shape == (0,)

    def test_all_self_pairs(self, world):
        g, _labeling, _index, engine = world
        pairs = [(v, v) for v in range(g.num_vertices)]
        assert (engine.batch_query(self._edge(world), pairs) == 0.0).all()

    def test_out_of_range_raises_index_error(self, world):
        g, _labeling, _index, engine = world
        with pytest.raises(IndexError, match="out of range"):
            engine.batch_query(self._edge(world), [(0, g.num_vertices)])

    def test_negative_raises_index_error(self, world):
        """Before the fix a negative id wrapped through searchsorted
        membership and produced a silently wrong distance."""
        _g, _labeling, _index, engine = world
        with pytest.raises(IndexError, match="out of range"):
            engine.batch_query(self._edge(world), [(-2, 1), (0, 1)])

    def test_wrong_shape_raises_value_error(self, world):
        _g, _labeling, _index, engine = world
        with pytest.raises(ValueError, match="shape"):
            engine.batch_query(self._edge(world), [1, 2])

    def test_matches_scalar_on_duplicates(self, world):
        g, _labeling, _index, engine = world
        edge = self._edge(world)
        pairs = [(0, 5), (0, 5), (5, 0), (3, 3)]
        batch = engine.batch_query(edge, pairs)
        for got, (s, t) in zip(batch, pairs):
            assert got == engine.distance(s, t, edge)


# ---------------------------------------------------------------------------
# the batch path reads the supplements' int64 side arrays
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bridged():
    """A random graph with a pendant tail (bridge failures cut the graph
    in two) next to a disjoint cycle (pairs with no path at all)."""
    g = generators.compose_disjoint(
        [
            generators.attach_tail(
                generators.erdos_renyi_gnm(14, 24, seed=3), 4, seed=3
            ),
            generators.cycle_graph(5),
        ]
    )
    return g, build_sief(g, build_pll(g))


@pytest.fixture(scope="module")
def bridged_store(bridged, tmp_path_factory):
    _g, index = bridged
    return write_index(index, tmp_path_factory.mktemp("sides") / "i.siefseg").path


def _pair_kind(si, s, t):
    side_s = si.affected.contains(s)
    side_t = si.affected.contains(t)
    if s == t:
        return "self"
    if side_s is None or side_t is None:
        return "unaffected"
    return "same" if side_s == side_t else "cross"


@pytest.mark.parametrize("kind", ["resident", "mapped"])
def test_batch_query_matches_distance_on_every_case(
    bridged, bridged_store, kind
):
    g, index = bridged
    if kind == "mapped":
        index = SegmentStore(bridged_store).to_index()
    cls = MappedSupplement if kind == "mapped" else SupplementalIndex
    engine = SIEFQueryEngine(index)
    n = g.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    seen = set()
    for edge in sorted(g.edges()):
        si = index.supplement(*edge)
        assert isinstance(si, cls)
        side_u, side_v = si.side_arrays()
        assert side_u.dtype == side_v.dtype == np.int64
        assert tuple(side_u.tolist()) == si.affected.side_u
        assert tuple(side_v.tolist()) == si.affected.side_v
        got = engine.batch_query(edge, pairs)
        for d, (s, t) in zip(got, pairs):
            want = engine.distance(s, t, edge)
            assert d == want, (edge, s, t, d, want)
            kind_of = _pair_kind(si, s, t)
            seen.add(kind_of)
            if si.affected.disconnected and kind_of == "cross":
                seen.add("bridge")
                assert d == np.inf
    assert seen == {"self", "unaffected", "same", "cross", "bridge"}


def test_side_arrays_cache_follows_affected(bridged):
    g, index = bridged
    si = index.supplement(*sorted(g.edges())[0])
    first = si.side_arrays()
    assert si.side_arrays()[0] is first[0]  # cached, not rebuilt
    other = index.supplement(*sorted(g.edges())[1])
    copy = SupplementalIndex(si.affected)
    assert copy.side_arrays()[0].tolist() == list(si.affected.side_u)
    copy.affected = other.affected
    assert copy.side_arrays()[0].tolist() == list(other.affected.side_u)


@pytest.mark.parametrize("kind", ["resident", "mapped"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_small_batches_match_distance_on_every_case(
    bridged, bridged_store, kind, k
):
    """Batches below the scalar threshold take the per-pair path; every
    §4.4 case, bridges and unreachable pairs included, must still equal
    the scalar ``distance``.  Store-backed supplements answer from their
    side arrays and never build the ``affected`` tuples."""
    g, index = bridged
    want = SIEFQueryEngine(index)
    if kind == "mapped":
        index = SegmentStore(bridged_store).to_index()
    engine = SIEFQueryEngine(index)
    n = g.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    seen = set()
    for edge in sorted(g.edges()):
        resident = want.index.supplement(*edge)
        for i in range(0, len(pairs), k):
            chunk = pairs[i : i + k]
            got = engine.batch_query(edge, chunk)
            assert got.dtype == np.float64 and len(got) == len(chunk)
            for d, (s, t) in zip(got, chunk):
                assert d == want.distance(s, t, edge), (edge, s, t, d)
                kind_of = _pair_kind(resident, s, t)
                seen.add(kind_of)
                if resident.affected.disconnected and kind_of == "cross":
                    seen.add("bridge")
                    assert d == np.inf
                if d == np.inf and kind_of != "cross":
                    seen.add("unreachable")
        if kind == "mapped":
            assert index.supplement(*edge)._affected is None, edge
    assert seen == {
        "self", "unaffected", "same", "cross", "bridge", "unreachable"
    }


def test_small_batches_feed_the_batch_counters(bridged):
    """perfbench's ``core.query.cross_share`` divides ``cross_side`` by
    ``batch_pairs``: the per-pair path must count both."""
    from repro.obs import hooks

    g, index = bridged
    engine = SIEFQueryEngine(index)
    n = g.num_vertices
    edge = next(
        e for e in sorted(g.edges())
        if any(
            _pair_kind(index.supplement(*e), s, t) == "cross"
            for s in range(n) for t in range(n)
        )
    )
    si = index.supplement(*edge)
    pairs = [(s, t) for s in range(n) for t in range(n)][:300]
    cross = sum(_pair_kind(si, s, t) == "cross" for s, t in pairs)
    assert cross > 0
    with hooks.installed() as reg:
        for i in range(0, len(pairs), 3):
            engine.batch_query(edge, pairs[i : i + 3])
    assert reg.counter_value("sief.query.batch_pairs") == len(pairs)
    assert reg.counter_value("sief.query.batch_calls") == 100
    assert reg.counter_value("sief.query.cross_side") == cross


def test_served_batch_never_builds_affected_tuples(bridged, bridged_store):
    """Page-in over the store, answer through the daemon's ``/batch`` and
    ``/dist`` routes: the resident ``MappedSupplement``s keep their sides
    as mmap views and never build the ``affected`` tuples."""
    from repro.serve.client import ServeClient
    from repro.serve.inprocess import InProcessServer

    g, index = bridged
    edges = sorted(g.edges())
    paged = PagedSIEFIndex(SegmentStore(bridged_store), capacity=len(edges))
    n = g.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    want = SIEFQueryEngine(index)
    with InProcessServer(SIEFQueryEngine(paged)) as srv:
        client = ServeClient(srv.host, srv.port)
        for edge in edges:
            expected = want.batch_query(edge, pairs)
            got = client.batch(edge, pairs)
            assert list(got) == list(expected)
            # Single pairs: every 37th pair plus the first cross pairs.
            si = index.supplement(*edge)
            picks = list(range(0, len(pairs), 37)) + [
                i for i, (s, t) in enumerate(pairs)
                if _pair_kind(si, s, t) == "cross"
            ][:3]
            for i in picks:
                s, t = pairs[i]
                assert client.distance(s, t, edge) == expected[i], (edge, s, t)
        client.close()
    assert paged.resident_cases == len(edges)
    for edge in edges:
        si = paged.supplement(*edge)
        assert isinstance(si, MappedSupplement)
        assert si._affected is None, edge
