"""Bit-identity of the batched construction path with the scalar one.

The batched relabel must produce *exactly* the supplemental index the
scalar algorithms produce — same labels, same ``(rank, dist)`` entries,
same order — and the vectorized IDENTIFY must return exactly the scalar
affected sides.  These are property tests over random graphs; the fuzz
harness (``sief-batched-build`` adapter) extends the same check to the
whole differential corpus.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.affected import (
    affected_by_definition,
    identify_affected,
    identify_affected_csr,
)
from repro.core.batched import build_supplemental_batched
from repro.core.bfs_aff import build_supplemental_bfs_aff
from repro.core.bfs_all import build_supplemental_bfs_all
from repro.core.builder import SIEFBuilder
from repro.core.lazy import LazySIEFIndex
from repro.exceptions import EdgeNotFound
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm
from repro.labeling.pll import build_pll


def _graph(seed: int, max_n: int = 36):
    import random

    rng = random.Random(seed)
    n = rng.randint(4, max_n)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
    g = erdos_renyi_gnm(n, m, seed=seed)
    if g.num_edges == 0:
        g.add_edge(0, 1)
    return g


seeds = st.integers(min_value=0, max_value=10_000)


class TestIdentifyParity:
    @settings(max_examples=50, deadline=None)
    @given(seeds, seeds)
    def test_csr_identify_equals_scalar(self, seed, pick):
        g = _graph(seed)
        csr = CSRGraph.from_graph(g)
        edges = sorted(g.edges())
        u, v = edges[pick % len(edges)]
        scalar = identify_affected(g, u, v)
        vectorized = identify_affected_csr(csr, u, v)
        assert vectorized == scalar
        assert all(isinstance(x, int) for x in vectorized.side_u)

    @settings(max_examples=25, deadline=None)
    @given(seeds, seeds)
    def test_csr_identify_matches_definition(self, seed, pick):
        g = _graph(seed, max_n=20)
        csr = CSRGraph.from_graph(g)
        edges = sorted(g.edges())
        u, v = edges[pick % len(edges)]
        got = identify_affected_csr(csr, u, v)
        side_u, side_v = affected_by_definition(g, u, v)
        assert list(got.side_u) == sorted(side_u)
        assert list(got.side_v) == sorted(side_v)

    def test_missing_edge_raises_edge_not_found(self):
        g = erdos_renyi_gnm(8, 10, seed=0)
        csr = CSRGraph.from_graph(g)
        missing = next(
            (a, b)
            for a in range(8)
            for b in range(8)
            if a != b and not g.has_edge(a, b)
        )
        with pytest.raises(EdgeNotFound):
            identify_affected_csr(csr, *missing)


def _assert_bit_identical(si_a, si_b):
    assert si_a == si_b
    assert set(si_a.labels) == set(si_b.labels)
    for t, sl in si_a.labels.items():
        other = si_b.labels[t]
        assert sl.ranks == other.ranks
        assert sl.dists == other.dists


class TestRelabelParity:
    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds)
    def test_batched_equals_both_scalar_algorithms(self, seed, pick):
        g = _graph(seed)
        labeling = build_pll(g)
        csr = CSRGraph.from_graph(g)
        edges = sorted(g.edges())
        u, v = edges[pick % len(edges)]
        affected = identify_affected(g, u, v)
        batched = build_supplemental_batched(
            g, labeling, affected, csr=csr
        )
        aff = build_supplemental_bfs_aff(g, labeling, affected)
        all_ = build_supplemental_bfs_all(g, labeling, affected)
        _assert_bit_identical(batched, aff)
        _assert_bit_identical(batched, all_)

    @settings(max_examples=12, deadline=None)
    @given(seeds)
    def test_full_build_parity(self, seed):
        g = _graph(seed, max_n=24)
        labeling = build_pll(g)
        idx_batched, rep_batched = SIEFBuilder(g, labeling, "batched").build()
        idx_scalar, rep_scalar = SIEFBuilder(g, labeling, "bfs_all").build()
        assert set(idx_batched.supplements) == set(idx_scalar.supplements)
        for edge, si in idx_batched.supplements.items():
            _assert_bit_identical(si, idx_scalar.supplements[edge])
        assert rep_batched.num_cases == rep_scalar.num_cases
        assert (
            rep_batched.total_supplemental_entries
            == rep_scalar.total_supplemental_entries
        )

    def test_build_case_routes_through_csr(self):
        g = barabasi_albert(80, 3, seed=2)
        labeling = build_pll(g)
        b = SIEFBuilder(g, labeling, "batched")
        ref = SIEFBuilder(g, labeling, "bfs_aff")
        for u, v in sorted(g.edges())[:12]:
            si, record = b.build_case(u, v)
            si_ref, _ = ref.build_case(u, v)
            _assert_bit_identical(si, si_ref)
            assert record.edge == (u, v)

    def test_disconnected_bridge_yields_empty_index(self):
        # A path graph: every edge is a bridge.
        from repro.graph.generators import path_graph

        g = path_graph(6)
        labeling = build_pll(g)
        csr = CSRGraph.from_graph(g)
        affected = identify_affected(g, 2, 3)
        assert affected.disconnected
        si = build_supplemental_batched(g, labeling, affected, csr=csr)
        assert si.total_entries() == 0


class TestLazyBatched:
    def test_lazy_batched_matches_lazy_scalar(self):
        g = erdos_renyi_gnm(30, 70, seed=5)
        lazy_b = LazySIEFIndex(g.copy(), build_pll(g), algorithm="batched")
        lazy_s = LazySIEFIndex(g.copy(), build_pll(g), algorithm="bfs_all")
        for edge in sorted(g.edges())[:10]:
            for s, t in [(0, 29), (3, 17), (11, 22)]:
                assert lazy_b.distance(s, t, edge) == lazy_s.distance(
                    s, t, edge
                )
        assert lazy_b.cache.resident_cases == lazy_s.cache.resident_cases

    def test_mutation_invalidates_csr_snapshot(self):
        g = erdos_renyi_gnm(20, 40, seed=6)
        lazy = LazySIEFIndex(g.copy(), build_pll(g), algorithm="batched")
        edge = sorted(lazy.graph.edges())[0]
        lazy.distance(0, 19, edge)
        assert lazy._source._csr is not None
        # Insertion must drop the snapshot (the CSR no longer matches).
        a, b = next(
            (a, b)
            for a in range(20)
            for b in range(20)
            if a != b and not lazy.graph.has_edge(a, b)
        )
        lazy.insert_edge(a, b)
        assert lazy._source._csr is None
        edge2 = sorted(lazy.graph.edges())[1]
        d = lazy.distance(1, 18, edge2)
        # Cross-check against a fresh scalar lazy index on the same graph.
        ref = LazySIEFIndex(
            lazy.graph.copy(), build_pll(lazy.graph), algorithm="bfs_all"
        )
        assert d == ref.distance(1, 18, edge2)
        # Permanent deletion also drops it.
        lazy.distance(0, 19, sorted(lazy.graph.edges())[0])
        u, v = sorted(lazy.graph.edges())[-1]
        lazy.commit_failure(u, v)
        assert lazy._source._csr is None
