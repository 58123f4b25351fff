"""Tests for SIEF index integrity verification."""

from __future__ import annotations

import copy

import pytest

from repro.graph import generators
from repro.core.builder import SIEFBuilder
from repro.core.verify import structural_problems, verify_index


@pytest.fixture(scope="module")
def built():
    g = generators.erdos_renyi_gnm(18, 32, seed=50)
    index, _ = SIEFBuilder(g).build()
    return g, index


class TestHealthyIndex:
    def test_passes_all_levels(self, built):
        g, index = built
        assert verify_index(index, g, sample_cases=None) == []

    def test_sampled_verification(self, built):
        g, index = built
        assert verify_index(index, g, sample_cases=5, seed=3) == []


class TestCorruptions:
    def test_wrong_graph_detected(self, built):
        _g, index = built
        other = generators.erdos_renyi_gnm(18, 32, seed=51)
        problems = verify_index(index, other)
        assert problems  # some case disagrees somewhere

    def test_vertex_count_mismatch(self, built):
        _g, index = built
        small = generators.cycle_graph(5)
        problems = structural_problems(index, small)
        assert any("vertices" in p for p in problems)

    def test_tampered_distance_detected(self, built):
        g, index = built
        tampered = copy.deepcopy(index)
        # Find a case with a supplemental entry and *shrink* a distance:
        # an undercut answer can never be masked by other entries (the
        # minimum only drops), unlike an inflated one which later hubs
        # may legitimately cover.
        for edge, si in tampered.iter_cases():
            for _t, sl in si.iter_labels():
                sl.dists[0] -= 1
                break
            else:
                continue
            break
        problems = verify_index(
            tampered, g, sample_cases=None, queries_per_case=500
        )
        assert any("query" in p for p in problems)

    def test_tampered_affected_set_detected(self, built):
        g, index = built
        from repro.core.affected import AffectedVertices
        tampered = copy.deepcopy(index)
        edge, si = next(
            (e, s)
            for e, s in tampered.iter_cases()
            if len(s.affected.side_u) > 1
        )
        # Drop a vertex from one affected side.
        side_u = tuple(si.affected.side_u[:-1])
        si.affected = AffectedVertices(
            u=si.affected.u,
            v=si.affected.v,
            side_u=side_u,
            side_v=si.affected.side_v,
            disconnected=si.affected.disconnected,
        )
        problems = verify_index(tampered, g, sample_cases=None)
        assert problems

    def test_well_ordering_violation_detected(self, built):
        g, index = built
        tampered = copy.deepcopy(index)
        for _edge, si in tampered.iter_cases():
            for t, sl in si.iter_labels():
                sl.ranks[0] = tampered.labeling.ordering.rank(t) + 1
                break
            else:
                continue
            break
        problems = structural_problems(tampered, g)
        assert any("well-ordering" in p for p in problems)

