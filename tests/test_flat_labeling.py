"""Unit tests for the flat (frozen) labeling backend and batch queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LabelingError, StoreError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.labeling.label import Labeling
from repro.labeling.pll import build_pll
from repro.labeling.query import INF, batch_dist_query, dist_query
from repro.labeling.stats import labeling_stats
from repro.order.ordering import VertexOrdering
from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import LABELING_FILE, SegmentStore, SegmentWriter


@pytest.fixture(scope="module")
def graph():
    return generators.erdos_renyi_gnm(40, 80, seed=11)


@pytest.fixture(scope="module")
def labeling(graph):
    return build_pll(graph)


@pytest.fixture
def frozen(labeling):
    return labeling.copy().freeze()


class TestFreezeThaw:
    def test_freeze_is_idempotent_and_inplace(self, labeling):
        lab = labeling.copy()
        assert lab.freeze() is lab
        assert lab.frozen
        assert lab.freeze() is lab

    def test_flat_arrays_shape(self, labeling, frozen):
        assert frozen.offsets.dtype == np.int64
        assert len(frozen.offsets) == frozen.num_vertices + 1
        assert int(frozen.offsets[0]) == 0
        assert int(frozen.offsets[-1]) == labeling.total_entries()
        assert len(frozen.hubs_flat) == len(frozen.dists_flat)

    def test_thaw_round_trip(self, labeling):
        lab = labeling.copy()
        assert lab.freeze().thaw() == labeling
        assert not lab.frozen
        assert isinstance(lab.hub_ranks[0], list)

    def test_equality_across_backends(self, labeling, frozen):
        assert frozen == labeling
        assert labeling == frozen

    def test_accessors_identical(self, labeling, frozen):
        for v in range(labeling.num_vertices):
            assert frozen.hub_ranks[v] == labeling.hub_ranks[v]
            assert frozen.hub_dists[v] == labeling.hub_dists[v]
            assert frozen.label_size(v) == labeling.label_size(v)
            assert frozen.entries(v) == labeling.entries(v)
            assert frozen.hubs(v) == labeling.hubs(v)
        assert frozen.total_entries() == labeling.total_entries()

    def test_validate_works_frozen(self, frozen):
        assert frozen.validate() == []

    def test_frozen_mutation_rejected(self, frozen):
        with pytest.raises(LabelingError, match="frozen"):
            frozen.hub_ranks[0] = [0]

    def test_copy_preserves_backend(self, frozen, labeling):
        clone = frozen.copy()
        assert clone.frozen
        assert clone == frozen
        assert labeling.copy().frozen is False

    def test_from_flat_inconsistent_rejected(self):
        ordering = VertexOrdering([0, 1])
        with pytest.raises(LabelingError):
            Labeling.from_flat(
                ordering, np.array([0, 1, 3]), np.array([0]), np.array([0])
            )
        with pytest.raises(LabelingError):
            Labeling.from_flat(
                ordering, np.array([0, 1]), np.array([0]), np.array([0])
            )

    def test_empty_labeling_freezes(self):
        lab = Labeling.empty(VertexOrdering([1, 0])).freeze()
        assert lab.total_entries() == 0
        assert dist_query(lab, 0, 1) == INF

    def test_stats_identical(self, labeling, frozen):
        assert labeling_stats(frozen) == labeling_stats(labeling)

    def test_build_pll_freeze_flag(self, graph, labeling):
        frozen_build = build_pll(graph, freeze=True)
        assert frozen_build.frozen
        assert frozen_build == labeling

    def test_build_pll_from_csr(self, graph, labeling):
        assert build_pll(CSRGraph.from_graph(graph)) == labeling


class TestScalarQueryParity:
    def test_all_pairs(self, graph, labeling, frozen):
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                assert dist_query(frozen, s, t) == dist_query(labeling, s, t)


class TestBatchDistQuery:
    def test_matches_scalar(self, graph, labeling, frozen):
        n = graph.num_vertices
        pairs = [(s, t) for s in range(n) for t in range(n)]
        got = batch_dist_query(frozen, pairs)
        expected = np.array(
            [dist_query(labeling, s, t) for s, t in pairs], dtype=np.float64
        )
        assert np.array_equal(got, expected)

    def test_auto_freezes(self, labeling):
        lab = labeling.copy()
        assert not lab.frozen
        batch_dist_query(lab, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert lab.frozen

    def test_empty_and_tiny_batches(self, frozen):
        assert len(batch_dist_query(frozen, [])) == 0
        got = batch_dist_query(frozen, [(0, 0), (1, 2)])
        assert got[0] == 0.0
        assert got[1] == dist_query(frozen, 1, 2)

    def test_bad_shape_rejected(self, frozen):
        with pytest.raises(ValueError, match="shape"):
            batch_dist_query(frozen, [(0, 1, 2)])

    def test_out_of_range_rejected(self, frozen):
        with pytest.raises(IndexError):
            batch_dist_query(frozen, [(0, frozen.num_vertices)] * 8)

    def test_disconnected_pairs_inf(self):
        g = generators.compose_disjoint(
            [generators.path_graph(3), generators.path_graph(3)]
        )
        lab = build_pll(g, freeze=True)
        got = batch_dist_query(lab, [(0, 4), (0, 2), (3, 5), (1, 1)])
        assert got[0] == np.inf
        assert got[1] == 2
        assert got[2] == 2
        assert got[3] == 0


class TestEngineBatchQuery:
    @pytest.fixture(scope="class")
    def setup(self, graph):
        index, _ = SIEFBuilder(graph).build()
        return graph, index, SIEFQueryEngine(index)

    def test_matches_scalar_on_every_edge(self, setup):
        g, index, engine = setup
        n = g.num_vertices
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, n, size=(300, 2))
        for edge in list(g.edges())[:12]:
            got = engine.batch_query(edge, pairs)
            expected = np.array(
                [engine.distance(int(s), int(t), edge) for s, t in pairs],
                dtype=np.float64,
            )
            assert np.array_equal(got, expected), edge

    def test_self_pairs_zero(self, setup):
        g, index, engine = setup
        edge = next(iter(g.edges()))
        pairs = [(v, v) for v in range(g.num_vertices)]
        assert np.array_equal(
            engine.batch_query(edge, pairs),
            np.zeros(g.num_vertices),
        )

    def test_bridge_edge_disconnection(self):
        g = generators.path_graph(8)
        index, _ = SIEFBuilder(g).build()
        engine = SIEFQueryEngine(index)
        pairs = [(s, t) for s in range(8) for t in range(8)]
        got = engine.batch_query((3, 4), pairs)
        expected = np.array(
            [engine.distance(s, t, (3, 4)) for s, t in pairs], dtype=np.float64
        )
        assert np.array_equal(got, expected)
        assert got[pairs.index((0, 7))] == np.inf

    def test_index_freeze_idempotent(self, setup):
        _, index, engine = setup
        assert index.freeze() is index
        assert index.labeling.frozen
        edge = next(iter(index.supplements))
        got = engine.batch_query(edge, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert len(got) == 4

    def test_empty_pairs(self, setup):
        _, index, engine = setup
        edge = next(iter(index.supplements))
        assert len(engine.batch_query(edge, [])) == 0


class TestFlatSerialization:
    """A zero-case segment store persists a labeling on its own; its
    ``labeling.npz`` holds the frozen flat arrays."""

    def test_binary_round_trip_from_frozen(self, tmp_path, labeling, frozen):
        assert _store_labeling(tmp_path, frozen) == labeling

    def test_npz_round_trip(self, tmp_path, labeling, frozen):
        loaded = _store_labeling(tmp_path, frozen)
        assert loaded.frozen
        assert loaded == labeling

    def test_npz_from_thawed(self, tmp_path, labeling):
        thawed = labeling.copy()
        assert not thawed.frozen
        assert _store_labeling(tmp_path, thawed) == labeling

    def test_npz_bad_file_rejected(self, tmp_path, frozen):
        path = SegmentWriter(tmp_path / "lab", frozen).finalize()
        (path / LABELING_FILE).write_bytes(b"not an npz file")
        with pytest.raises(StoreError):
            SegmentStore(path).labeling()


def _store_labeling(tmp_path, labeling):
    """Write ``labeling`` to a zero-case store and read it back."""
    path = SegmentWriter(tmp_path / "lab", labeling).finalize()
    return SegmentStore(path).labeling()
