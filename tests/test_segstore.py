"""Segment-store round-trip, zero-copy mapping and corruption coverage.

The ``.siefseg`` store is the one persisted index format.  It must
(a) rebuild an index equal to the in-RAM build, (b) map the
label and supplement arrays straight out of its files — read-only,
shared by every reader through the page cache — and (c) refuse, with a
clear :class:`StoreError`, to answer from a store whose TOC and segment
file disagree.  A corrupt store must never produce a wrong distance; it
must raise.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import SIEFBuilder, build_sief
from repro.core.index import SIEFIndex
from repro.core.lazy import PagedSIEFIndex
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import (
    LABELING_FILE,
    SEGMENTS_FILE,
    TOC_FILE,
    SegmentStore,
    SegmentWriter,
    build_sief_sharded,
    write_index,
)
from repro.exceptions import FailureCaseNotIndexed, StoreError
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.order.strategies import by_degree


def in_ram_index(graph) -> SIEFIndex:
    index, _report = SIEFBuilder(graph).build()
    return index.freeze()


def memmap_root(arr):
    """The np.memmap at the bottom of a view chain, or None."""
    while isinstance(arr, np.ndarray):
        if isinstance(arr, np.memmap):
            return arr
        arr = arr.base
    return None


def assert_same_answers(a, b, seed: int = 0, scalar: int = 0) -> None:
    """Batch answers (and the first ``scalar`` pairs one by one) agree."""
    ea, eb = SIEFQueryEngine(a), SIEFQueryEngine(b)
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, a.labeling.num_vertices, size=(60, 2))
    for edge in sorted(a.supplements):
        assert np.array_equal(
            ea.batch_query(edge, pairs), eb.batch_query(edge, pairs)
        )
        for s, t in pairs[:scalar]:
            x = ea.distance(int(s), int(t), edge)
            y = eb.distance(int(s), int(t), edge)
            assert x == y or (math.isinf(x) and math.isinf(y))


@pytest.fixture
def graph():
    return generators.erdos_renyi_gnm(40, 90, seed=11)


@pytest.fixture
def store_path(graph, tmp_path) -> Path:
    path, _report = build_sief_sharded(graph, tmp_path / "store", shard_size=7)
    return path


class TestRoundTrip:
    def test_rebuilt_index_is_bit_identical(self, graph, store_path):
        reference = build_sief(graph, build_pll(graph, by_degree(graph)))
        rebuilt = SegmentStore(store_path).to_index()
        assert rebuilt == reference

    def test_index_load_routes_siefseg_paths(self, graph, store_path):
        reference = build_sief(graph, build_pll(graph, by_degree(graph)))
        loaded = SIEFIndex.load(store_path)
        assert loaded == reference

    def test_write_index_roundtrip_answers(self, graph, tmp_path):
        index = in_ram_index(graph)
        loaded = SegmentStore(write_index(index, tmp_path / "idx").path).to_index()
        assert loaded.num_cases == index.num_cases
        assert loaded.labeling.num_vertices == index.labeling.num_vertices
        assert_same_answers(index, loaded)

    def test_write_index_serialize_parity(self, graph, tmp_path):
        """Reloading a store reproduces the in-RAM index's content."""
        index = in_ram_index(graph)
        path = write_index(index, tmp_path / "idx").path
        assert SegmentStore(path).to_index() == index
        assert SIEFIndex.load(path) == index

    def test_index_load_suffix_routing(self, graph, tmp_path):
        index = in_ram_index(graph)
        seg_path = write_index(index, tmp_path / "idx.siefseg").path
        assert seg_path == tmp_path / "idx.siefseg"
        assert_same_answers(index, SIEFIndex.load(seg_path))
        # Any other path is refused with a pointer to the one format.
        legacy = tmp_path / "idx.sief"
        legacy.write_bytes(b"SIEFIDX1" + b"\x00" * 16)
        for other in (legacy, seg_path / LABELING_FILE, tmp_path / "nope"):
            with pytest.raises(StoreError, match=r"\.siefseg.*sief build"):
                SIEFIndex.load(other)

    @pytest.mark.parametrize(
        "shape",
        [
            generators.path_graph(2),
            generators.star_graph(4),
            generators.cycle_graph(5),
            generators.compose_disjoint(
                [generators.path_graph(3), generators.path_graph(2)]
            ),
        ],
        ids=["path2", "star4", "cycle5", "disconnected"],
    )
    def test_small_shapes_roundtrip(self, tmp_path, shape):
        index = in_ram_index(shape)
        path = write_index(index, tmp_path / "idx").path
        loaded = SegmentStore(path).to_index()
        assert loaded == index
        assert_same_answers(index, loaded, seed=3)

    def test_unknown_edge_raises_not_indexed(self, store_path):
        store = SegmentStore(store_path)
        with pytest.raises(FailureCaseNotIndexed):
            store.load_case(998, 999)

    def test_case_edges_are_sorted_and_complete(self, graph, store_path):
        store = SegmentStore(store_path)
        assert store.case_edges() == sorted(graph.edges())
        assert store.num_cases == graph.num_edges

    def test_writer_rejects_out_of_order_appends(self, graph, tmp_path):
        labeling = build_pll(graph, by_degree(graph))
        index = build_sief(graph, labeling)
        cases = sorted(index.supplements.items())
        with SegmentWriter(tmp_path / "disordered", labeling) as writer:
            writer.append_case(*cases[1])
            with pytest.raises(StoreError):
                writer.append_case(*cases[0])


class TestMapping:
    """The zero-copy claim: N readers, one physical copy, no writes."""

    @pytest.fixture
    def mapped(self, tmp_path) -> SegmentStore:
        index = in_ram_index(generators.erdos_renyi_gnm(30, 55, seed=11))
        return SegmentStore(write_index(index, tmp_path / "idx").path)

    @staticmethod
    def largest_case(store: SegmentStore):
        return max(
            (si for _edge, si in store.iter_cases()),
            key=lambda si: si.total_entries(),
        )

    def test_label_arrays_are_file_backed(self, mapped):
        lab = mapped.labeling()
        for arr in (lab.hubs_flat, lab.dists_flat, lab.offsets):
            assert not arr.flags["OWNDATA"]
            assert memmap_root(arr) is not None, "label array is not mapped"

    def test_supplement_views_are_file_backed(self, mapped):
        flat = self.largest_case(mapped).flat()
        for arr in flat:
            assert arr.size
            assert not arr.flags["OWNDATA"]
            assert memmap_root(arr) is not None, "supplement is not mapped"

    def test_mapped_arrays_are_read_only(self, mapped):
        with pytest.raises(ValueError):
            mapped.labeling().hubs_flat[0] = 99
        with pytest.raises(ValueError):
            self.largest_case(mapped).flat().ranks[0] = 99

    def test_two_stores_share_one_physical_copy(self, mapped):
        other = SegmentStore(mapped.path)
        for a, b in (
            (mapped.labeling().hubs_flat, other.labeling().hubs_flat),
            (
                self.largest_case(mapped).flat().ranks,
                self.largest_case(other).flat().ranks,
            ),
        ):
            ra, rb = memmap_root(a), memmap_root(b)
            assert ra is not None and rb is not None
            # Same file, same offset: the kernel backs both with the same
            # page-cache pages; nothing was copied into either heap.
            assert ra.filename == rb.filename
            assert ra.offset == rb.offset
        assert_same_answers(mapped.to_index(), other.to_index())

    @pytest.mark.parametrize("reader", ["resident", "paged"])
    def test_answers_equal_in_ram_engine(self, tmp_path, reader):
        index = in_ram_index(generators.watts_strogatz(26, 4, 0.2, seed=5))
        store = SegmentStore(write_index(index, tmp_path / "idx").path)
        if reader == "resident":
            served = store.to_index()
        else:
            # Capacity below the case count: answers survive eviction.
            served = PagedSIEFIndex(store, capacity=4)
        assert_same_answers(index, served, seed=2, scalar=8)

    @pytest.mark.parametrize(
        "damage, message",
        [("compressed", "compressed"), ("garbage", "unreadable labeling")],
        ids=["compressed", "garbage"],
    )
    def test_unmappable_labeling_raises_store_error(
        self, mapped, damage, message
    ):
        path = mapped.path / LABELING_FILE
        if damage == "compressed":
            np.savez_compressed(path, **dict(np.load(path)))
        else:
            path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(StoreError, match=message):
            SegmentStore(mapped.path).labeling()


def _retoc(path: Path, **overrides) -> None:
    """Rewrite toc.npz with some arrays tampered."""
    toc = dict(np.load(path / TOC_FILE))
    toc.update(overrides)
    np.savez(path / TOC_FILE, **toc)


class TestCorruption:
    def test_truncated_segment_file_is_rejected_at_open(self, store_path):
        seg = store_path / SEGMENTS_FILE
        data = seg.read_bytes()
        seg.write_bytes(data[: len(data) - 16])
        with pytest.raises(StoreError, match="segment"):
            SegmentStore(store_path)

    def test_record_past_eof_is_rejected_at_load(self, store_path):
        toc = dict(np.load(store_path / TOC_FILE))
        offsets = toc["case_offsets"].copy()
        offsets[-1] += int(toc["case_lengths"][-1])
        _retoc(store_path, case_offsets=offsets)
        store = SegmentStore(store_path)
        u, v = store.case_edges()[-1]
        with pytest.raises(StoreError, match="past the end"):
            store.load_case(u, v)

    def test_offset_length_mismatch_is_rejected_at_load(self, store_path):
        toc = dict(np.load(store_path / TOC_FILE))
        lengths = toc["case_lengths"].copy()
        lengths[0] -= 8
        _retoc(store_path, case_lengths=lengths)
        store = SegmentStore(store_path)
        u, v = store.case_edges()[0]
        with pytest.raises(StoreError, match="corrupt record"):
            store.load_case(u, v)

    def test_toc_segment_edge_mismatch_is_rejected(self, store_path):
        edges = dict(np.load(store_path / TOC_FILE))["case_edges"].copy()
        keys = dict(np.load(store_path / TOC_FILE))["case_keys"].copy()
        # Swap the last edge's identity in the TOC only; the segment
        # record still carries the true edge and must contradict it.
        edges[-1] = (4000, 4001)
        keys[-1] = np.uint64((4000 << 32) | 4001)
        _retoc(store_path, case_edges=edges, case_keys=keys)
        store = SegmentStore(store_path)
        with pytest.raises(StoreError, match="mismatch"):
            store.load_case(4000, 4001)

    def test_missing_toc_is_rejected(self, store_path):
        (store_path / TOC_FILE).unlink()
        with pytest.raises(StoreError):
            SegmentStore(store_path)

    def test_wrong_format_version_is_rejected(self, store_path):
        _retoc(store_path, format_version=np.int64(99))
        with pytest.raises(StoreError, match="version"):
            SegmentStore(store_path)

    def test_labeling_vertex_count_must_match_toc(self, graph, tmp_path):
        # A labeling copied in from another store must not be paired
        # with this store's TOC and answer queries.
        small, _ = build_sief_sharded(graph, tmp_path / "small")
        big = generators.erdos_renyi_gnm(45, 90, seed=11)
        other, _ = build_sief_sharded(big, tmp_path / "big")
        (small / LABELING_FILE).write_bytes(
            (other / LABELING_FILE).read_bytes()
        )
        store = SegmentStore(small)
        with pytest.raises(StoreError, match="vertices"):
            store.labeling()
        with pytest.raises(StoreError):
            SIEFIndex.load(small)


class TestIndexEquality:
    """``SIEFIndex.__eq__`` replaces byte digests, so it must catch every
    single-field change a digest would, across supplement classes.

    Each tampered index is a fresh build: supplemental labels only ever
    grow (the contract ``SupplementalIndex.flat`` caches on), so edits
    are made before anything reads the flat view.
    """

    @pytest.fixture
    def built(self, tmp_path):
        # Two components, so some failed edges are bridges.
        g = generators.compose_disjoint(
            [generators.erdos_renyi_gnm(16, 30, seed=5),
             generators.path_graph(4)]
        )
        index = build_sief(g)
        loaded = SIEFIndex.load(write_index(index, tmp_path / "idx").path)
        return g, index, loaded

    def test_equal_across_supplement_classes(self, built):
        g, index, loaded = built
        assert index == loaded and loaded == index
        assert not (index != loaded)
        assert build_sief(g) == loaded

    def test_changed_supplemental_dist_is_unequal(self, built):
        g, index, loaded = built
        tampered = build_sief(g)
        si = next(s for _e, s in tampered.iter_cases() if s.total_entries())
        sl = next(sl for _v, sl in si.iter_labels() if len(sl))
        sl.dists[0] += 1
        assert tampered != index and tampered != loaded

    def test_moved_affected_vertex_is_unequal(self, built):
        g, index, loaded = built
        tampered = build_sief(g)
        si = next(
            s for _e, s in tampered.iter_cases() if len(s.affected.side_u) > 1
        )
        av = si.affected
        si.affected = dataclasses.replace(
            av,
            side_u=av.side_u[:-1],
            side_v=tuple(sorted(av.side_v + av.side_u[-1:])),
        )
        assert tampered != index and tampered != loaded

    def test_flipped_disconnected_flag_is_unequal(self, built):
        g, index, loaded = built
        assert any(s.affected.disconnected for _e, s in index.iter_cases())
        tampered = build_sief(g)
        _edge, si = next(tampered.iter_cases())
        si.affected = dataclasses.replace(
            si.affected, disconnected=not si.affected.disconnected
        )
        assert tampered != index and tampered != loaded

    def test_missing_case_or_other_labeling_is_unequal(self, built):
        g, index, loaded = built
        fewer = build_sief(g)
        fewer.supplements.pop(next(iter(fewer.supplements)))
        assert fewer != index and fewer != loaded
        other = build_sief(g)
        other.labeling = build_pll(generators.path_graph(24))
        assert other != index and other != loaded
