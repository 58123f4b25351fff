"""Unit tests for SIEF statistics and index persistence."""

from __future__ import annotations

import pytest

from repro.exceptions import StoreError
from repro.graph import generators
from repro.graph.traversal import UNREACHED, bfs_distances_avoiding_edge
from repro.labeling.query import INF
from repro.labeling.stats import BYTES_PER_ENTRY
from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine
from repro.core.index import SIEFIndex
from repro.core.segstore import SEGMENTS_FILE, TOC_FILE, write_index
from repro.core.stats import sief_stats, supplemental_bytes


@pytest.fixture
def built(paper_graph, paper_labeling):
    return SIEFBuilder(paper_graph, paper_labeling).build()


class TestStats:
    def test_counts(self, built, paper_graph, paper_labeling):
        index, report = built
        stats = sief_stats(index, report)
        assert stats.num_vertices == 11
        assert stats.num_cases == paper_graph.num_edges
        assert stats.original_entries == paper_labeling.total_entries()
        assert stats.supplemental_entries == (
            index.total_supplemental_entries()
        )

    def test_byte_model(self, built):
        index, _ = built
        assert supplemental_bytes(index) >= (
            index.total_supplemental_entries() * BYTES_PER_ENTRY
        )

    def test_ratio(self, built):
        index, report = built
        stats = sief_stats(index, report)
        assert stats.slen_over_olen == pytest.approx(
            stats.supplemental_entries / stats.original_entries
        )

    def test_total_bytes_is_sum(self, built):
        stats = sief_stats(built[0], built[1])
        assert stats.total_bytes == (
            stats.original_bytes + stats.supplemental_bytes
        )

    def test_without_report_uses_index_averages(self, built):
        index, report = built
        with_report = sief_stats(index, report)
        without = sief_stats(index)
        assert without.avg_affected_per_case == pytest.approx(
            with_report.avg_affected_per_case
        )

    def test_as_dict(self, built):
        d = sief_stats(built[0]).as_dict()
        assert {"supplemental_entries", "slen_over_olen", "total_bytes"} <= (
            set(d)
        )


class TestSerialize:
    """Round trips through the segment store, the one persisted format."""

    def test_round_trip_structure(self, built, tmp_path):
        index, _ = built
        loaded = _round_trip(index, tmp_path)
        assert loaded.labeling == index.labeling
        assert loaded.num_cases == index.num_cases
        assert loaded == index

    def test_round_trip_answers_queries(self, built, paper_graph, tmp_path):
        index, _ = built
        engine = SIEFQueryEngine(_round_trip(index, tmp_path))
        for u, v in paper_graph.edges():
            truth = bfs_distances_avoiding_edge(paper_graph, 0, (u, v))
            for t in range(11):
                expected = truth[t] if truth[t] != UNREACHED else INF
                assert engine.distance(0, t, (u, v)) == expected

    def test_file_round_trip(self, built, tmp_path):
        index, _ = built
        writer = write_index(index, tmp_path / "index")
        assert writer.path == tmp_path / "index.siefseg"
        assert writer.num_cases == index.num_cases
        loaded = SIEFIndex.load(writer.path)
        assert loaded.num_cases == index.num_cases

    def test_bad_magic(self, built, tmp_path):
        # An unreadable table of contents refuses to open.
        path = write_index(built[0], tmp_path / "index").path
        (path / TOC_FILE).write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(StoreError, match="TOC"):
            SIEFIndex.load(path)

    def test_truncated(self, built, tmp_path):
        path = write_index(built[0], tmp_path / "index").path
        seg = path / SEGMENTS_FILE
        seg.write_bytes(seg.read_bytes()[:40])
        with pytest.raises(StoreError, match="truncated"):
            SIEFIndex.load(path)

    def test_round_trip_random_graph(self, tmp_path):
        g = generators.erdos_renyi_gnm(16, 30, seed=17)
        index, _ = SIEFBuilder(g).build()
        assert _round_trip(index, tmp_path) == index


def _round_trip(index, tmp_path):
    return SIEFIndex.load(write_index(index, tmp_path / "index").path)
