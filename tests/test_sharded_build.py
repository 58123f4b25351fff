"""Sharded out-of-core build conformance (ISSUE 9).

Whatever the shard size — one case per shard, a handful, or everything
in one shard — the rebuilt store must equal the in-RAM build, and the build report / observability counters must describe the
spill truthfully.
"""

from __future__ import annotations

import math

import pytest

from repro.core.builder import build_sief
from repro.core.segstore import SegmentStore, build_sief_sharded
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.obs import hooks, installed
from repro.order.strategies import by_degree


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    before = (hooks.registry, hooks.tracer)
    yield
    assert (hooks.registry, hooks.tracer) == before


@pytest.fixture(scope="module")
def graph():
    return generators.barabasi_albert(48, 2, seed=13)


@pytest.fixture(scope="module")
def reference(graph):
    return build_sief(graph, build_pll(graph, by_degree(graph)))


@pytest.mark.parametrize("shard_size", [1, 5, 10_000])
def test_bit_identical_across_shard_sizes(
    graph, reference, tmp_path, shard_size
):
    path, report = build_sief_sharded(
        graph, tmp_path / "store", shard_size=shard_size
    )
    assert SegmentStore(path).to_index() == reference
    assert report.num_cases == graph.num_edges
    assert report.num_shards == math.ceil(graph.num_edges / shard_size)
    assert report.max_resident_cases <= shard_size


def test_shards_count_picks_shard_size(graph, reference, tmp_path):
    path, report = build_sief_sharded(graph, tmp_path / "store", shards=4)
    assert report.num_shards == 4
    assert SegmentStore(path).to_index() == reference


def test_edge_subset_build(graph, tmp_path):
    edges = sorted(graph.edges())[::3]
    labeling = build_pll(graph, by_degree(graph))
    reference = build_sief(graph, labeling, edges=edges)
    path, report = build_sief_sharded(
        graph, tmp_path / "store", labeling=labeling, edges=edges, shard_size=4
    )
    assert report.num_cases == len(edges)
    assert SegmentStore(path).to_index() == reference


def test_parallel_sharded_build_is_identical(graph, reference, tmp_path):
    path, _ = build_sief_sharded(
        graph, tmp_path / "store", shard_size=11, jobs=2
    )
    assert SegmentStore(path).to_index() == reference


def test_spill_metrics_are_recorded(graph, tmp_path):
    with installed() as reg:
        _, report = build_sief_sharded(graph, tmp_path / "store", shard_size=7)
        assert reg.counter_value("sief.ooc.shards") == report.num_shards
        assert reg.counter_value("sief.ooc.spilled_cases") == report.num_cases
        assert (
            reg.counter_value("sief.ooc.spilled_bytes") == report.spilled_bytes
        )
        assert (
            reg.gauge("sief.ooc.max_resident_cases").value
            == report.max_resident_cases
        )
    assert report.spilled_bytes > 0
    assert report.build_seconds >= 0.0
    # The IDENTIFY/RELABEL split sums the per-shard build reports.
    assert 0.0 < report.identify_seconds + report.relabel_seconds
    assert report.identify_seconds + report.relabel_seconds <= (
        report.build_seconds
    )


def test_store_suffix_is_appended(graph, tmp_path):
    path, _ = build_sief_sharded(graph, tmp_path / "plain", shard_size=50)
    assert path.name.endswith(".siefseg")
