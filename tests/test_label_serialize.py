"""Labeling persistence: a zero-case segment store round trip.

The store's ``labeling.npz`` is the one persisted form of a labeling
(:class:`~repro.core.segstore.SegmentWriter` writes it, and
:meth:`~repro.core.segstore.SegmentStore.labeling` maps it back).
"""

from __future__ import annotations

import pytest

from repro.core.segstore import LABELING_FILE, SegmentStore, SegmentWriter
from repro.exceptions import StoreError
from repro.graph import generators
from repro.labeling.label import Labeling
from repro.labeling.pll import build_pll
from repro.labeling.stats import labeling_bytes
from repro.order.ordering import VertexOrdering


@pytest.fixture
def labeling():
    g = generators.erdos_renyi_gnm(30, 60, seed=21)
    return build_pll(g)


def _write(tmp_path, labeling):
    """A zero-case store holding a copy of ``labeling``; returns its path."""
    return SegmentWriter(tmp_path / "lab", labeling.copy()).finalize()


def _round_trip(tmp_path, labeling):
    return SegmentStore(_write(tmp_path, labeling)).labeling()


def test_binary_round_trip(tmp_path, labeling):
    assert _round_trip(tmp_path, labeling) == labeling


def test_binary_round_trip_paper(tmp_path, paper_labeling):
    assert _round_trip(tmp_path, paper_labeling) == paper_labeling


def test_file_round_trip(tmp_path, labeling):
    path = _write(tmp_path, labeling)
    assert path == tmp_path / "lab.siefseg"
    assert SegmentStore(path).num_cases == 0
    assert SegmentStore(path).labeling() == labeling


def test_binary_size_matches_byte_model(tmp_path, labeling):
    """The stored labeling tracks the modelled 8 B/entry + overhead."""
    size = (_write(tmp_path, labeling) / LABELING_FILE).stat().st_size
    modelled = labeling_bytes(labeling.total_entries(), labeling.num_vertices)
    # hubs + dists are 4 B each per entry, as modelled; per vertex the
    # store keeps an int64 offset and an int32 ordering slot (12 B, the
    # model charges 8); the rest is one zip + npy header per member.
    headers = size - modelled - 4 * labeling.num_vertices
    assert 0 <= headers <= 1536


def test_bad_magic_rejected(tmp_path, labeling):
    path = _write(tmp_path, labeling)
    (path / LABELING_FILE).write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(StoreError, match="labeling"):
        SegmentStore(path).labeling()


def test_truncated_blob_rejected(tmp_path, labeling):
    path = _write(tmp_path, labeling)
    blob = (path / LABELING_FILE).read_bytes()
    (path / LABELING_FILE).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(StoreError):
        SegmentStore(path).labeling()


def test_empty_labeling_round_trip(tmp_path):
    empty = Labeling.empty(VertexOrdering([1, 0, 2]))
    assert _round_trip(tmp_path, empty) == empty
