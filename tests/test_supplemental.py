"""Unit tests for the supplemental label data structures."""

from __future__ import annotations

import pytest

from repro.exceptions import IndexError_
from repro.core.affected import AffectedVertices
from repro.core.supplemental import SupplementalIndex, SupplementalLabels


@pytest.fixture
def affected():
    return AffectedVertices(u=0, v=5, side_u=(0, 2), side_v=(5, 7))


class TestSupplementalLabels:
    def test_append_in_rank_order(self):
        sl = SupplementalLabels([], [])
        sl.append(1, 4)
        sl.append(3, 2)
        assert sl.pairs() == [(1, 4), (3, 2)]
        assert len(sl) == 2

    def test_out_of_order_append_rejected(self):
        sl = SupplementalLabels([2], [1])
        with pytest.raises(IndexError_, match="ascending rank"):
            sl.append(2, 5)
        with pytest.raises(IndexError_):
            sl.append(1, 5)


class TestSupplementalIndex:
    def test_edge_property(self, affected):
        si = SupplementalIndex(affected)
        assert si.edge == (0, 5)

    def test_label_of_creates_once(self, affected):
        si = SupplementalIndex(affected)
        a = si.label_of(7)
        b = si.label_of(7)
        assert a is b

    def test_get_returns_empty_for_missing(self, affected):
        si = SupplementalIndex(affected)
        assert len(si.get(99)) == 0

    def test_drop_empty(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(7)          # stays empty
        si.label_of(5).append(0, 3)
        si.drop_empty()
        assert set(si.labels) == {5}

    def test_total_entries(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        si.label_of(7).append(0, 2)
        si.label_of(7).append(1, 2)
        assert si.total_entries() == 3

    def test_iter_labels_sorted_by_vertex(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(7).append(0, 1)
        si.label_of(5).append(0, 1)
        assert [v for v, _ in si.iter_labels()] == [5, 7]

    def test_equality_ignores_empty_labels(self, affected):
        a = SupplementalIndex(affected)
        a.label_of(5).append(0, 3)
        a.label_of(7)  # empty
        b = SupplementalIndex(affected)
        b.label_of(5).append(0, 3)
        assert a == b

    def test_inequality_on_different_entries(self, affected):
        a = SupplementalIndex(affected)
        a.label_of(5).append(0, 3)
        b = SupplementalIndex(affected)
        b.label_of(5).append(0, 4)
        assert a != b

    def test_repr(self, affected):
        si = SupplementalIndex(affected)
        assert "SupplementalIndex" in repr(si)


class TestFlatCache:
    """``flat()`` is one attribute read on a hit and rebuilt after every
    mutation, so a cached view never goes stale."""

    def _contents(self, flat):
        return [a.tolist() for a in flat]

    def test_cache_hit_returns_same_object(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        first = si.flat()
        assert si.flat() is first
        assert si.flat() is first

    def test_new_label_rebuilds(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        first = si.flat()
        si.label_of(7).append(1, 2)
        second = si.flat()
        assert second is not first
        assert self._contents(second) == [[5, 7], [0, 1, 2], [0, 1], [3, 2]]

    def test_append_to_held_label_rebuilds(self, affected):
        si = SupplementalIndex(affected)
        label = si.label_of(5)
        label.append(0, 3)
        first = si.flat()
        label.append(2, 4)  # the reference was taken before the flat view
        second = si.flat()
        assert second is not first
        assert self._contents(second) == [[5], [0, 2], [0, 2], [3, 4]]

    def test_drop_empty_rebuilds(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        si.label_of(7)
        first = si.flat()
        si.drop_empty()
        second = si.flat()
        assert second is not first
        assert self._contents(second) == self._contents(first)

    def test_new_affected_rebuilds(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        first = si.flat()
        sides = si.side_arrays()
        si.affected = AffectedVertices(u=0, v=5, side_u=(0,), side_v=(5, 9))
        assert si.flat() is not first
        assert si.side_arrays() is not sides
        assert si.side_arrays()[1].tolist() == [5, 9]

    def test_new_labels_dict_rebuilds(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        first = si.flat()
        si.labels = {7: SupplementalLabels([1], [6])}
        assert self._contents(si.flat()) == [[7], [0, 1], [1], [6]]
        assert si.flat() is not first

    def test_cache_link_is_not_part_of_equality(self, affected):
        si = SupplementalIndex(affected)
        si.label_of(5).append(0, 3)
        assert si.get(5) == SupplementalLabels([0], [3])
