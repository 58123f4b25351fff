"""Distance query evaluation on a SIEF index (§4.4 of the paper).

Given a failed edge ``(u, v)`` and a pair ``(s, t)``, classify the query
by affected-side membership (binary search on the sorted sides):

* **Case 1** — neither endpoint affected: answer from the original index.
* **Case 2** — exactly one endpoint affected: distances between an
  affected and an unaffected vertex never change (Lemma 6); original
  index.
* **Case 3** — both endpoints on the *same* side: same-side distances are
  unchanged; original index.
* **Case 4** — endpoints on *opposite* sides: the only changed distances.
  With ``σ[s] < σ[t]``, every relevant hub lives in ``SL(t)`` on ``s``'s
  side, so ``d_{G'}(s, t) = min over (h, δ) ∈ SL(t) of dist(s, h, L) + δ``
  (``∞`` when the supplement holds no usable hub — the failure
  disconnected the pair).
"""

from __future__ import annotations

import enum
import time
from typing import Sequence, Tuple, Union

import numpy as np

from repro.core.index import SIEFIndex
from repro.core.supplemental import SupplementalLabels
from repro.labeling.query import (
    _SCALAR_BATCH_THRESHOLD,
    INF,
    _ragged_gather,
    batch_dist_query,
    batch_dist_validated,
    dist_query,
    validate_pairs,
)
from repro.obs import hooks as _obs
from repro.obs.metrics import SIZE_EDGES

Distance = Union[int, float]


def _member_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``vals`` in a sorted unique array."""
    if sorted_arr.size == 0:
        return np.zeros(vals.shape, dtype=bool)
    pos = sorted_arr.searchsorted(vals)
    np.minimum(pos, sorted_arr.size - 1, out=pos)
    return sorted_arr[pos] == vals


class QueryCase(enum.Enum):
    """Which of the paper's four §4.4 cases a query fell into."""

    UNAFFECTED_PAIR = 1
    ONE_AFFECTED = 2
    SAME_SIDE = 3
    CROSS_SIDES = 4


class SIEFQueryEngine:
    """Answers ``d_{G - e}(s, t)`` from a :class:`SIEFIndex`.

    Stateless apart from the index reference; safe to share.
    """

    __slots__ = ("index",)

    def __init__(self, index: SIEFIndex) -> None:
        self.index = index

    def distance(self, s: int, t: int, failed_edge: Tuple[int, int]) -> Distance:
        """Shortest-path distance between ``s`` and ``t`` avoiding one edge.

        Same answer as :meth:`distance_with_case` without the case report
        — this is the latency-critical entry point Table 4 measures, so
        it avoids the tuple allocation and duplicate branching.  With no
        metrics registry installed the only instrumentation cost is the
        ``is None`` test below.
        """
        reg = _obs.registry
        if reg is not None:
            return self._distance_instrumented(s, t, failed_edge, reg)
        index = self.index
        si = index.supplement(*failed_edge)
        affected = si.affected
        side_s = affected.contains(s)
        if side_s is not None:
            side_t = affected.contains(t)
            if side_t is not None and side_t != side_s:
                if s == t:
                    return 0
                labeling = index.labeling
                if labeling.ordering.precedes(s, t):
                    return _case4_eval(labeling, si.get(t), s)
                return _case4_eval(labeling, si.get(s), t)
        return dist_query(index.labeling, s, t)

    def _distance_instrumented(
        self, s: int, t: int, failed_edge: Tuple[int, int], reg
    ) -> Distance:
        """:meth:`distance` with per-query metrics (registry installed).

        Mirrors the classification in :meth:`distance` exactly; the
        conformance harness's instrumented adapters assert metrics-on
        answers equal metrics-off answers, which pins the two bodies
        together.
        """
        t0 = time.perf_counter()
        index = self.index
        si = index.supplement(*failed_edge)
        affected = si.affected
        side_s = affected.contains(s)
        cross = False
        if side_s is not None:
            side_t = affected.contains(t)
            cross = side_t is not None and side_t != side_s
        if not cross:
            result = dist_query(index.labeling, s, t)
        elif s == t:
            result = 0
        else:
            labeling = index.labeling
            if labeling.ordering.precedes(s, t):
                sl, low = si.get(t), s
            else:
                sl, low = si.get(s), t
            reg.histogram("sief.query.case4_hubs", SIZE_EDGES).observe(
                len(sl.ranks)
            )
            result = _case4_eval(labeling, sl, low)
        if cross:
            reg.counter("sief.query.cross_side").inc()
        reg.counter("sief.query.scalar").inc()
        reg.histogram("sief.query.scalar_seconds").observe(
            time.perf_counter() - t0
        )
        return result

    def batch_query(
        self,
        failed_edge: Tuple[int, int],
        pairs: Sequence[Tuple[int, int]],
    ) -> np.ndarray:
        """Vectorized ``d_{G - e}(s, t)`` for many pairs under one failure.

        The §4.4 classification runs as array operations: sorted-side
        membership is one ``searchsorted`` per side over all endpoints
        (read from the supplement's cached int64 sides), Case 1–3 pairs are
        answered in a single :func:`batch_dist_query` pass over the
        original labeling, and only the Case 4 (cross-side) pairs touch
        the supplemental labels — their ``SL(high)`` slices are gathered
        from the flat supplement and folded through one more batch label
        query.  The labeling is frozen in place on first use.  Batches
        of fewer than ``_SCALAR_BATCH_THRESHOLD`` pairs, where numpy's
        per-call cost outweighs the work, are classified pair by pair
        against the same side arrays instead (:meth:`_small_batch`).

        Returns a ``float64`` array (``numpy.inf`` for disconnected
        pairs) with exactly the values :meth:`distance` returns pairwise.
        """
        reg = _obs.registry
        t_start = time.perf_counter() if reg is not None else 0.0
        index = self.index
        p = validate_pairs(pairs, index.labeling.num_vertices)
        if p.size == 0:
            return np.zeros(0, dtype=np.float64)
        labeling = index.labeling
        if labeling.offsets is None:
            labeling.freeze()
        si = index.supplement(*failed_edge)
        with _obs.span("sief.query.batch"):
            k = len(p)
            if k < _SCALAR_BATCH_THRESHOLD:
                out, n_cross = self._small_batch(si, p)
            else:
                out, n_cross = self._vector_batch(si, p)
        if reg is not None:
            reg.counter("sief.query.batch_calls").inc()
            reg.counter("sief.query.batch_pairs").inc(k)
            reg.counter("sief.query.cross_side").inc(n_cross)
            reg.histogram("sief.query.batch_size", SIZE_EDGES).observe(k)
            reg.histogram("sief.query.batch_seconds").observe(
                time.perf_counter() - t_start
            )
        return out

    def _small_batch(self, si, p: np.ndarray) -> Tuple[np.ndarray, int]:
        """The §4.4 classification one pair at a time; ``(out, cross)``.

        Same cases as :meth:`distance`, but membership is a binary search
        on ``si.side_arrays()``, so a store-backed supplement never
        builds its ``affected`` tuples.
        """
        labeling = self.index.labeling
        side_u, side_v = si.side_arrays()
        out = np.empty(len(p), dtype=np.float64)
        cross = 0
        for i, (s, t) in enumerate(p.tolist()):
            side_s = _side_of(side_u, side_v, s) if s != t else 0
            if side_s:
                side_t = _side_of(side_u, side_v, t)
                if side_t and side_t != side_s:
                    cross += 1
                    if labeling.ordering.precedes(s, t):
                        out[i] = _case4_eval(labeling, si.get(t), s)
                    else:
                        out[i] = _case4_eval(labeling, si.get(s), t)
                    continue
            out[i] = dist_query(labeling, s, t)
        return out, cross

    def _vector_batch(self, si, p: np.ndarray) -> Tuple[np.ndarray, int]:
        """The §4.4 classification as array operations; ``(out, cross)``."""
        labeling = self.index.labeling
        k = len(p)
        s = p[:, 0]
        t = p[:, 1]
        # Endpoints as one [s; t] array: one searchsorted per side.
        ends = p.T.ravel()
        side_u, side_v = si.side_arrays()
        in_u = _member_sorted(side_u, ends)
        in_v = _member_sorted(side_v, ends)
        cross = ((in_u[:k] & in_v[k:]) | (in_v[:k] & in_u[k:])) & (s != t)
        n_cross = int(cross.sum())
        if not n_cross:
            return batch_dist_validated(labeling, p), 0
        out = np.empty(k, dtype=np.float64)
        rest = ~cross
        if n_cross < k:
            out[rest] = batch_dist_validated(labeling, p[rest])
        out[cross] = self._batch_case4(si, s[cross], t[cross])
        return out, n_cross

    def _batch_case4(
        self, si, s: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Case 4 evaluation for cross-side pairs, fully vectorized.

        For each pair the lower-ranked endpoint reads the higher-ranked
        one's supplemental label: gather every ``SL(high)`` slice from
        the flat supplement, answer ``dist(low, h, L)`` for all hubs in
        one batch label query, add the supplemental ``δ`` and min-reduce
        per pair.
        """
        labeling = self.index.labeling
        ordering = labeling.ordering
        rank_of = ordering.rank_array()
        vertex_at = ordering.vertex_array()

        swap = rank_of[s] > rank_of[t]
        low = np.where(swap, t, s)
        high = np.where(swap, s, t)

        flat = si.flat()
        result = np.full(len(s), np.inf, dtype=np.float64)
        if flat.vertices.size == 0:
            return result
        pos = np.searchsorted(flat.vertices, high)
        inb = pos < flat.vertices.size
        has = np.zeros(len(high), dtype=bool)
        has[inb] = flat.vertices[pos[inb]] == high[inb]
        if not has.any():
            return result
        # Ragged-gather the stored SL slices of the pairs that have one.
        slot = pos[has]
        pseudo_offsets = flat.offsets
        idx, pid_local = _ragged_gather(pseudo_offsets, slot)
        if idx.size == 0:
            return result
        pair_ids = np.nonzero(has)[0][pid_local]
        hub_vertices = vertex_at[flat.ranks[idx]]
        qpairs = np.stack([low[pair_ids], hub_vertices], axis=1)
        via = batch_dist_query(labeling, qpairs)
        totals = via + flat.dists[idx]
        np.minimum.at(result, pair_ids, totals)
        return result

    def distance_with_case(
        self, s: int, t: int, failed_edge: Tuple[int, int]
    ) -> Tuple[Distance, QueryCase]:
        """Like :meth:`distance` but also reports the §4.4 case taken."""
        result = self._distance_with_case_impl(s, t, failed_edge)
        reg = _obs.registry
        if reg is not None:
            reg.counter(
                f"sief.query.case.{result[1].name.lower()}"
            ).inc()
        return result

    def _distance_with_case_impl(
        self, s: int, t: int, failed_edge: Tuple[int, int]
    ) -> Tuple[Distance, QueryCase]:
        labeling = self.index.labeling
        si = self.index.supplement(*failed_edge)
        affected = si.affected
        side_s = affected.contains(s)
        side_t = affected.contains(t)

        if side_s is None and side_t is None:
            return dist_query(labeling, s, t), QueryCase.UNAFFECTED_PAIR
        if side_s is None or side_t is None:
            return dist_query(labeling, s, t), QueryCase.ONE_AFFECTED
        if side_s == side_t:
            return dist_query(labeling, s, t), QueryCase.SAME_SIDE

        if s == t:  # cannot happen across disjoint sides, but be explicit
            return 0, QueryCase.CROSS_SIDES
        # Case 4: the lower-ranked endpoint reads the higher-ranked one's
        # supplemental label.
        if labeling.ordering.precedes(s, t):
            low, high = s, t
        else:
            low, high = t, s
        return (
            _case4_eval(labeling, si.get(high), low),
            QueryCase.CROSS_SIDES,
        )


def _side_of(side_u: np.ndarray, side_v: np.ndarray, x: int) -> int:
    """1 if ``x`` is on side u, 2 if on side v, 0 if unaffected."""
    pos = side_u.searchsorted(x)
    if pos < side_u.size and side_u[pos] == x:
        return 1
    pos = side_v.searchsorted(x)
    if pos < side_v.size and side_v[pos] == x:
        return 2
    return 0


def _case4_eval(labeling, sl: SupplementalLabels, low: int) -> Distance:
    """``min over (h, δ) ∈ SL(high) of dist(low, h, L) + δ``.

    Exactness: when the pair ``(low, high)`` was processed during
    construction, either its exact entry was appended to ``SL(high)`` or
    the redundancy test certified that entries already present achieve
    the exact value; entries are never removed afterwards.  Hubs share
    ``low``'s side, so ``dist(low, h, L)`` is valid in ``G'``.
    """
    vertex = labeling.ordering.vertex
    best: Distance = INF
    for h_rank, delta in zip(sl.ranks, sl.dists):
        via = dist_query(labeling, low, vertex(h_rank))
        total = via + delta
        if total < best:
            best = total
    return best
