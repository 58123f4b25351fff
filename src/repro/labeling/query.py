"""Distance query evaluation over 2-hop labelings (Equation 1).

``dist(s, t, L) = min { δ(h,s) + δ(h,t) : h ∈ hubs(s) ∩ hubs(t) }`` — a
merge join of two ascending rank arrays.  Returns :data:`INF` when the
labels share no hub, which for a distance cover means "different
components" (§3.2 of the paper).

Two evaluation paths share this module:

* :func:`dist_query` — one pair at a time.  On a thawed labeling it
  merge-joins the per-vertex lists; on a frozen labeling it reuses the
  batch path's dense hub-prefix matrix (built lazily on first use, see
  below): the sub-:data:`_DENSE_HUB_WIDTH` half of Equation 1 is one
  vectorized ``min(D[s] + D[t])`` over two short rows, and only the
  residual high-rank tails go through the scalar merge join.  Labelings
  the dense matrix cannot represent (float or very large distances)
  fall back to a merge join / ``searchsorted`` intersection chosen by
  label size.
* :func:`batch_dist_query` — many pairs per call, vectorized over the
  frozen flat arrays.  Two tricks keep it memory-friendly (the join
  touches ``O(sum of label sizes)`` data, so bandwidth, not FLOPs, is
  the budget):

  - **chunking** — pairs are processed ~2k at a time so every expanded
    intermediate (ragged gather, composite keys, join positions) stays
    cache-resident instead of streaming tens of MB through DRAM;
  - **dense hub prefix** — hub ranks are ascending within each label,
    so entries with rank below :data:`_DENSE_HUB_WIDTH` form a prefix
    of every row.  Those land in a lazily built ``(n, H)`` ``int16``
    distance matrix (``_DENSE_INF`` marks "hub not in label"), and the
    dense half of Equation 1 becomes ``min(D[s] + D[t])`` — no
    expansion at all.  Only the rank-``>= H`` residual tail goes
    through the sparse sorted-key join (``searchsorted`` +
    ``minimum.reduceat``).  On scale-free orderings the dense prefix
    absorbs roughly half of all label entries.

  The dense matrix only applies to integral distances that fit the
  ``int16`` sentinel arithmetic; weighted (float) labelings fall back
  to the pure sparse join, which is exact for any dtype.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro import kernels as _kernels
from repro.obs import hooks as _obs
from repro.obs.metrics import SIZE_EDGES

INF = float("inf")
"""Distance reported for disconnected pairs."""

Distance = Union[int, float]

VECTOR_LABEL_THRESHOLD = 64
"""Minimum label size (both sides) before the scalar path on a frozen
labeling switches from the merge join to a numpy set intersection."""

_SCALAR_BATCH_THRESHOLD = 4
"""Batches smaller than this skip array setup and loop scalar queries."""

_BATCH_CHUNK = 2048
"""Pairs evaluated per chunk of :func:`batch_dist_query`.  Sized so the
expanded per-chunk intermediates (a few entries × avg label size × 8 B)
stay within CPU cache — the join is bandwidth-bound, and chunking it is
worth ~10x over one monolithic pass at 200k pairs."""

_DENSE_HUB_WIDTH = 256
"""Hub ranks below this are served from the dense prefix matrix."""

_DENSE_INF = np.int16(16000)
"""Sentinel for "hub absent" in the dense matrix.  Two sentinels sum to
32000, still inside ``int16`` — so ``min(D[s] + D[t])`` needs no masking."""

_DENSE_MAX_DIST = 8000
"""Largest distance the dense path can represent (guards the sentinel
arithmetic); labelings with larger or float distances skip the dense
matrix entirely."""


def merge_min_sum(
    ranks_a: List[int],
    dists_a: List[Distance],
    ranks_b: List[int],
    dists_b: List[Distance],
) -> Distance:
    """Minimum ``dists_a[i] + dists_b[j]`` over positions with equal ranks.

    Both rank arrays must be strictly ascending (the labeling invariant).
    """
    best: Distance = INF
    i = j = 0
    len_a = len(ranks_a)
    len_b = len(ranks_b)
    while i < len_a and j < len_b:
        ra = ranks_a[i]
        rb = ranks_b[j]
        if ra == rb:
            total = dists_a[i] + dists_b[j]
            if total < best:
                best = total
            i += 1
            j += 1
        elif ra < rb:
            i += 1
        else:
            j += 1
    return best


def _merge_min_sum_flat(labeling, s: int, t: int) -> Distance:
    """Frozen-backend scalar evaluation of Equation 1.

    With a dense hub-prefix matrix available (integral distances), the
    low-rank half is ``min(D[s] + D[t])`` — two 256-entry rows, one
    vectorized add — and only the residual high-rank tails are merge-
    joined as lists.  The dense prefix absorbs roughly half of every
    label on scale-free orderings, so the interpreted merge runs on a
    fraction of the entries; this is what makes the frozen scalar path
    faster than the list backend, not merely equal to it.

    Ineligible labelings (float or oversized distances) fall back to
    the original strategy: list merge join for small labels,
    ``searchsorted`` intersection once both slices hold ~64+ entries.
    """
    offsets = labeling.offsets
    hubs = labeling.hubs_flat
    dists = labeling.dists_flat
    cache = labeling._batch_cache
    if cache is None:
        cache = _get_batch_cache(labeling)
    if cache.dense is not None:
        res_hubs = cache.res_hubs
        if res_hubs is None:
            res_hubs = _materialize_residuals(labeling, cache)
        sums = cache.dense[s] + cache.dense[t]
        best = int(sums.min())
        ha = res_hubs[s]
        hb = res_hubs[t]
        if ha and hb:
            res_dists = cache.res_dists
            residual = merge_min_sum(ha, res_dists[s], hb, res_dists[t])
        else:
            residual = INF
        if best < _DENSE_INF:
            return best if best <= residual else residual
        return residual
    a0, a1 = int(offsets[s]), int(offsets[s + 1])
    b0, b1 = int(offsets[t]), int(offsets[t + 1])
    la = a1 - a0
    lb = b1 - b0
    if la == 0 or lb == 0:
        return INF
    if la < VECTOR_LABEL_THRESHOLD or lb < VECTOR_LABEL_THRESHOLD:
        return merge_min_sum(
            hubs[a0:a1].tolist(),
            dists[a0:a1].tolist(),
            hubs[b0:b1].tolist(),
            dists[b0:b1].tolist(),
        )
    ranks_a = hubs[a0:a1]
    ranks_b = hubs[b0:b1]
    pos = np.searchsorted(ranks_a, ranks_b)
    valid = pos < la
    hit = np.nonzero(valid)[0]
    hit = hit[ranks_a[pos[hit]] == ranks_b[hit]]
    if hit.size == 0:
        return INF
    wide = np.float64 if dists.dtype.kind == "f" else np.int64
    totals = dists[a0:a1][pos[hit]].astype(wide, copy=False) + dists[b0:b1][hit]
    return totals.min().item()


def dist_query(labeling, s: int, t: int) -> Distance:
    """``dist(s, t, L)`` for an undirected labeling.

    For a verified 2-hop distance cover this equals the true graph
    distance ``d_G(s, t)`` (or :data:`INF` across components).  Works on
    both backends; see the module docstring for how the frozen path
    evaluates.
    """
    reg = _obs.registry
    if reg is not None:
        # Hub-scan length: entries Equation 1 walks for this pair.
        if labeling.offsets is not None:
            offsets = labeling.offsets
            scanned = int(
                (offsets[s + 1] - offsets[s]) + (offsets[t + 1] - offsets[t])
            )
        else:
            scanned = len(labeling.hub_ranks[s]) + len(labeling.hub_ranks[t])
        reg.counter("label.query.scalar").inc()
        reg.histogram("label.query.hub_scan", SIZE_EDGES).observe(scanned)
    if s == t:
        return 0
    if labeling.offsets is not None:
        return _merge_min_sum_flat(labeling, s, t)
    return merge_min_sum(
        labeling.hub_ranks[s],
        labeling.hub_dists[s],
        labeling.hub_ranks[t],
        labeling.hub_dists[t],
    )


def dist_query_directed(dlabeling, s: int, t: int) -> Distance:
    """``dist(s → t)`` for a directed labeling (out-label of s, in-label of t)."""
    if s == t:
        return 0
    return merge_min_sum(
        dlabeling.out_ranks[s],
        dlabeling.out_dists[s],
        dlabeling.in_ranks[t],
        dlabeling.in_dists[t],
    )


def validate_pairs(pairs: Sequence[Tuple[int, int]], n: int) -> np.ndarray:
    """Normalize a pairs argument to an ``(k, 2)`` int64 array, checked.

    Shared by every batch entry point so malformed input fails with one
    clear message instead of a numpy index error deep in the join (or —
    worse — a silently wrong answer from negative-index wraparound).
    An empty input is allowed and returns an empty ``(0, 2)`` array.
    """
    p = np.asarray(pairs, dtype=np.int64)
    if p.size == 0:
        return p.reshape(0, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError(f"pairs must have shape (k, 2), got {p.shape}")
    if len(p) < _SCALAR_BATCH_THRESHOLD:
        # A few ids: Python's min/max beat two numpy reductions.
        ids = p.ravel().tolist()
        lo, hi = min(ids), max(ids)
    else:
        lo = int(p.min())
        hi = int(p.max())
    if lo < 0 or hi >= n:
        raise IndexError(
            f"pair vertex out of range for {n} vertices: "
            f"ids span [{lo}, {hi}], valid range is [0, {n - 1}]"
        )
    return p


def _ragged_gather(
    offsets: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices into the flat arrays covering ``L(v)`` for every ``v``.

    Returns ``(idx, pair_id)``: ``idx`` walks each queried label slice in
    order, ``pair_id[i]`` names the position in ``vertices`` that entry
    ``idx[i]`` belongs to.  Pure numpy — no per-vertex Python loop.
    """
    starts = offsets[vertices]
    counts = offsets[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    cum = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum[:-1], counts)
        + np.repeat(starts, counts)
    )
    pair_id = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    return idx, pair_id


class _BatchCache:
    """Per-labeling acceleration state for :func:`batch_dist_query`.

    ``dense`` is the ``(n, H)`` int16 hub-prefix distance matrix (or
    ``None`` when the labeling is ineligible — float/huge distances);
    ``res_start[v]`` is the flat index where the sparse residual of
    ``L(v)`` (entries with hub rank ``>= H``) begins, so the residual
    slice is ``[res_start[v], offsets[v+1])``.

    ``offsets_list`` / ``res_start_list`` mirror ``offsets`` and
    ``res_start`` as plain Python lists for the *scalar* frozen query
    path, whose per-call budget is a few microseconds — indexing a
    Python list there is several times cheaper than unboxing a numpy
    scalar.  They are only materialized when ``dense`` exists (the
    scalar fallback paths read ``offsets`` directly).

    ``res_hubs`` / ``res_dists`` are the per-vertex residual label
    slices as plain lists, filled in by the first scalar frozen query
    (batch-only users never pay for them): with the slices
    pre-materialized, the scalar residual merge runs straight on Python
    lists — no per-query ``ndarray.tolist`` — which is where the frozen
    scalar path wins over the thawed list backend.
    """

    __slots__ = (
        "dense",
        "res_start",
        "offsets_list",
        "res_start_list",
        "res_hubs",
        "res_dists",
    )

    def __init__(self, dense, res_start, offsets_list=None, res_start_list=None) -> None:
        self.dense = dense
        self.res_start = res_start
        self.offsets_list = offsets_list
        self.res_start_list = res_start_list
        self.res_hubs = None
        self.res_dists = None


def _get_batch_cache(labeling) -> _BatchCache:
    """Build (once) and return the batch acceleration cache.

    Stored on ``labeling._batch_cache``; :meth:`Labeling.thaw` clears it,
    so mutation always invalidates.  Cost is one pass over the flat
    arrays plus a 2-byte-per-cell matrix scatter.
    """
    cache = labeling._batch_cache
    if cache is not None:
        return cache
    offsets = labeling.offsets
    hubs = labeling.hubs_flat
    dists = labeling.dists_flat
    n = labeling.num_vertices
    width = min(_DENSE_HUB_WIDTH, n)
    eligible = (
        width > 0
        and hubs.size > 0
        and dists.dtype.kind in "iu"
        # Strict bound: two maximal distances must sum *below* the
        # absent-hub sentinel, or a farthest valid pair would be
        # indistinguishable from "no shared dense hub".
        and int(dists.max()) < _DENSE_MAX_DIST
    )
    if not eligible:
        cache = _BatchCache(None, offsets[:-1])
    else:
        counts = np.diff(offsets)
        row = np.repeat(np.arange(n, dtype=np.int64), counts)
        prefix = hubs < width
        dense = np.full((n, width), _DENSE_INF, dtype=np.int16)
        dense[row[prefix], hubs[prefix]] = dists[prefix]
        # Ranks ascend within each row, so the sub-`width` entries are a
        # prefix; its length per vertex comes from one cumsum of the mask.
        cum = np.zeros(hubs.size + 1, dtype=np.int64)
        np.cumsum(prefix, out=cum[1:])
        res_start = offsets[:-1] + (cum[offsets[1:]] - cum[offsets[:-1]])
        cache = _BatchCache(
            dense, res_start, offsets.tolist(), res_start.tolist()
        )
    labeling._batch_cache = cache
    return cache


def _materialize_residuals(labeling, cache: _BatchCache):
    """Fill ``cache.res_hubs`` / ``res_dists`` (one pass, then cached).

    One ``tolist`` of each flat array plus a list-slice per vertex —
    ``O(total entries)``, paid once by the first scalar frozen query.
    """
    starts = cache.res_start_list
    ends = cache.offsets_list
    hubs_l = labeling.hubs_flat.tolist()
    dists_l = labeling.dists_flat.tolist()
    n = labeling.num_vertices
    cache.res_hubs = [hubs_l[starts[v] : ends[v + 1]] for v in range(n)]
    cache.res_dists = [dists_l[starts[v] : ends[v + 1]] for v in range(n)]
    return cache.res_hubs


def _batch_chunk(
    best: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    offsets: np.ndarray,
    hubs: np.ndarray,
    dists: np.ndarray,
    n: int,
    cache: _BatchCache,
    wide,
) -> None:
    """Evaluate Equation 1 for one chunk of pairs into ``best`` (a view).

    ``best`` arrives as ``inf`` and leaves holding the chunk's minima;
    the caller fixes up ``s == t`` afterwards.
    """
    m = len(s)
    if cache.dense is not None:
        # Dense half: hubs with rank < H, no expansion.  Sentinel sums
        # (absent hub on either side) stay >= _DENSE_INF and are masked.
        sums = cache.dense[s] + cache.dense[t]
        dense_min = sums.min(axis=1)
        found = dense_min < _DENSE_INF
        best[found] = dense_min[found]

    # Sparse half: ragged gather of each pair's residual label slices.
    st_a = cache.res_start[s]
    cnt_a = offsets[s + 1] - st_a
    st_b = cache.res_start[t]
    cnt_b = offsets[t + 1] - st_b
    cum_a = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(cnt_a, out=cum_a[1:])
    cum_b = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(cnt_b, out=cum_b[1:])
    tot_a = int(cum_a[-1])
    tot_b = int(cum_b[-1])
    if tot_a == 0 or tot_b == 0:
        return
    idx_a = np.arange(tot_a, dtype=np.int64) - np.repeat(
        cum_a[:-1] - st_a, cnt_a
    )
    idx_b = np.arange(tot_b, dtype=np.int64) - np.repeat(
        cum_b[:-1] - st_b, cnt_b
    )
    # Composite (pair, hub) keys.  Within each side keys are globally
    # sorted and unique: pair blocks appear in order and hub ranks are
    # strictly ascending inside a block — so one searchsorted join finds
    # every shared hub without re-sorting.  int32 keys when they fit
    # (chunk * n < 2^31) halve the bandwidth of the search.
    if m * n < 2**31:
        key_t = np.int32
    else:
        key_t = np.int64
    pid_a = np.repeat(np.arange(m, dtype=key_t), cnt_a)
    pid_b = np.repeat(np.arange(m, dtype=key_t), cnt_b)
    keys_a = pid_a * key_t(n) + hubs[idx_a].astype(key_t, copy=False)
    keys_b = pid_b * key_t(n) + hubs[idx_b].astype(key_t, copy=False)
    pos = np.searchsorted(keys_a, keys_b)
    np.minimum(pos, keys_a.size - 1, out=pos)
    hit_b = np.flatnonzero(keys_a[pos] == keys_b)
    if hit_b.size == 0:
        return
    hit_a = pos[hit_b]
    totals = dists[idx_a[hit_a]].astype(wide, copy=False) + dists[idx_b[hit_b]]
    # Matched entries stay grouped by pair (keys_b was sorted by pair id),
    # so a segmented reduceat replaces the much slower minimum.at.
    seg = pid_b[hit_b]
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    mins = np.minimum.reduceat(totals, starts)
    tgt = seg[starts]
    best[tgt] = np.minimum(best[tgt], mins)


def batch_dist_query(labeling, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Vectorized ``dist(s, t, L)`` for many pairs at once.

    Parameters
    ----------
    labeling:
        A :class:`~repro.labeling.label.Labeling`.  Thawed labelings are
        frozen in place on first use (an ``O(total entries)`` one-time
        conversion).
    pairs:
        ``(k, 2)`` array-like of ``(s, t)`` vertex ids.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of length ``k``; ``numpy.inf`` marks
        disconnected pairs and ``0.0`` the ``s == t`` pairs.  Values are
        exact — identical to looping :func:`dist_query`.
    """
    return batch_dist_validated(
        labeling, validate_pairs(pairs, labeling.num_vertices)
    )


def batch_dist_validated(labeling, p: np.ndarray) -> np.ndarray:
    """:func:`batch_dist_query` over pairs :func:`validate_pairs` returned.

    For callers that validated the ids once already, so the hot path
    does not check them twice.
    """
    reg = _obs.registry
    t_start = time.perf_counter() if reg is not None else 0.0
    if p.size == 0:
        return np.zeros(0, dtype=np.float64)
    if labeling.offsets is None:
        labeling.freeze()
    k = len(p)
    if k < _SCALAR_BATCH_THRESHOLD:
        return np.fromiter(
            (dist_query(labeling, s, t) for s, t in p.tolist()),
            count=k,
            dtype=np.float64,
        )
    s = p[:, 0]
    t = p[:, 1]
    n = labeling.num_vertices
    offsets = labeling.offsets
    hubs = labeling.hubs_flat
    dists = labeling.dists_flat

    # Compiled hub-join: one kernel call over all pairs replaces the
    # chunked dense-prefix + sparse-residual machinery.  Exact for the
    # same reason the numpy path is — every candidate is a single
    # widened add, and the minimum over an identical candidate set is
    # bit-identical regardless of evaluation order.
    tier, kern = _kernels.resolve("hub_join")
    if kern is not None and dists.dtype in _kernels.HUB_JOIN_DTYPES:
        out = np.empty(k, dtype=np.float64)
        with _obs.span("label.query.batch"):
            kern(
                offsets,
                hubs,
                dists,
                np.ascontiguousarray(s),
                np.ascontiguousarray(t),
                out,
            )
            out[s == t] = 0.0
        if reg is not None:
            reg.counter("label.query.batch_calls").inc()
            reg.counter("label.query.batch_pairs").inc(k)
            reg.counter(f"kernels.hub_join.{tier}").inc()
            # The compiled join is one chunk spanning the whole batch.
            reg.histogram("label.query.batch_chunk_size", SIZE_EDGES).observe(
                k
            )
            reg.histogram("label.query.batch_seconds").observe(
                time.perf_counter() - t_start
            )
        return out

    cache = _get_batch_cache(labeling)
    wide = np.float64 if dists.dtype.kind == "f" else np.int64

    chunk_hist = (
        reg.histogram("label.query.batch_chunk_size", SIZE_EDGES)
        if reg is not None
        else None
    )
    out = np.full(k, np.inf, dtype=np.float64)
    with _obs.span("label.query.batch"):
        for lo in range(0, k, _BATCH_CHUNK):
            hi = min(lo + _BATCH_CHUNK, k)
            if chunk_hist is not None:
                chunk_hist.observe(hi - lo)
            _batch_chunk(
                out[lo:hi],
                s[lo:hi],
                t[lo:hi],
                offsets,
                hubs,
                dists,
                n,
                cache,
                wide,
            )
        out[s == t] = 0.0
    if reg is not None:
        reg.counter("label.query.batch_calls").inc()
        reg.counter("label.query.batch_pairs").inc(k)
        reg.histogram("label.query.batch_seconds").observe(
            time.perf_counter() - t_start
        )
    return out
