"""Vectorized frontier BFS kernels over frozen CSR adjacency arrays.

The scalar traversals in :mod:`repro.graph.traversal` walk Python
adjacency lists one vertex at a time — right for tiny graphs and for
early-terminating searches, but the construction pipeline (IDENTIFY's
four full BFS passes per failure case, RELABEL's BFS per affected hub)
runs millions of them.  These kernels process a whole BFS *level* per
step instead: the frontier is a vertex array, neighbor expansion is one
fancy-indexed gather of the flat CSR ``indices`` stream, and visited
bookkeeping is a boolean scatter — so the per-vertex interpreter cost
disappears and numpy streams the adjacency at memory bandwidth.

Three kernels, one storage convention (``indptr``/``indices`` exactly as
in :class:`repro.graph.csr.CSRGraph`; distances are ``int32`` with
``-1`` = unreached, matching :data:`repro.graph.traversal.UNREACHED`):

* :func:`bfs_distances_csr` — single-source level-synchronous BFS, with
  optional **edge masking** (run on ``G - (u, v)`` without materializing
  a new graph: the failed edge's two flat positions are dropped from
  every gather) and an optional **allowed mask** (BFS restricted to a
  vertex subset, which is how IDENTIFY grows an affected side).
* :func:`bfs_bitparallel_csr` — up to 64 BFS roots per sweep packed
  into ``uint64`` visited bitmasks (Akiba-style bit-parallel batching):
  one level expands *all* roots' frontiers at once, OR-merging root
  bits per target with a segmented ``bitwise_or.reduceat``.  Supports
  **per-root edge masks** (each root may avoid its own failed edge) and
  an optional ``needed`` bitmask for early exit once every requested
  ``(root, target)`` distance is known.
* :func:`edge_positions` — the two flat positions of an undirected edge
  inside ``indices``, i.e. the precomputed input of the edge masking.

All kernels are exact: for every root the produced distance vector is
bit-identical to the scalar BFS (asserted by the parity suites in
``tests/test_frontier_kernels.py``).

Both BFS entry points dispatch through :mod:`repro.kernels`: when an
accelerated tier (the self-compiled C extension) is available
and selected, the level loop runs compiled and the numpy bodies below
become the always-available fallback.  The compiled kernels are
bit-identical by contract — same distances, same settlement counts —
so callers cannot observe the tier except through speed and the
``kernels.*`` metrics counters.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import kernels as _kernels
from repro.exceptions import GraphError
from repro.obs import hooks as _obs
from repro.obs.metrics import SIZE_EDGES

UNREACHED = -1
"""Sentinel distance, identical to the scalar traversal convention."""

_ONE = np.uint64(1)
_ZERO = np.uint64(0)

WORD_BITS = 64
"""Roots packed per bit-parallel sweep (one ``uint64`` lane each)."""


def edge_positions(
    indptr: np.ndarray, indices: np.ndarray, u: int, v: int
) -> Tuple[int, int]:
    """Flat positions of the directed entries ``u->v`` and ``v->u``.

    The CSR neighbor slices are sorted, so each lookup is one binary
    search.  Raises :class:`GraphError` when the edge is absent —
    callers mask *existing* failed edges only.
    """
    pu = int(indptr[u]) + int(
        np.searchsorted(indices[indptr[u] : indptr[u + 1]], v)
    )
    pv = int(indptr[v]) + int(
        np.searchsorted(indices[indptr[v] : indptr[v + 1]], u)
    )
    if (
        pu >= int(indptr[u + 1])
        or indices[pu] != v
        or pv >= int(indptr[v + 1])
        or indices[pv] != u
    ):
        raise GraphError(f"edge ({u}, {v}) not present in CSR adjacency")
    return pu, pv


def _expand(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``indices`` positions of every neighbor of ``frontier``.

    Returns ``(pos, counts)`` where ``pos`` walks each frontier vertex's
    neighbor range in order and ``counts`` is the per-vertex range
    length (callers repeat per-vertex payloads with it).
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), counts
    cum = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1] - starts, counts)
    return pos, counts


def bfs_distances_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    source: int,
    avoid_positions: Optional[Tuple[int, int]] = None,
    allowed: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Level-synchronous BFS distances from ``source`` (``-1`` unreached).

    Parameters
    ----------
    indptr, indices:
        CSR adjacency (``int64`` offsets, ``int32`` sorted neighbors).
    source:
        Start vertex; always reported at distance 0, even when
        ``allowed`` excludes it (mirroring the scalar side-growing BFS,
        whose root is a member by definition).
    avoid_positions:
        Optional ``(pos_uv, pos_vu)`` from :func:`edge_positions`; those
        two directed entries are skipped in every expansion, giving BFS
        on ``G - (u, v)`` with zero graph copying.
    allowed:
        Optional boolean mask of length ``n``; vertices with
        ``allowed[w] == False`` are never entered (their neighbors are
        not explored either).
    out:
        Optional preallocated ``int32`` array of length ``n`` to fill
        and return, mirroring the scalar kernel's reuse convention.
    """
    n = len(indptr) - 1
    if out is None:
        dist = np.full(n, UNREACHED, dtype=np.int32)
    else:
        dist = out
        dist[:] = UNREACHED
    dist[source] = 0
    reg = _obs.registry
    if reg is not None:
        reg.counter("bfs.vectorized_runs").inc()
    tier, kern = _kernels.resolve("bfs")
    if kern is not None:
        a0, a1 = (-1, -1) if avoid_positions is None else avoid_positions
        kern(indptr, indices, int(source), int(a0), int(a1), allowed, dist)
        if reg is not None:
            reg.counter(f"kernels.bfs.{tier}").inc()
        return dist
    if reg is not None:
        frontier_hist = reg.histogram("bfs.frontier_size", SIZE_EDGES)
    frontier = np.array([source], dtype=np.int64)
    unvisited = np.ones(n, dtype=bool)
    unvisited[source] = False
    if allowed is not None:
        # The root is explored regardless; every other entry obeys the mask.
        unvisited &= allowed
    nxt = np.zeros(n, dtype=bool)
    level = 0
    while frontier.size:
        level += 1
        pos, _counts = _expand(indptr, frontier)
        if pos.size == 0:
            break
        if avoid_positions is not None:
            keep = (pos != avoid_positions[0]) & (pos != avoid_positions[1])
            pos = pos[keep]
        nxt[indices[pos]] = True
        nxt &= unvisited
        frontier = np.flatnonzero(nxt)
        if frontier.size == 0:
            break
        dist[frontier] = level
        unvisited[frontier] = False
        nxt[frontier] = False
        if reg is not None:
            frontier_hist.observe(frontier.size)
    return dist


def _scatter_bits(
    vertices: np.ndarray, bits: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """OR-merge per-vertex bitmasks: ``(unique vertices, merged bits)``.

    ``vertices`` may repeat (several roots reaching the same target in
    one level); entries are sorted by vertex and merged with a segmented
    ``bitwise_or.reduceat`` — the vectorized replacement for the
    ``visited[w] |= bit`` inner loop of a scalar multi-root BFS.
    """
    order = np.argsort(vertices, kind="stable")
    vs = vertices[order]
    bs = bits[order]
    seg = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
    return vs[seg], np.bitwise_or.reduceat(bs, seg)


def _record_level(
    dist: np.ndarray, vs: np.ndarray, new: np.ndarray, level: int
) -> int:
    """Write ``level`` into ``dist[root, v]`` for every newly set bit.

    Unpacks the ``uint64`` lane masks into a ``(len(vs), 64)`` bit
    matrix in one ``unpackbits`` call, so the cost per level is a few
    array ops instead of one scan per root.  Returns the number of
    ``(root, vertex)`` settlements (the machine-independent "expanded"
    counter of the batched searches).
    """
    k = dist.shape[0]
    bitmat = np.unpackbits(
        new.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).reshape(len(vs), 64)[:, :k]
    rows, lanes = np.nonzero(bitmat)
    dist[lanes, vs[rows]] = level
    return len(rows)


def bfs_bitparallel_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    roots: Sequence[int],
    avoid_positions: Optional[Sequence[Tuple[int, int]]] = None,
    needed: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Up to 64 simultaneous BFS sweeps packed into ``uint64`` lanes.

    Parameters
    ----------
    roots:
        The batch of BFS roots; ``len(roots) <= 64``.  Root ``i`` owns
        bit lane ``i``.  Roots may repeat (two lanes starting at the
        same vertex, each avoiding a different edge).
    avoid_positions:
        ``None`` (no masking), one ``(pos_uv, pos_vu)`` pair applied to
        every lane (the shared-failed-edge case of batched RELABEL), or
        one pair **per root** — each lane then skips only its own failed
        edge, which is what batches IDENTIFY's ``G - e_i`` passes across
        failure cases.
    needed:
        Optional ``uint64`` array of length ``n``: ``needed[t]`` holds
        the lanes that require ``dist(root, t)``.  The sweep stops as
        soon as every needed bit has been reached — distances outside
        ``needed`` may then legitimately remain ``-1``.

    Returns
    -------
    (dist, settled):
        ``dist`` is a ``(len(roots), n)`` ``int32`` matrix (``-1``
        unreached); ``settled`` counts ``(root, vertex)`` settlements,
        the batched equivalent of the scalar searches' expansion counter.
    """
    n = len(indptr) - 1
    roots = np.asarray(roots, dtype=np.int64)
    k = len(roots)
    if k == 0:
        return np.zeros((0, n), dtype=np.int32), 0
    if k > WORD_BITS:
        raise ValueError(f"at most {WORD_BITS} roots per sweep, got {k}")

    lane_bit = np.left_shift(_ONE, np.arange(k, dtype=np.uint64))
    visited = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(visited, roots, lane_bit)
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    dist[np.arange(k), roots] = 0
    settled = k

    # Per-lane edge masking: sorted flat positions + the lanes they block.
    mask_pos = mask_keep = None
    if avoid_positions is not None:
        pairs = list(avoid_positions)
        if pairs and isinstance(pairs[0], (int, np.integer)):
            if len(pairs) != 2:
                raise ValueError(
                    "avoid_positions must be one (pos, pos) pair "
                    "or one pair per root"
                )
            pairs = [tuple(pairs)] * k  # one shared pair, every lane
        elif len(pairs) != k:
            raise ValueError(
                f"need one avoid pair per root ({k}), got {len(pairs)}"
            )
        merged: dict = {}
        for lane, pair in enumerate(pairs):
            if pair is None:
                continue
            bit = int(lane_bit[lane])
            merged[int(pair[0])] = merged.get(int(pair[0]), 0) | bit
            merged[int(pair[1])] = merged.get(int(pair[1]), 0) | bit
        if merged:
            mask_pos = np.asarray(sorted(merged), dtype=np.int64)
            mask_keep = np.asarray(
                [~np.uint64(merged[p]) for p in sorted(merged)],
                dtype=np.uint64,
            )

    reg = _obs.registry
    if reg is not None:
        reg.counter("bfs.bitparallel_sweeps").inc()
        reg.histogram("bfs.batch_width", SIZE_EDGES).observe(k)

    tier, kern = _kernels.resolve("bitparallel")
    if kern is not None:
        needed_arr = (
            None
            if needed is None
            else np.ascontiguousarray(needed, dtype=np.uint64)
        )
        settled = kern(
            indptr, indices, roots, mask_pos, mask_keep, needed_arr, dist
        )
        if reg is not None:
            reg.counter(f"kernels.bitparallel.{tier}").inc()
        return dist, settled

    remaining = None
    if needed is not None:
        remaining = needed.astype(np.uint64, copy=True)
        remaining &= ~visited
        if not remaining.any():
            return dist, settled

    if reg is not None:
        frontier_hist = reg.histogram("bfs.frontier_size", SIZE_EDGES)

    front_v, front_b = _scatter_bits(roots, lane_bit, n)
    level = 0
    while front_v.size:
        level += 1
        pos, counts = _expand(indptr, front_v)
        if pos.size == 0:
            break
        bits = np.repeat(front_b, counts)
        if mask_pos is not None:
            # Lanes whose failed edge sits at a gathered position drop
            # their bit there; other lanes flow through untouched.
            hit = np.searchsorted(mask_pos, pos)
            np.minimum(hit, len(mask_pos) - 1, out=hit)
            at_mask = mask_pos[hit] == pos
            if at_mask.any():
                bits = bits.copy()
                bits[at_mask] &= mask_keep[hit[at_mask]]
        vs, merged_bits = _scatter_bits(indices[pos].astype(np.int64), bits, n)
        new = merged_bits & ~visited[vs]
        nz = new != _ZERO
        vs = vs[nz]
        new = new[nz]
        if vs.size == 0:
            break
        visited[vs] |= new
        settled += _record_level(dist, vs, new, level)
        front_v = vs
        front_b = new
        if reg is not None:
            frontier_hist.observe(front_v.size)
        if remaining is not None:
            remaining[vs] &= ~new
            if not remaining.any():
                break
    return dist, settled
