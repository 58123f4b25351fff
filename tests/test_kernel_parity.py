"""Bit-identity of the accelerated kernel tier against pure numpy.

Every compiled kernel must return byte-for-byte what the numpy tier
returns: BFS distance vectors, bit-parallel settlement counts,
supplemental ``(rank, dist)`` streams in append order, hub-join minima,
and whole-index content equality.  These direct parity sweeps complement the
differential fuzz adapters (``sief-batch-kernels``,
``sief-kernels-build``) with deterministic, seed-pinned instances, and
additionally check that observability — metric counters and profiler
span attribution — stays identical when a compiled kernel takes over a
hot path.

The whole module skips when the C backend is unavailable (no C
compiler): there is then nothing to compare.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import kernels
from repro.core.builder import build_sief
from repro.core.query import SIEFQueryEngine
from repro.graph.csr import CSRGraph
from repro.graph.frontier import (
    bfs_bitparallel_csr,
    bfs_distances_csr,
    edge_positions,
)
from repro.graph.graph import Graph
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.labeling.query import batch_dist_query
from repro.obs import TraceRecorder, hooks as _obs_hooks
from repro.order.strategies import by_degree

with kernels.use_tier("auto"):
    ACCEL = kernels.effective_tier()

pytestmark = pytest.mark.skipif(
    ACCEL == "numpy",
    reason="no accelerated kernel backend available on this host",
)


def _random_graph(rng: random.Random, n: int) -> Graph:
    m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
    seen = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    return Graph(n, sorted(seen))


# ---------------------------------------------------------------------------
# single-source BFS
# ---------------------------------------------------------------------------


def test_bfs_kernel_matches_numpy_sweep():
    rng = random.Random(1)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(4, 40))
        csr = CSRGraph.from_graph(g)
        source = rng.randrange(g.num_vertices)
        avoid = None
        if g.num_edges:
            u, v = rng.choice(list(g.edges()))
            avoid = edge_positions(csr.indptr, csr.indices, u, v)
        allowed = None
        if rng.random() < 0.5:
            allowed = np.zeros(g.num_vertices, dtype=bool)
            allowed[
                rng.sample(
                    range(g.num_vertices), rng.randint(1, g.num_vertices)
                )
            ] = True
        with kernels.use_tier("numpy"):
            want = bfs_distances_csr(
                csr.indptr, csr.indices, source, avoid, allowed
            )
        with kernels.use_tier(ACCEL):
            got = bfs_distances_csr(
                csr.indptr, csr.indices, source, avoid, allowed
            )
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# bit-parallel sweep
# ---------------------------------------------------------------------------


def test_bitparallel_kernel_matches_numpy_sweep():
    rng = random.Random(2)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(4, 40))
        csr = CSRGraph.from_graph(g)
        n = g.num_vertices
        k = rng.randint(1, min(64, n))
        roots = [rng.randrange(n) for _ in range(k)]
        edges = list(g.edges())
        mode = rng.randrange(3)
        if mode == 0:
            avoid = None
        elif mode == 1:  # one shared pair, every lane
            u, v = rng.choice(edges)
            avoid = edge_positions(csr.indptr, csr.indices, u, v)
        else:  # one pair per root, some lanes unmasked
            avoid = []
            for _ in range(k):
                if rng.random() < 0.3:
                    avoid.append(None)
                else:
                    u, v = rng.choice(edges)
                    avoid.append(
                        edge_positions(csr.indptr, csr.indices, u, v)
                    )
        needed = None
        if rng.random() < 0.5:
            needed = np.array(
                [rng.getrandbits(k) for _ in range(n)], dtype=np.uint64
            )
        with kernels.use_tier("numpy"):
            want, want_settled = bfs_bitparallel_csr(
                csr.indptr, csr.indices, roots, avoid, needed
            )
        with kernels.use_tier(ACCEL):
            got, got_settled = bfs_bitparallel_csr(
                csr.indptr, csr.indices, roots, avoid, needed
            )
        np.testing.assert_array_equal(got, want)
        assert got_settled == want_settled


# ---------------------------------------------------------------------------
# whole-pass RELABEL and the end-to-end batched build
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: generators.erdos_renyi_gnm(60, 150, seed=5),
        lambda: generators.barabasi_albert(80, 2, seed=6),
        lambda: generators.watts_strogatz(64, 4, 0.2, seed=7),
    ],
    ids=["er", "ba", "ws"],
)
def test_batched_build_bit_identical_across_tiers(make_graph):
    g = make_graph()
    with kernels.use_tier("numpy"):
        ref = build_sief(g, algorithm="batched")
    with kernels.use_tier(ACCEL):
        acc = build_sief(g, algorithm="batched")
    assert set(acc.supplements) == set(ref.supplements)
    for edge, ref_si in ref.supplements.items():
        acc_si = acc.supplements[edge]
        assert acc_si == ref_si
        # Stronger than index equality: the shared-sweep settlement
        # counter must match too (the kernel replays the same batches,
        # dead lanes included).
        assert acc_si.search_expanded == ref_si.search_expanded
    assert acc == ref


def test_batched_build_answers_match_scalar_reference():
    g = generators.erdos_renyi_gnm(40, 90, seed=8)
    with kernels.use_tier(ACCEL):
        index = build_sief(g, algorithm="batched")
    scalar = build_sief(g, algorithm="bfs_all")
    engine = SIEFQueryEngine(index)
    ref_engine = SIEFQueryEngine(scalar)
    rng = random.Random(9)
    for u, v in index.supplements:
        for _ in range(20):
            s, t = rng.randrange(40), rng.randrange(40)
            assert engine.distance(s, t, (u, v)) == ref_engine.distance(
                s, t, (u, v)
            )


# ---------------------------------------------------------------------------
# hub join
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_hub_join_kernel_matches_numpy(dtype):
    g = generators.erdos_renyi_gnm(80, 200, seed=10)
    labeling = build_pll(g, by_degree(g))
    labeling.freeze()
    if dtype != np.int32:
        labeling.dists_flat = labeling.dists_flat.astype(dtype)
    rng = random.Random(11)
    pairs = [
        (rng.randrange(80), rng.randrange(80)) for _ in range(500)
    ]
    # include identity and (likely) disconnected-free pairs
    pairs[:3] = [(0, 0), (5, 5), (79, 79)]
    with kernels.use_tier("numpy"):
        want = batch_dist_query(labeling, pairs)
    with kernels.use_tier(ACCEL):
        got = batch_dist_query(labeling, pairs)
    want_arr = np.asarray(want, dtype=np.float64)
    got_arr = np.asarray(got, dtype=np.float64)
    # bitwise equality, infinities included
    np.testing.assert_array_equal(got_arr, want_arr)


def test_hub_join_disconnected_pairs_stay_infinite():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 isolated
    labeling = build_pll(g, by_degree(g))
    labeling.freeze()
    pairs = [(0, 3), (2, 4), (0, 5), (5, 5), (1, 2)]
    with kernels.use_tier("numpy"):
        want = batch_dist_query(labeling, pairs)
    with kernels.use_tier(ACCEL):
        got = batch_dist_query(labeling, pairs)
    assert list(got) == list(want)
    assert got[0] == float("inf") and got[2] == float("inf")
    assert got[3] == 0.0


# ---------------------------------------------------------------------------
# observability parity: counters and profiler span attribution
# ---------------------------------------------------------------------------


def _span_names_and_counters(tier):
    g = generators.erdos_renyi_gnm(40, 100, seed=12)
    with kernels.use_tier(tier):
        tracer = TraceRecorder(capacity=4096)
        with _obs_hooks.installed(trace=tracer) as reg:
            index = build_sief(g, algorithm="batched")
            engine = SIEFQueryEngine(index)
            edge = next(iter(index.supplements))
            engine.batch_query(edge, [(i, (i + 7) % 40) for i in range(40)])
        spans = {r.name for r in tracer.records()}
        counters = {
            name: c.value
            for name, c in reg.counters.items()
            if not name.startswith("kernels.")
        }
    return spans, counters


def test_profiler_span_attribution_identical_across_tiers():
    """The same spans (and shared counters) fire no matter the tier.

    A compiled kernel swallowing a hot loop must not swallow its
    telemetry: profiles taken on different tiers have to attribute time
    to the same span names, and every tier-independent counter must
    advance identically.  Only the ``kernels.<name>.<tier>`` counters —
    which exist precisely to tell tiers apart — may differ.
    """
    numpy_spans, numpy_counters = _span_names_and_counters("numpy")
    accel_spans, accel_counters = _span_names_and_counters(ACCEL)
    assert accel_spans == numpy_spans
    assert "label.query.batch" in accel_spans
    assert "sief.build" in accel_spans
    for name in ("bfs.vectorized_runs", "sief.relabel.batched_cases"):
        assert accel_counters.get(name) == numpy_counters.get(name)


def test_kernel_tier_counters_tag_the_active_tier():
    g = generators.erdos_renyi_gnm(30, 70, seed=13)
    with kernels.use_tier(ACCEL):
        with _obs_hooks.installed() as reg:
            build_sief(g, algorithm="batched")
        tagged = [
            name
            for name in reg.counters
            if name.startswith("kernels.") and name.endswith(f".{ACCEL}")
        ]
    assert tagged  # the accelerated tier leaves its fingerprint
