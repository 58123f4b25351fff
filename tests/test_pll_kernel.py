"""Bit-identity of the compiled PLL construction kernel (ISSUE 9).

``build_pll`` dispatches whole-labeling construction to the C kernel
when the accelerated tier provides one.  The kernel must reproduce the
numpy implementation exactly — same hubs, same distances, same
per-vertex order — on every topology, because every downstream artifact
(supplements, segment stores, frozen indexes) is keyed to it.
"""

from __future__ import annotations

import random

import pytest

from repro import kernels
from repro.graph import generators
from repro.graph.graph import Graph
from repro.labeling.label import Labeling
from repro.labeling.pll import build_pll
from repro.order.strategies import STRATEGIES, make_ordering

with kernels.use_tier("auto"):
    _, _PLL_KERNEL = kernels.resolve("pll")

pytestmark = pytest.mark.skipif(
    _PLL_KERNEL is None,
    reason="no compiled PLL kernel available on this host",
)


def _labeling(graph: Graph, tier: str, strategy: str = "degree") -> Labeling:
    kwargs = {"seed": 9} if strategy == "random" else {}
    with kernels.use_tier(tier):
        ordering = make_ordering(graph, strategy, **kwargs)
        return build_pll(graph, ordering)


GRAPHS = {
    "ba": generators.barabasi_albert(300, 3, seed=1),
    "er": generators.erdos_renyi_gnm(250, 600, seed=2),
    "grid": generators.grid_graph(14, 14),
    "tree": generators.random_tree(200, seed=3),
    "disconnected": generators.compose_disjoint(
        [
            generators.random_tree(40, seed=4),
            Graph(1, []),
            generators.erdos_renyi_gnm(25, 40, seed=4),
            generators.barabasi_albert(60, 2, seed=4),
        ]
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kernel_matches_numpy_across_topologies(name):
    graph = GRAPHS[name]
    assert _labeling(graph, "auto") == _labeling(graph, "numpy")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_kernel_matches_numpy_across_orderings(strategy):
    graph = generators.erdos_renyi_gnm(120, 260, seed=6)
    assert _labeling(graph, "auto", strategy) == _labeling(
        graph, "numpy", strategy
    )


def test_kernel_matches_numpy_on_random_sweep():
    rng = random.Random(77)
    for _ in range(12):
        n = rng.randint(2, 60)
        m = rng.randint(0, min(3 * n, n * (n - 1) // 2))
        seen = set()
        while len(seen) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                seen.add((min(u, v), max(u, v)))
        graph = Graph(n, sorted(seen))
        assert _labeling(graph, "auto") == _labeling(graph, "numpy")


def test_kernel_output_thaws_cleanly():
    graph = GRAPHS["ba"]
    with kernels.use_tier("auto"):
        frozen = build_pll(graph, make_ordering(graph, "degree"))
        thawed = build_pll(graph, make_ordering(graph, "degree"), freeze=False)
    assert frozen == thawed
