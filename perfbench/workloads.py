"""Workload definitions and seeded input synthesis.

Every input the daemon sees is derived here from the workload
definition and ``--seed``; the daemon receives nothing else.  The graph
and its indexed failure cases are the workload's dataset, like a dataset
in the paper's tables: drawn from the workload's own fixed seed, so
label sizes, per-case cost and store size stay comparable between runs.
``--seed`` draws the traffic: which case each request fails, the query
pairs and the open-loop schedule.  The same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    vertices: int  # Barabási–Albert n
    attach: int  # Barabási–Albert m
    dataset_seed: int  # draws the graph and its indexed cases
    cases: int  # failure cases indexed into the .siefseg store
    route: str  # "/dist", "/batch" or "/batch.bin"
    pairs_per_request: int
    loop: str  # "closed" (2 connections) or "open" (fixed Poisson rate)
    pool: int  # distinct requests (closed loops cycle through them)
    rate: Optional[float] = None  # open loop: requests per second
    cache_cases: Optional[int] = None  # daemon --cache-cases (None = default)
    balanced: bool = False  # every case gets the same share of requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="point",
            why="single-pair /dist JSON, closed loop over 2 connections: "
            "HTTP, JSON and the micro-batcher deadline dominate, the engine "
            "does ~2%",
            vertices=2000,
            attach=3,
            dataset_seed=1,
            cases=8,
            route="/dist",
            pairs_per_request=1,
            loop="closed",
            pool=4096,
        ),
        Workload(
            name="bulk",
            why="4096-pair /batch.bin frames, closed loop: the engine's "
            "batch_query (hub join, side classification, case-4 fold) "
            "dominates, transport is amortized",
            vertices=10000,
            attach=3,
            dataset_seed=1,
            cases=4,
            route="/batch.bin",
            pairs_per_request=4096,
            loop="closed",
            pool=16,
            balanced=True,
        ),
        Workload(
            name="churn",
            why="32-pair /batch JSON at a fixed Poisson rate over 6x more "
            "cases than the LRU holds: demand paging from the segment store",
            vertices=2000,
            attach=3,
            dataset_seed=1,
            cases=192,
            route="/batch",
            pairs_per_request=32,
            loop="open",
            pool=0,  # open loop: one distinct request per arrival
            rate=150.0,
            cache_cases=32,
        ),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds (self-test)."""
    return replace(
        w,
        vertices=200,
        cases=min(w.cases, 12),
        pairs_per_request=min(w.pairs_per_request, 64),
        pool=min(w.pool, 32),
        cache_cases=None if w.cache_cases is None else 4,
    )


@dataclass
class Inputs:
    graph: object
    cases: List[Edge]  # indexed failure edges, canonical order
    edges: np.ndarray  # (R, 2) failed edge of request i
    pairs: List[np.ndarray]  # (k, 2) int64 pairs of request i
    due: Optional[np.ndarray]  # open loop: send offsets in seconds


def hub_weights(graph, edges: List[Edge]) -> np.ndarray:
    """Failure probability per edge, proportional to deg(u) + deg(v)."""
    w = np.array(
        [graph.degree(u) + graph.degree(v) for u, v in edges], dtype=float
    )
    return w / w.sum()


def make_inputs(w: Workload, seed: int, seconds: float) -> Inputs:
    from repro.graph import generators

    graph = generators.barabasi_albert(w.vertices, w.attach, seed=w.dataset_seed)
    all_edges = sorted(graph.edges())
    pick = np.random.default_rng(w.dataset_seed).choice(
        len(all_edges),
        size=w.cases,
        replace=False,
        p=hub_weights(graph, all_edges),
    )
    cases = sorted(all_edges[i] for i in pick)

    rng = np.random.default_rng(seed)
    due = None
    if w.loop == "open":
        count = int(round(w.rate * seconds))
        due = np.cumsum(rng.exponential(1.0 / w.rate, size=count))
    else:
        count = w.pool
    if w.balanced:
        which = np.arange(count) % len(cases)
    else:
        which = rng.choice(len(cases), size=count, p=hub_weights(graph, cases))
    edges = np.array(cases, dtype=np.int64)[which]
    pairs = [
        rng.integers(0, w.vertices, size=(w.pairs_per_request, 2))
        for _ in range(count)
    ]
    return Inputs(graph, cases, edges, pairs, due)
