"""Answer checks, run after the timed phase.

Every served answer is compared with the in-process engine's answer on
the same store; a seeded sample is also compared with BFS on ``G - e``
(:mod:`repro.baselines`), the independent oracle.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Sequence

import numpy as np

from loadgen import Phase, decode_answer


def engine_answers(store, edges: np.ndarray, pairs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """``SIEFQueryEngine.batch_query`` answers, one array per request."""
    from repro.core.lazy import PagedSIEFIndex
    from repro.core.query import SIEFQueryEngine

    engine = SIEFQueryEngine(PagedSIEFIndex(store, capacity=store.num_cases))
    by_edge = defaultdict(list)
    for j, edge in enumerate(edges):
        by_edge[(int(edge[0]), int(edge[1]))].append(j)
    out: List[np.ndarray] = [None] * len(edges)
    for edge, js in by_edge.items():
        got = engine.batch_query(edge, np.concatenate([pairs[j] for j in js]))
        pos = 0
        for j in js:
            k = len(pairs[j])
            out[j] = got[pos : pos + k]
            pos += k
    return out


def served_failures(route: str, phase: Phase, expected: Sequence[np.ndarray]) -> int:
    """Requests that were refused, dropped or answered wrongly.

    Request ``i`` asked the question ``expected[i % len(expected)]``
    answers (closed loops cycle through their pool).
    """
    failed = 0
    for i, status, body in zip(phase.index, phase.status, phase.body):
        if status != 200:
            failed += 1
            continue
        try:
            got = decode_answer(route, body)
        except (ValueError, KeyError):
            failed += 1
            continue
        if not np.array_equal(got, expected[i % len(expected)]):
            failed += 1
    return failed


def oracle_mismatches(
    graph, edges: np.ndarray, pairs: Sequence[np.ndarray],
    answers: Sequence[np.ndarray], rng: np.random.Generator, samples: int,
) -> int:
    """Sampled answers that differ from BFS on ``G - e``."""
    from repro.baselines.bfs_query import BFSQueryBaseline

    oracle = BFSQueryBaseline(graph)
    wrong = 0
    for j in rng.choice(len(edges), size=samples):
        r = int(rng.integers(len(pairs[j])))
        s, t = (int(x) for x in pairs[j][r])
        truth = float(oracle.distance(s, t, (int(edges[j][0]), int(edges[j][1]))))
        if answers[j][r] != truth:
            wrong += 1
    return wrong
