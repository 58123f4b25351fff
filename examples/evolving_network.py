"""An evolving, failure-prone network served by one live index.

The paper frames SIEF as the *decremental* half of dynamic distance
querying (its §2 notes that incremental PLL maintenance handles
insertions but "cannot be applied on edge deletions").  This library
implements both halves, and :class:`repro.core.lazy.LazySIEFIndex` fuses
them into the object an evolving-network service would actually run:

* queries under a transient failure build that failure's supplement on
  first touch (and cache it);
* new links repair the labeling in place (dynamic PLL);
* a permanent failure re-baselines the index.

The script simulates a social-network-ish timeline and checks every
answer against BFS ground truth as it goes.

Run:  python examples/evolving_network.py
"""

from __future__ import annotations

import random
import time

from repro.core.lazy import LazySIEFIndex
from repro.graph import generators
from repro.graph.traversal import UNREACHED, bfs_distance_between
from repro.labeling.query import INF


def truth(graph, s, t, edge):
    d = bfs_distance_between(graph, s, t, avoid=edge)
    return d if d != UNREACHED else INF


def main() -> None:
    rng = random.Random(21)
    graph = generators.powerlaw_cluster(250, 3, 0.5, seed=21)
    lazy = LazySIEFIndex(graph)
    n = graph.num_vertices
    print(f"initial network: {graph}\n")

    checked = 0
    t_start = time.perf_counter()
    for step in range(1, 7):
        # A few transient link failures get queried this epoch.
        for _ in range(3):
            edge = rng.choice(list(graph.edges()))
            s, t = rng.randrange(n), rng.randrange(n)
            got = lazy.distance(s, t, edge)
            expected = truth(graph, s, t, edge)
            assert got == expected, (step, edge, s, t)
            checked += 1
            shown = "unreachable" if got == INF else got
            print(
                f"epoch {step}: link {edge} down -> d({s}, {t}) = {shown}"
            )

        # The network evolves: two new friendships form.
        for _ in range(2):
            while True:
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b and not graph.has_edge(a, b):
                    break
            lazy.insert_edge(a, b)
            print(f"epoch {step}: new link ({a}, {b}) absorbed in place")

        # Occasionally a failure becomes permanent.
        if step == 3:
            edge = rng.choice(list(graph.edges()))
            lazy.commit_failure(*edge)
            print(f"epoch {step}: link {edge} removed permanently")

    elapsed = time.perf_counter() - t_start
    print(
        f"\ntimeline done: {checked} failure queries verified against BFS, "
        f"{lazy.cache.resident_cases} supplements currently cached, "
        f"{elapsed:.1f} s total"
    )
    print(f"final network: {graph}")


if __name__ == "__main__":
    main()
