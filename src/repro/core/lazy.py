"""On-demand SIEF: one LRU of failure cases over a case source.

The paper's offline build covers *all* ``m`` failure cases up front.
:class:`PagedSIEFIndex` instead caches cases and fetches each on first
touch from its source: a :class:`~repro.core.segstore.SegmentStore`
*loads* it from a ``.siefseg`` store, a :class:`BuildSource` *builds* it
(IDENTIFY + RELABEL).  :class:`LazySIEFIndex` adds graph growth to an
unbounded cache over a :class:`BuildSource`:

* **edge insertions** are absorbed in place via the dynamic-PLL repair
  (:mod:`repro.labeling.dynamic`), which keeps the labeling an exact
  cover — cached supplements are invalidated, because an insertion can
  change both affected sets and replacement distances;
* a **permanent deletion** (`commit_failure`) turns a failure case into
  the new baseline: the library rebuilds the labeling for the shrunk
  graph (decremental 2-hop maintenance is exactly what the paper proves
  impractical, so honesty demands a rebuild) and drops all supplements.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Optional, Tuple, Union

from repro.core.builder import RELABEL_ALGORITHMS, record_case_obs
from repro.core.builder import build_one_case
from repro.graph.csr import CSRGraph
from repro.obs import hooks as _obs
from repro.obs.context import attribute_page_fault
from repro.core.query import SIEFQueryEngine
from repro.exceptions import EdgeNotFound, IndexError_
from repro.graph.graph import Graph, normalize_edge
from repro.labeling.dynamic import insert_edge as _dynamic_insert
from repro.labeling.pll import build_pll
from repro.labeling.label import Labeling

Edge = Tuple[int, int]
Distance = Union[int, float]


class PagedSIEFIndex:
    """Demand-paged SIEF index: an LRU of failure cases over a case source.

    A miss calls ``source.load_case(u, v)`` and may evict the coldest
    case once more than ``capacity`` are resident.  Every source has
    ``labeling()`` and ``num_cases``; over one that also has
    ``has_case`` and ``case_edges()`` (the segment store) the cache
    duck-types the :class:`SIEFIndex` surface the query engine and the
    serve daemon use (``labeling``, ``supplement``, ``has_case``,
    ``num_cases``, ``supplements``), so the query engine and ``sief
    serve`` run against cases that never all reside in memory.

    Metrics (when a registry is installed): counters
    ``sief.lazy.cache.{hits,misses,evictions}`` and gauge
    ``sief.lazy.cache.resident``.
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, store, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise IndexError_(
                f"paged index capacity must be >= 1, got {capacity}"
            )
        self._source = store
        self.capacity = capacity
        self.labeling = store.labeling()
        self._lru: "OrderedDict[Edge, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- SIEFIndex surface ---------------------------------------------------

    def supplement(self, u: int, v: int):
        """The supplemental index for failed edge ``(u, v)``, paging it
        in (and possibly evicting the coldest case) on a miss."""
        key = normalize_edge(u, v)
        reg = _obs.registry
        si = self._lru.get(key)
        if si is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            if reg is not None:
                reg.counter("sief.lazy.cache.hits").inc()
            return si
        si = self._source.load_case(*key)  # raises for unknown edges
        self.misses += 1
        attribute_page_fault()
        self._lru[key] = si
        evicted = 0
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        if reg is not None:
            reg.counter("sief.lazy.cache.misses").inc()
            if evicted:
                reg.counter("sief.lazy.cache.evictions").inc(evicted)
            reg.gauge("sief.lazy.cache.resident").set(len(self._lru))
        return si

    def has_case(self, u: int, v: int) -> bool:
        return self._source.has_case(u, v)

    @property
    def num_cases(self) -> int:
        return self._source.num_cases

    @property
    def supplements(self):
        """All indexed failure edges (from the source — nothing paged in).

        The serve daemon's ``/failures`` route iterates/sorts this; a
        list of edge tuples satisfies that read-only use without
        pretending the mapping's values are resident.
        """
        return self._source.case_edges()

    def clear(self) -> int:
        """Drop every resident case (returns how many) and re-read the
        source's labeling — call after the source changed underneath."""
        dropped = len(self._lru)
        self._lru.clear()
        self.labeling = self._source.labeling()
        reg = _obs.registry
        if reg is not None:
            reg.gauge("sief.lazy.cache.resident").set(0)
        return dropped

    # -- introspection -------------------------------------------------------

    @property
    def resident_cases(self) -> int:
        """Currently cached failure cases (≤ ``capacity``)."""
        return len(self._lru)

    def __repr__(self) -> str:
        return (
            f"PagedSIEFIndex(cases={self.num_cases}, "
            f"resident={self.resident_cases}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class BuildSource:
    """Case source that builds the case of any edge of ``graph`` on demand
    (:func:`~repro.core.builder.build_one_case`); :meth:`reset` it after
    the graph or the labeling changed."""

    def __init__(
        self, graph: Graph, labeling: Labeling, algorithm: str = "bfs_all"
    ) -> None:
        if algorithm not in RELABEL_ALGORITHMS:
            raise IndexError_(
                f"unknown relabel algorithm {algorithm!r}; "
                f"choose from {sorted(RELABEL_ALGORITHMS)}"
            )
        self.graph = graph
        self._relabel = RELABEL_ALGORITHMS[algorithm]
        self._batched = algorithm == "batched"
        self.reset(labeling)

    def reset(self, labeling: Labeling) -> None:
        """Adopt ``labeling`` and drop the CSR snapshot of the graph."""
        self._labeling = labeling
        self._csr: Optional[CSRGraph] = None

    def labeling(self) -> Labeling:
        return self._labeling

    def load_case(self, u: int, v: int):
        """Build the supplemental index for failed edge ``(u, v)``."""
        if not self.graph.has_edge(u, v):
            raise EdgeNotFound(u, v)
        with _obs.span("sief.lazy.build_case"):
            if self._batched and self._csr is None:
                self._csr = CSRGraph.from_graph(self.graph)
            si, record = build_one_case(
                self.graph, self._labeling, self._relabel, u, v, csr=self._csr
            )
        reg = _obs.registry
        if reg is not None:
            record_case_obs(reg, record)
        prog = _obs.progress
        if prog is not None:
            prog.advance()
        return si

    @property
    def num_cases(self) -> int:
        return self.graph.num_edges


class LazySIEFIndex:
    """A SIEF index that materializes failure cases on first use.

    Parameters
    ----------
    graph:
        The (mutable, owned) graph; use :meth:`insert_edge` /
        :meth:`commit_failure` to change it, not direct mutation —
        the index must see every change.
    labeling:
        Optional prebuilt labeling; built with PLL otherwise.
    algorithm:
        Relabel strategy for on-demand builds (default ``bfs_all``).

    Built cases live in :attr:`cache`, an unbounded
    :class:`PagedSIEFIndex` over a :class:`BuildSource`.
    """

    def __init__(
        self,
        graph: Graph,
        labeling: Optional[Labeling] = None,
        algorithm: str = "bfs_all",
    ) -> None:
        if labeling is None:
            labeling = build_pll(graph)
        self.graph = graph
        self._source = BuildSource(graph, labeling, algorithm)
        self.cache = PagedSIEFIndex(self._source, capacity=math.inf)
        self._engine = SIEFQueryEngine(self.cache)

    @property
    def labeling(self) -> Labeling:
        """The current (exact) 2-hop labeling."""
        return self.cache.labeling

    # -- queries -------------------------------------------------------------

    def distance(self, s: int, t: int, failed_edge: Edge) -> Distance:
        """``d_{G - e}(s, t)``, building the case for ``e`` if needed."""
        return self._engine.distance(s, t, failed_edge)

    # -- mutation --------------------------------------------------------------

    def insert_edge(self, a: int, b: int) -> None:
        """Grow the graph; repair the labeling; invalidate cached cases.

        Invalidation is wholesale: a new edge can shrink replacement
        distances (stale supplements would *overestimate*) and reshape
        affected sets (stale membership would route queries through the
        wrong §4.4 case), so per-case salvage is unsafe.
        """
        _dynamic_insert(self.graph, self.labeling, a, b)
        self._source.reset(self.labeling)
        dropped = self.cache.clear()
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.lazy.insertions").inc()
            reg.counter("sief.lazy.invalidations").inc()
            reg.counter("sief.lazy.invalidated_cases").inc(dropped)

    def commit_failure(self, u: int, v: int) -> None:
        """Make a failure permanent: remove the edge and re-baseline.

        The old labeling cannot be repaired for deletions (the gap SIEF
        exists to cover at query time); committing rebuilds PLL on the
        shrunk graph with the same ordering strategy.
        """
        self.graph.remove_edge(u, v)
        with _obs.span("sief.lazy.rebuild"):
            self._source.reset(build_pll(self.graph))
        dropped = self.cache.clear()
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.lazy.rebuilds").inc()
            reg.counter("sief.lazy.invalidated_cases").inc(dropped)

    def __repr__(self) -> str:
        return (
            f"LazySIEFIndex(n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, cached={self.cache.resident_cases})"
        )
