"""Engine adapters: every query path behind one ``QueryOracle`` protocol.

The harness treats each way of answering a failure distance query —
scalar SIEF, batch SIEF, lazy SIEF, weighted, directed, the node/dual
oracles, and the brute-force baselines — as an interchangeable
*adapter*.  An adapter declares

* which derived graph **family** it runs on (``undirected``,
  ``weighted``, ``directed``),
* which **failure kind** it understands (``edge``, ``arc``, ``node``,
  ``dual``), and
* a ``distances(ctx, failure, pairs)`` method returning one float per
  pair.

A :class:`WorldContext` owns one generated graph instance (plus its
weighted and directed derivations) and memoizes the expensive build
artifacts — the PLL labeling, the SIEF index, the weighted/directed
indexes — so all adapters of a family share one build per fuzz round.
Contexts reconstruct deterministically from ``(family, n, edges,
ordering, ordering_seed)``, which is what lets the shrinker and the
corpus replay a counterexample from its serialized form alone.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph
from repro.order.ordering import VertexOrdering
from repro.order.strategies import STRATEGIES, make_ordering
from repro.testing import oracles

Pair = Tuple[int, int]
Failure = Tuple  # ("edge", u, v) | ("arc", u, v) | ("node", w) | ("dual", (u,v), (x,y))

ORDERING_NAMES: Tuple[str, ...] = tuple(sorted(STRATEGIES))
"""All registered vertex-ordering strategies, cycled by the fuzzer."""


class WorldContext:
    """One fuzz instance: a graph family member plus memoized indexes."""

    def __init__(
        self,
        family: str,
        num_vertices: int,
        edges: Sequence[Tuple],
        ordering_name: str = "degree",
        ordering_seed: int = 0,
    ) -> None:
        if family not in ("undirected", "weighted", "directed"):
            raise ValueError(f"unknown world family {family!r}")
        self.family = family
        self.num_vertices = num_vertices
        self.edges = [tuple(e) for e in edges]
        self.ordering_name = ordering_name
        self.ordering_seed = ordering_seed
        self._cache: Dict[str, object] = {}
        if family == "undirected":
            self.graph = Graph(num_vertices, self.edges)
        elif family == "weighted":
            self.graph = WeightedGraph(num_vertices, self.edges)
        else:
            self.graph = DiGraph(num_vertices, self.edges)

    # -- derivations ------------------------------------------------------

    def skeleton(self) -> Graph:
        """Undirected unweighted view used to compute orderings."""
        g = self._cache.get("skeleton")
        if g is None:
            if self.family == "undirected":
                g = self.graph
            elif self.family == "weighted":
                g = self.graph.to_unweighted()
            else:
                g = self.graph.to_undirected()
            self._cache["skeleton"] = g
        return g

    def ordering(self) -> VertexOrdering:
        """The vertex ordering shared by every index of this context."""
        o = self._cache.get("ordering")
        if o is None:
            if self.ordering_name == "random":
                o = make_ordering(
                    self.skeleton(), "random", seed=self.ordering_seed
                )
            else:
                o = make_ordering(self.skeleton(), self.ordering_name)
            self._cache["ordering"] = o
        return o

    def _memo(self, key: str, build: Callable[[], object]) -> object:
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value

    def labeling(self):
        from repro.labeling.pll import build_pll

        return self._memo("labeling", lambda: build_pll(self.graph, self.ordering()))

    def sief_index(self):
        from repro.core.builder import build_sief

        return self._memo(
            "sief_index", lambda: build_sief(self.graph, self.labeling())
        )

    def sief_engine(self):
        from repro.core.query import SIEFQueryEngine

        return self._memo(
            "sief_engine", lambda: SIEFQueryEngine(self.sief_index())
        )

    def sief_index_batched(self):
        """SIEF index built with the bit-parallel batched relabel.

        Building it asserts bit-identity against the scalar-built index:
        every failure case must carry the same supplemental labels with
        the same ``(rank, dist)`` entries in the same order.  A mismatch
        raises, which the fuzz loop records as a counterexample — this is
        what puts the batched construction path on the full fuzz corpus.
        """
        from repro.core.builder import build_sief

        def build():
            index = build_sief(
                self.graph, self.labeling(), algorithm="batched"
            )
            reference = self.sief_index()
            if set(index.supplements) != set(reference.supplements):
                raise AssertionError(
                    "batched build covered different failure cases"
                )
            for edge, si in index.supplements.items():
                ref = reference.supplements[edge]
                if si != ref:
                    raise AssertionError(
                        f"batched supplement for {edge} differs from scalar"
                    )
                for t, sl in si.labels.items():
                    rl = ref.labels[t]
                    if sl.ranks != rl.ranks or sl.dists != rl.dists:
                        raise AssertionError(
                            f"batched labels for {edge}/{t} not bit-identical"
                        )
            return index

        return self._memo("sief_index_batched", build)

    def sief_index_kernels(self):
        """Batched SIEF index built on the accelerated kernel tier.

        Builds the *same* batched index twice — once with kernels forced
        to pure numpy, once under ``auto`` (the C extension when
        available) — and asserts the two are bit-identical: same
        failure cases, same supplemental ``(rank, dist)`` streams, and
        (unlike the batched-vs-scalar check, where it legitimately
        differs) the same ``search_expanded`` settlement counts.  Any
        divergence raises, which the fuzz loop records as a
        counterexample — this is what puts the compiled tier on the full
        fuzz corpus.  Returns the accelerated-tier index.
        """
        from repro import kernels
        from repro.core.builder import build_sief

        def build():
            with kernels.use_tier("numpy"):
                reference = build_sief(
                    self.graph, self.labeling(), algorithm="batched"
                )
            with kernels.use_tier("auto"):
                tier = kernels.effective_tier()
                index = build_sief(
                    self.graph, self.labeling(), algorithm="batched"
                )
            if set(index.supplements) != set(reference.supplements):
                raise AssertionError(
                    f"{tier}-tier build covered different failure cases"
                )
            for edge, si in index.supplements.items():
                ref = reference.supplements[edge]
                if si != ref:
                    raise AssertionError(
                        f"{tier}-tier supplement for {edge} differs "
                        "from numpy tier"
                    )
                if si.search_expanded != ref.search_expanded:
                    raise AssertionError(
                        f"{tier}-tier search_expanded for {edge} is "
                        f"{si.search_expanded}, numpy tier counted "
                        f"{ref.search_expanded}"
                    )
                for t, sl in si.labels.items():
                    rl = ref.labels[t]
                    if sl.ranks != rl.ranks or sl.dists != rl.dists:
                        raise AssertionError(
                            f"{tier}-tier labels for {edge}/{t} "
                            "not bit-identical to numpy tier"
                        )
            return index

        return self._memo("sief_index_kernels", build)

    def lazy_index(self):
        from repro.core.lazy import LazySIEFIndex
        from repro.labeling.pll import build_pll

        # Own graph copy and labeling: the lazy index owns (and may
        # mutate) both, and sharing the main labeling would let one
        # adapter's freeze/thaw state leak into another's timings.
        return self._memo(
            "lazy_index",
            lambda: LazySIEFIndex(
                self.graph.copy(),
                labeling=build_pll(self.graph, self.ordering()),
            ),
        )

    def unit_weighted_index(self):
        from repro.failures.weighted import build_weighted_sief
        from repro.labeling.pll_weighted import build_weighted_pll

        def build():
            wg = WeightedGraph.from_unweighted(self.graph)
            return build_weighted_sief(
                wg, build_weighted_pll(wg, self.ordering())
            )

        return self._memo("unit_weighted_index", build)

    def weighted_index(self):
        from repro.failures.weighted import build_weighted_sief
        from repro.labeling.pll_weighted import build_weighted_pll

        return self._memo(
            "weighted_index",
            lambda: build_weighted_sief(
                self.graph, build_weighted_pll(self.graph, self.ordering())
            ),
        )

    def directed_index(self):
        from repro.failures.directed import build_directed_sief
        from repro.labeling.pll_directed import build_directed_pll

        return self._memo(
            "directed_index",
            lambda: build_directed_sief(
                self.graph, build_directed_pll(self.graph, self.ordering())
            ),
        )


class EngineAdapter:
    """Base class: one registered query path under conformance test."""

    name: str = "?"
    family: str = "undirected"
    failure_kind: str = "edge"
    #: Adapters too slow for big instances opt out above this edge count.
    max_edges: Optional[int] = None

    def distances(
        self, ctx: WorldContext, failure: Failure, pairs: Sequence[Pair]
    ) -> List[float]:
        raise NotImplementedError

    def truth(
        self, ctx: WorldContext, failure: Failure, pairs: Sequence[Pair]
    ) -> List[float]:
        """Ground truth for this adapter's family and failure kind."""
        if self.failure_kind == "edge":
            if self.family == "weighted":
                return oracles.weighted_truth(ctx.graph, failure[1:3], pairs)
            return oracles.undirected_truth(ctx.graph, failure[1:3], pairs)
        if self.failure_kind == "arc":
            return oracles.directed_truth(ctx.graph, failure[1:3], pairs)
        if self.failure_kind == "node":
            return oracles.node_truth(ctx.graph, failure[1], pairs)
        if self.failure_kind == "dual":
            return oracles.dual_truth(ctx.graph, failure[1], failure[2], pairs)
        raise ValueError(f"unknown failure kind {self.failure_kind!r}")

    def agree(self, got: float, expected: float) -> bool:
        """Whether an answer matches ground truth (exact by default)."""
        return got == expected


def _scalar_loop(fn, pairs: Sequence[Pair]) -> List[float]:
    return [float(fn(s, t)) for s, t in pairs]


class SIEFScalarAdapter(EngineAdapter):
    """``SIEFQueryEngine.distance`` — the paper's Table 4 hot path."""

    name = "sief-scalar"

    def distances(self, ctx, failure, pairs):
        engine = ctx.sief_engine()
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: engine.distance(s, t, edge), pairs)


class SIEFCaseAdapter(EngineAdapter):
    """``distance_with_case`` — must agree with ``distance`` and truth."""

    name = "sief-case"

    def distances(self, ctx, failure, pairs):
        engine = ctx.sief_engine()
        edge = failure[1:3]
        return _scalar_loop(
            lambda s, t: engine.distance_with_case(s, t, edge)[0], pairs
        )


class SIEFBatchAdapter(EngineAdapter):
    """``SIEFQueryEngine.batch_query`` — the vectorized §4.4 path."""

    name = "sief-batch"

    def distances(self, ctx, failure, pairs):
        engine = ctx.sief_engine()
        return [float(d) for d in engine.batch_query(failure[1:3], list(pairs))]


class SIEFFrozenAdapter(EngineAdapter):
    """Scalar queries against the frozen (flat numpy) index backend."""

    name = "sief-frozen"

    def distances(self, ctx, failure, pairs):
        engine = ctx.sief_engine()
        ctx.sief_index().freeze()
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: engine.distance(s, t, edge), pairs)


class SIEFBatchedBuildAdapter(EngineAdapter):
    """Scalar queries on an index built with the batched relabel.

    Materializing the index (memoized per context) asserts bit-identity
    with the scalar-built index, so this adapter simultaneously checks
    the batched *construction* path on every fuzzed instance and the
    answers it yields.
    """

    name = "sief-batched-build"

    def distances(self, ctx, failure, pairs):
        from repro.core.query import SIEFQueryEngine

        engine = ctx._memo(
            "sief_batched_engine",
            lambda: SIEFQueryEngine(ctx.sief_index_batched()),
        )
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: engine.distance(s, t, edge), pairs)


class LazySIEFAdapter(EngineAdapter):
    """``LazySIEFIndex.distance`` — cases materialized on first use."""

    name = "sief-lazy"

    def distances(self, ctx, failure, pairs):
        lazy = ctx.lazy_index()
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: lazy.distance(s, t, edge), pairs)


class UnitWeightedAdapter(EngineAdapter):
    """Weighted SIEF on unit weights — must equal unweighted BFS truth."""

    name = "weighted-unit"
    max_edges = 80

    def distances(self, ctx, failure, pairs):
        index = ctx.unit_weighted_index()
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: index.distance(s, t, edge), pairs)


class BFSBaselineAdapter(EngineAdapter):
    """Index-free BFS-per-query baseline (one-sided)."""

    name = "bfs-baseline"

    def distances(self, ctx, failure, pairs):
        from repro.baselines.bfs_query import BFSQueryBaseline

        baseline = BFSQueryBaseline(ctx.graph)
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: baseline.distance(s, t, edge), pairs)


class BidirectionalBFSAdapter(EngineAdapter):
    """Bidirectional BFS baseline — exercises the meet-in-middle cutoff."""

    name = "bfs-bidirectional"

    def distances(self, ctx, failure, pairs):
        from repro.baselines.bfs_query import BFSQueryBaseline

        baseline = BFSQueryBaseline(ctx.graph, bidirectional=True)
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: baseline.distance(s, t, edge), pairs)


class NaiveRebuildAdapter(EngineAdapter):
    """Full PLL rebuild per failure case (the paper's naive method)."""

    name = "naive-rebuild"
    max_edges = 48

    def distances(self, ctx, failure, pairs):
        from repro.baselines.naive_rebuild import NaiveRebuildBaseline

        baseline = ctx._memo(
            "naive_rebuild", lambda: NaiveRebuildBaseline(ctx.graph)
        )
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: baseline.distance(s, t, edge), pairs)


class WeightedSIEFAdapter(EngineAdapter):
    """Weighted SIEF vs avoiding-Dijkstra, under float tolerance."""

    name = "weighted-sief"
    family = "weighted"
    max_edges = 80

    def distances(self, ctx, failure, pairs):
        index = ctx.weighted_index()
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: index.distance(s, t, edge), pairs)

    def agree(self, got, expected):
        from repro.failures.weighted import close

        return close(got, expected)


class DijkstraBaselineAdapter(EngineAdapter):
    """Index-free Dijkstra baseline on the weighted family."""

    name = "dijkstra-baseline"
    family = "weighted"

    def distances(self, ctx, failure, pairs):
        from repro.baselines.dijkstra_query import DijkstraQueryBaseline

        baseline = DijkstraQueryBaseline(ctx.graph)
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: baseline.distance(s, t, edge), pairs)

    def agree(self, got, expected):
        from repro.failures.weighted import close

        return close(got, expected)


class DirectedSIEFAdapter(EngineAdapter):
    """Directed SIEF (single-arc failures) vs directed BFS."""

    name = "directed-sief"
    family = "directed"
    failure_kind = "arc"
    max_edges = 80

    def distances(self, ctx, failure, pairs):
        index = ctx.directed_index()
        arc = failure[1:3]
        return _scalar_loop(lambda s, t: index.distance(s, t, arc), pairs)


class NodeFailureAdapter(EngineAdapter):
    """Node-failure oracle vs avoid-vertex BFS."""

    name = "node-oracle"
    failure_kind = "node"
    max_edges = 60

    def distances(self, ctx, failure, pairs):
        from repro.failures.node import NodeFailureOracle

        oracle = ctx._memo(
            "node_oracle", lambda: NodeFailureOracle(ctx.graph, ctx.sief_index())
        )
        w = failure[1]
        return _scalar_loop(lambda s, t: oracle.distance(s, t, w), pairs)


class DualFailureAdapter(EngineAdapter):
    """Dual-edge oracle vs avoid-two-edges BFS (and its lower bound)."""

    name = "dual-oracle"
    failure_kind = "dual"
    max_edges = 60

    def distances(self, ctx, failure, pairs):
        from repro.failures.dual import DualFailureOracle
        from repro.labeling.query import INF

        oracle = ctx._memo(
            "dual_oracle", lambda: DualFailureOracle(ctx.graph, ctx.sief_index())
        )
        e1, e2 = failure[1], failure[2]
        out = []
        for s, t in pairs:
            exact = oracle.distance(s, t, e1, e2)
            # The certified lower bound must never exceed the exact
            # answer; surface a violation as a wrong answer.
            bound = oracle.lower_bound(s, t, e1, e2)
            if exact != INF and bound > exact:
                out.append(float(bound))
            else:
                out.append(float(exact))
        return out


class KernelTierBatchAdapter(EngineAdapter):
    """Batch queries answered on both kernel tiers — and proven equal.

    Per case, runs ``SIEFQueryEngine.batch_query`` once with kernels
    forced to pure numpy and once under ``auto`` (the accelerated tier
    when one is available), and raises unless the answer vectors are
    bit-for-bit equal.  The accelerated answers are returned, so the
    differential loop additionally checks them against the brute-force
    oracle.  On hosts with no accelerated backend both passes resolve
    to numpy and the adapter degenerates to a plain batch check.
    """

    name = "sief-batch-kernels"

    def distances(self, ctx, failure, pairs):
        from repro import kernels

        engine = ctx.sief_engine()
        edge = failure[1:3]
        with kernels.use_tier("numpy"):
            reference = [
                float(d) for d in engine.batch_query(edge, list(pairs))
            ]
        with kernels.use_tier("auto"):
            tier = kernels.effective_tier()
            got = [float(d) for d in engine.batch_query(edge, list(pairs))]
        if got != reference:
            raise AssertionError(
                f"{self.name}: {tier}-tier batch answers differ from "
                f"numpy tier ({got!r} != {reference!r})"
            )
        return got


class KernelTierBuildAdapter(EngineAdapter):
    """Scalar queries on an index built on the accelerated kernel tier.

    Materializing the index (memoized per context via
    :meth:`WorldContext.sief_index_kernels`) asserts bit-identity of the
    numpy-tier and accelerated-tier batched builds — supplements,
    append order, and settlement counters — so this adapter puts the
    compiled construction path on every fuzzed instance while its
    answers are checked against ground truth.
    """

    name = "sief-kernels-build"

    def distances(self, ctx, failure, pairs):
        from repro.core.query import SIEFQueryEngine

        engine = ctx._memo(
            "sief_kernels_engine",
            lambda: SIEFQueryEngine(ctx.sief_index_kernels()),
        )
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: engine.distance(s, t, edge), pairs)


class _ServeWorld:
    """One live in-process server tied to a WorldContext's lifetime.

    The index is written to a ``.siefseg`` segment store and served
    demand-paged through :class:`~repro.core.lazy.PagedSIEFIndex`, so
    every fuzzed instance also covers the write → page-in path the real
    daemon uses.
    """

    def __init__(self, ctx: "WorldContext") -> None:
        import os
        import tempfile

        from repro.core.lazy import PagedSIEFIndex
        from repro.core.query import SIEFQueryEngine
        from repro.core.segstore import SegmentStore, write_index
        from repro.serve.client import ServeClient
        from repro.serve.inprocess import InProcessServer
        from repro.serve.server import ServeConfig

        from repro.obs.events import EventLog

        self.tmp = tempfile.TemporaryDirectory(prefix="sief-serve-fuzz-")
        path = os.path.join(self.tmp.name, "index.siefseg")
        write_index(ctx.sief_index(), path)
        self.engine = SIEFQueryEngine(
            PagedSIEFIndex(
                SegmentStore(path), capacity=PagedSIEFIndex.DEFAULT_CAPACITY
            )
        )
        # The adapter's requests are serial, so every batch flushes as
        # soon as the loop is idle; the tight deadline only caps a window.
        # Tracing runs at full sample so the adapter can assert the
        # observability contract (event lines, /debug entries) per case.
        self.events = EventLog(capacity=4096, sample=1.0)
        self.server = InProcessServer(
            self.engine,
            ServeConfig(max_batch=256, max_delay=0.0005, events=self.events),
        )
        self.client = ServeClient(self.server.host, self.server.port)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.stop()
            self.tmp.cleanup()


class ServeConformanceAdapter(EngineAdapter):
    """Queries routed through a live in-process HTTP server.

    Per context, writes the SIEF index to a segment store, pages it back
    in through :class:`~repro.core.lazy.PagedSIEFIndex`, and serves it
    over a real socket on an ephemeral port.  Each case is answered three ways — JSON ``/batch``, binary
    ``/batch.bin``, and the in-memory engine — and the three must be
    bit-identical before the answers go to the ground-truth comparison.
    The server keeps its own private metrics registry, so the global
    observability hooks stay untouched (the fuzz loop checks that).
    """

    name = "sief-serve"

    def distances(self, ctx, failure, pairs):
        import math
        import weakref

        from repro.obs.context import new_trace_id

        world = ctx._cache.get("serve_world")
        if world is None:
            world = _ServeWorld(ctx)
            ctx._cache["serve_world"] = world
            weakref.finalize(ctx, world.close)
        edge = (failure[1], failure[2])
        pairs = [(int(s), int(t)) for s, t in pairs]
        # Client-supplied trace ids with debug on for both wire formats:
        # tracing must never change answer bytes, and the id must come
        # back correlated through the response, the event log, and the
        # /debug/requests ring.
        json_tid = new_trace_id()
        bin_tid = new_trace_id()
        via_json_doc = world.client.batch_ex(
            edge, pairs, trace_id=json_tid, debug=True
        )
        via_json = [
            math.inf if d is None else float(d)
            for d in via_json_doc["distances"]
        ]
        via_bin_arr, bin_headers = world.client.batch_binary_ex(
            edge, pairs, trace_id=bin_tid, debug=True
        )
        via_bin = [float(d) for d in via_bin_arr]
        direct = [float(d) for d in world.engine.batch_query(edge, pairs)]
        if via_json != via_bin or via_bin != direct:
            raise AssertionError(
                f"{self.name}: JSON/binary/direct answers disagree "
                f"({via_json!r} / {via_bin!r} / {direct!r})"
            )
        plain = world.client.batch(edge, pairs)
        if plain != via_json:
            raise AssertionError(
                f"{self.name}: debug/traced answers differ from plain "
                f"({via_json!r} != {plain!r})"
            )
        self._check_tracing(world, json_tid, bin_tid, via_json_doc, bin_headers)
        s, t = pairs[0]
        single = world.client.distance(s, t, edge)
        first = via_bin[0]
        if single != first and not (math.isinf(single) and math.isinf(first)):
            raise AssertionError(
                f"{self.name}: /dist answer {single!r} differs from "
                f"batch answer {first!r} for pair {(s, t)}"
            )
        return via_bin

    def _check_tracing(self, world, json_tid, bin_tid, json_doc, bin_headers):
        """The request-observability contract, asserted per case."""
        import json as _json

        debug = json_doc.get("debug")
        if not debug or debug.get("trace_id") != json_tid:
            raise AssertionError(
                f"{self.name}: /batch?debug=1 did not echo trace id "
                f"{json_tid} (got {debug!r})"
            )
        if bin_headers.get("x-trace-id") != bin_tid:
            raise AssertionError(
                f"{self.name}: binary response header trace id "
                f"{bin_headers.get('x-trace-id')!r} != frame id {bin_tid}"
            )
        bin_debug = _json.loads(bin_headers.get("x-sief-debug", "{}"))
        for tid, decomposition in ((json_tid, debug), (bin_tid, bin_debug)):
            stages = decomposition.get("stages", {})
            for stage in ("parse", "queue", "batch", "compute", "serialize"):
                if stage not in stages:
                    raise AssertionError(
                        f"{self.name}: stage {stage!r} missing from "
                        f"decomposition of {tid}: {stages!r}"
                    )
            events = [
                e
                for e in world.events.recent()
                if e.get("event") == "request" and e.get("trace_id") == tid
            ]
            if not events:
                raise AssertionError(
                    f"{self.name}: no event-log line for trace {tid}"
                )
            ev = events[-1]
            if sum(ev["stages"].values()) > ev["seconds"] + 1e-9:
                raise AssertionError(
                    f"{self.name}: stage sum {ev['stages']} exceeds wall "
                    f"time {ev['seconds']} for trace {tid}"
                )
        recent = world.client.debug_requests()["recent"]
        seen = {e["trace_id"] for e in recent}
        for tid in (json_tid, bin_tid):
            if tid not in seen:
                raise AssertionError(
                    f"{self.name}: trace {tid} absent from /debug/requests "
                    f"(saw {sorted(seen)[:8]!r}...)"
                )


class InstrumentedAdapter(EngineAdapter):
    """An engine adapter run with observability on — and proven harmless.

    Wraps another adapter and, per case, answers the same queries twice:
    once with instrumentation forced **off**, once with a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` and
    :class:`~repro.obs.trace.TraceRecorder` installed.  It raises (which
    the fuzz loop converts into a counterexample) unless

    * the metrics-on answers equal the metrics-off answers bit-for-bit,
    * the span stack is balanced after the case (every span entered was
      exited), and
    * the registry actually observed the workload (instrumentation that
      silently stopped recording is also a regression).

    The metrics-on answers are returned, so the differential loop
    additionally checks them against the brute-force oracle.
    """

    def __init__(self, inner: EngineAdapter) -> None:
        self.inner = inner
        self.name = f"{inner.name}-obs"
        self.family = inner.family
        self.failure_kind = inner.failure_kind
        self.max_edges = inner.max_edges

    def agree(self, got: float, expected: float) -> bool:
        return self.inner.agree(got, expected)

    def distances(self, ctx, failure, pairs):
        from repro.obs import MetricsRegistry, TraceRecorder
        from repro.obs import hooks as obs_hooks

        with obs_hooks.disabled():
            baseline = self.inner.distances(ctx, failure, pairs)
        registry = MetricsRegistry()
        recorder = TraceRecorder(capacity=256)
        with obs_hooks.installed(registry, recorder):
            got = self.inner.distances(ctx, failure, pairs)
        if not recorder.balanced:
            raise AssertionError(
                f"{self.name}: span stack unbalanced after case "
                f"(open={recorder.open_spans()}, "
                f"started={recorder.total_started}, "
                f"finished={recorder.total_finished})"
            )
        if len(registry) == 0:
            raise AssertionError(
                f"{self.name}: registry recorded nothing — "
                "instrumentation hooks appear disconnected"
            )
        if list(got) != list(baseline):
            raise AssertionError(
                f"{self.name}: metrics-on answers differ from metrics-off "
                f"({got!r} != {baseline!r})"
            )
        return got


class _ShardedWorld:
    """One out-of-core segment store tied to a WorldContext's lifetime.

    The fuzzed graph is rebuilt through :func:`build_sief_sharded` with a
    deliberately tiny shard size (so even small instances spill across
    several shards), and the store's rebuilt index is proven equal to
    the in-RAM reference (``SIEFIndex.__eq__``) before any answer is
    served from it.
    """

    SHARD_SIZE = 4
    LRU_CAPACITY = 3

    def __init__(self, ctx: "WorldContext") -> None:
        import tempfile

        from repro.core.lazy import PagedSIEFIndex
        from repro.core.query import SIEFQueryEngine
        from repro.core.segstore import SegmentStore, build_sief_sharded

        self.tmp = tempfile.TemporaryDirectory(prefix="sief-shard-fuzz-")
        path, self.report = build_sief_sharded(
            ctx.graph,
            f"{self.tmp.name}/store",
            labeling=ctx.labeling(),
            shard_size=self.SHARD_SIZE,
        )
        self.store = SegmentStore(path)
        rebuilt = self.store.to_index()
        reference = ctx.sief_index()
        if rebuilt != reference:
            raise AssertionError(
                "sharded-build: index rebuilt from segments differs "
                "from the in-RAM reference"
            )
        self.rebuilt_engine = SIEFQueryEngine(rebuilt)
        # Capacity far below the case count, so the paged engine pages
        # and evicts on nearly every fuzzed failure.
        self.paged_engine = SIEFQueryEngine(
            PagedSIEFIndex(self.store, capacity=self.LRU_CAPACITY)
        )

    def close(self) -> None:
        self.store.close()
        self.tmp.cleanup()


def _sharded_world(ctx: "WorldContext") -> _ShardedWorld:
    import weakref

    world = ctx._cache.get("sharded_world")
    if world is None:
        world = _ShardedWorld(ctx)
        ctx._cache["sharded_world"] = world
        weakref.finalize(ctx, world.close)
    return world


class SIEFShardedBuildAdapter(EngineAdapter):
    """Batch queries on an index rebuilt from an out-of-core spill.

    Materializing the world runs the full shard → spill → mmap-load
    round trip on every fuzzed instance and asserts content equality
    with the in-RAM build, so this adapter checks the sharded
    *construction* path while its answers go to ground truth (ISSUE 9).
    """

    name = "sief-sharded-build"

    def distances(self, ctx, failure, pairs):
        engine = _sharded_world(ctx).rebuilt_engine
        return [float(d) for d in engine.batch_query(failure[1:3], list(pairs))]


class SIEFPagedAdapter(EngineAdapter):
    """Queries answered through the demand-paged LRU index.

    The engine holds at most :attr:`_ShardedWorld.LRU_CAPACITY` failure
    cases resident; every fuzzed failure beyond that forces an mmap read
    plus an eviction, so the whole paging path — TOC lookup, record
    decode, LRU churn — is exercised against ground truth (ISSUE 9).
    """

    name = "sief-paged"

    def distances(self, ctx, failure, pairs):
        engine = _sharded_world(ctx).paged_engine
        edge = failure[1:3]
        return _scalar_loop(lambda s, t: engine.distance(s, t, edge), pairs)


ADAPTERS: Dict[str, EngineAdapter] = {
    adapter.name: adapter
    for adapter in (
        SIEFScalarAdapter(),
        SIEFCaseAdapter(),
        SIEFBatchAdapter(),
        SIEFFrozenAdapter(),
        SIEFBatchedBuildAdapter(),
        LazySIEFAdapter(),
        UnitWeightedAdapter(),
        BFSBaselineAdapter(),
        BidirectionalBFSAdapter(),
        NaiveRebuildAdapter(),
        WeightedSIEFAdapter(),
        DijkstraBaselineAdapter(),
        DirectedSIEFAdapter(),
        NodeFailureAdapter(),
        DualFailureAdapter(),
        # The serving layer: queries answered by a live in-process HTTP
        # server demand-paging a segment-store copy of the index.
        ServeConformanceAdapter(),
        # Kernel-tier differential adapters: the accelerated
        # (C-extension) kernels must answer and build bit-identically to
        # the pure-numpy tier on every fuzzed instance (ISSUE 6).
        KernelTierBatchAdapter(),
        KernelTierBuildAdapter(),
        # Out-of-core differential adapters: the sharded spill/rebuild
        # and the demand-paged LRU engine must match the in-RAM build
        # bit-for-bit on every fuzzed instance (ISSUE 9).
        SIEFShardedBuildAdapter(),
        SIEFPagedAdapter(),
        # Instrumented variants: same engines with metrics+tracing on,
        # proving observability never changes answers (ISSUE 3).
        InstrumentedAdapter(SIEFScalarAdapter()),
        InstrumentedAdapter(SIEFBatchAdapter()),
        InstrumentedAdapter(LazySIEFAdapter()),
    )
}
"""Registry of every conformance-checked query path, keyed by name."""


def derive_weighted_edges(
    edges: Sequence[Tuple[int, int]], seed: int
) -> List[Tuple[int, int, float]]:
    """Attach deterministic pseudo-random weights to an edge list.

    Weights are multiples of 0.5 in [0.5, 4.0]: varied enough to force
    genuine Dijkstra orderings, exactly representable so the weighted
    engines' tolerance comparisons never mask real logic errors.
    """
    rng = random.Random(seed)
    return [(u, v, 0.5 * rng.randint(1, 8)) for u, v in edges]


def derive_directed_arcs(
    edges: Sequence[Tuple[int, int]], seed: int
) -> List[Tuple[int, int]]:
    """Orient an undirected edge list into a digraph arc list.

    Each edge becomes a forward arc, a backward arc, or both — so the
    derived digraphs mix one-way streets with reciprocal links, the
    regime where the directed engine's overlapping-sides logic is
    actually exercised.
    """
    rng = random.Random(seed)
    arcs: List[Tuple[int, int]] = []
    for u, v in edges:
        roll = rng.random()
        if roll < 0.4:
            arcs.append((u, v))
        elif roll < 0.8:
            arcs.append((v, u))
        else:
            arcs.extend(((u, v), (v, u)))
    return arcs
