"""Parallel SIEF construction.

Failure cases are independent — the per-edge IDENTIFY + RELABEL pipeline
reads the graph and labeling and writes only its own supplement — so the
full build parallelizes embarrassingly across processes.  The paper ran
on a 32-core Xeon without exploiting this; in CPython (GIL) processes
are the only way to.

A pool hands its workers the (read-only) build inputs over **shared
memory**: the parent publishes one :mod:`repro.core.shm` arena — CSR
arrays, frozen labeling arrays, ordering permutation — and each worker
attaches zero-copy read-only views.  Startup cost is independent of
index size; the parent guarantees ``close()``/``unlink()`` in a
``finally`` so no ``/dev/shm`` segment survives success, a worker
exception, or ``KeyboardInterrupt``.  Small builds (one worker, or fewer
than four cases) run in-process with no pool.

Each worker returns its chunk's supplemental indexes, which the parent
merges into a normal :class:`~repro.core.index.SIEFIndex` —
bit-identical to a serial build (asserted in tests).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Tuple

from repro.core.builder import (
    RELABEL_ALGORITHMS,
    BuildReport,
    EdgeBuildRecord,
    build_one_case,
    record_case_obs,
)
from repro.core.index import SIEFIndex
from repro.core.shm import attach_build_inputs, publish_build_inputs
from repro.exceptions import IndexError_
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, normalize_edge
from repro.labeling.label import Labeling
from repro.labeling.pll import build_pll
from repro.obs import hooks as _obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SpanProfiler
from repro.obs.trace import TraceRecorder

Edge = Tuple[int, int]

_WORKER_SPAN_CAPACITY = 4096
"""Ring capacity of each worker chunk's private trace recorder."""

# Worker-global state, installed once per process by an initializer.
_STATE: dict = {}


def _init_in_process(
    graph: Graph, labeling: Labeling, algorithm: str, obs: bool
) -> None:
    """State for a build that runs in this process, without a pool."""
    _STATE.clear()
    _STATE["graph"] = graph
    _STATE["labeling"] = labeling
    _STATE["algorithm"] = algorithm
    _STATE["relabel"] = RELABEL_ALGORITHMS[algorithm]
    _STATE["obs"] = obs
    _STATE["csr"] = None


def _init_worker_shm(
    spec: dict,
    algorithm: str,
    obs: bool = False,
    trace: bool = False,
    profile: bool = False,
) -> None:
    """Shared-memory transport: attach read-only views from the spec."""
    _STATE.clear()
    arena, csr, labeling = attach_build_inputs(spec)
    _STATE["arena"] = arena  # keeps the mapping alive for the views
    _STATE["csr"] = csr
    _STATE["labeling"] = labeling
    _STATE["graph"] = None  # materialized lazily for scalar algorithms
    _STATE["algorithm"] = algorithm
    _STATE["relabel"] = RELABEL_ALGORITHMS[algorithm]
    _STATE["obs"] = obs
    _STATE["trace"] = trace
    _STATE["profile"] = profile
    _STATE["attached"] = True


def _worker_graph() -> Graph:
    """The worker's Graph, rebuilding it from shared CSR on first use.

    Only the scalar relabel algorithms walk adjacency lists; the batched
    algorithm runs straight off the shared CSR arrays, so shm workers
    with ``algorithm="batched"`` never pay this materialization.
    """
    graph = _STATE.get("graph")
    if graph is None:
        graph = Graph.from_sorted_adjacency(_STATE["csr"].to_adjacency())
        _STATE["graph"] = graph
    return graph


def _build_chunk(edges: Sequence[Edge]):
    """Build every case in the chunk.

    Returns ``(pairs, metrics_snapshot, obs_extra)`` where ``pairs`` is
    the list of ``(si, record)`` tuples, ``metrics_snapshot`` is the
    chunk-local registry's snapshot (or ``None`` when observability is
    off), and ``obs_extra`` carries the chunk's trace spans and profile
    counts (or ``None`` when neither is on).  Each chunk gets its
    **own** registry/tracer/profiler — worker processes never write the
    parent's — and the parent merges everything at join, so parallel
    builds report exactly the counters a serial build would, plus one
    trace track per worker pid.
    """
    labeling = _STATE["labeling"]
    relabel = _STATE["relabel"]
    chunk_reg = MetricsRegistry() if _STATE.get("obs") else None
    chunk_tracer = (
        TraceRecorder(capacity=_WORKER_SPAN_CAPACITY)
        if _STATE.get("trace")
        else None
    )
    chunk_profiler = None
    if _STATE.get("profile") and chunk_tracer is not None:
        chunk_profiler = SpanProfiler(chunk_tracer)
        chunk_profiler.start()
    if chunk_reg is not None and _STATE.pop("attached", False):
        chunk_reg.counter("sief.shm.worker_attaches").inc()
    if _STATE["algorithm"] == "batched":
        csr = _STATE.get("csr")
        if csr is None:
            csr = CSRGraph.from_graph(_STATE["graph"])
            _STATE["csr"] = csr
        graph = _STATE.get("graph")  # unused by the batched pipeline
    else:
        csr = None
        graph = _worker_graph()
    out = []
    try:
        for u, v in edges:
            if chunk_tracer is not None:
                with chunk_tracer.span("sief.build.case"):
                    si, record = build_one_case(
                        graph, labeling, relabel, u, v, csr=csr
                    )
            else:
                si, record = build_one_case(
                    graph, labeling, relabel, u, v, csr=csr
                )
            if chunk_reg is not None:
                record_case_obs(chunk_reg, record)
            out.append((si, record))
    finally:
        if chunk_profiler is not None:
            chunk_profiler.stop()
    obs_extra = None
    if chunk_tracer is not None:
        if chunk_reg is not None:
            chunk_tracer.sync_registry(chunk_reg)
        obs_extra = {
            "pid": os.getpid(),
            "spans": chunk_tracer.records(),
            "profile": dict(chunk_profiler.counts)
            if chunk_profiler is not None
            else None,
        }
    snapshot = chunk_reg.snapshot() if chunk_reg is not None else None
    return out, snapshot, obs_extra


def _chunks(items: List[Edge], count: int) -> List[List[Edge]]:
    """Split ``items`` into at most ``count`` contiguous balanced chunks.

    Sizes differ by at most one (remainder spread over the leading
    chunks), so no worker idles on a stub chunk near the end of a build;
    no chunk is ever empty.
    """
    if not items:
        return []
    count = min(count, len(items))
    base, rem = divmod(len(items), count)
    out: List[List[Edge]] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < rem else 0)
        out.append(items[start : start + size])
        start += size
    return out


def build_sief_parallel(
    graph: Graph,
    labeling: Optional[Labeling] = None,
    algorithm: str = "bfs_all",
    workers: Optional[int] = None,
    edges: Optional[Sequence[Edge]] = None,
) -> Tuple[SIEFIndex, BuildReport]:
    """Build a SIEF index using a pool of worker processes.

    Parameters mirror :class:`~repro.core.builder.SIEFBuilder` plus
    ``workers`` (default: CPU count).  A pool always receives its
    inputs through the shared-memory arena; with one worker everything
    runs in-process (no pool), which keeps small builds and tests cheap.
    """
    if algorithm not in RELABEL_ALGORITHMS:
        raise IndexError_(
            f"unknown relabel algorithm {algorithm!r}; "
            f"choose from {sorted(RELABEL_ALGORITHMS)}"
        )
    if labeling is None:
        labeling = build_pll(graph)
    if edges is None:
        edge_list = sorted(graph.edges())
    else:
        edge_list = sorted(normalize_edge(*e) for e in edges)
    if workers is None:
        workers = multiprocessing.cpu_count()

    index = SIEFIndex(labeling)
    records: List[EdgeBuildRecord] = []
    parent_reg = _obs.registry
    parent_tracer = _obs.tracer
    parent_profiler = _obs.profiler
    obs_enabled = parent_reg is not None
    use_pool = workers > 1 and len(edge_list) >= 4
    # Worker-side tracing/profiling only makes sense with a real pool:
    # the in-process path already runs under the parent's hooks, so
    # giving it a second tracer would double-record every case span.
    trace_enabled = use_pool and parent_tracer is not None
    profile_enabled = trace_enabled and parent_profiler is not None

    def _drain(iterable):
        """Collect chunk results, ticking live progress per chunk."""
        prog = _obs.progress
        results = []
        for res in iterable:
            if prog is not None:
                prog.advance(len(res[0]))
            results.append(res)
        return results

    with _obs.span("sief.build.parallel"):
        if not use_pool:
            _init_in_process(graph, labeling, algorithm, obs_enabled)
            results = _drain([_build_chunk(edge_list)])
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context("spawn")
            chunks = _chunks(edge_list, workers * 4)
            csr = CSRGraph.from_graph(graph)
            labeling.freeze()
            arena = publish_build_inputs(csr, labeling)
            try:
                with ctx.Pool(
                    processes=workers,
                    initializer=_init_worker_shm,
                    initargs=(
                        arena.spec(),
                        algorithm,
                        obs_enabled,
                        trace_enabled,
                        profile_enabled,
                    ),
                ) as pool:
                    # imap_unordered so completed chunks surface as
                    # they finish (live progress); merge order does
                    # not matter — records are sorted below and the
                    # metric merges are commutative.
                    results = _drain(
                        pool.imap_unordered(_build_chunk, chunks)
                    )
            finally:
                # Runs on success, worker exception, and
                # KeyboardInterrupt alike; the Pool context manager
                # has already terminated the children, so no worker
                # still maps the segment.
                arena.close()
                arena.unlink()

        worker_spans: dict = {}
        for chunk, snapshot, obs_extra in results:
            if snapshot is not None and parent_reg is not None:
                parent_reg.merge_snapshot(snapshot)
            if obs_extra is not None:
                worker_spans.setdefault(obs_extra["pid"], []).extend(
                    obs_extra["spans"]
                )
                counts = obs_extra.get("profile")
                if counts and parent_profiler is not None:
                    parent_profiler.merge(counts)
            for si, record in chunk:
                index.add_supplement(record.edge, si)
                records.append(record)
        if parent_tracer is not None:
            for pid in sorted(worker_spans):
                parent_tracer.add_track(
                    f"worker-{pid}", worker_spans[pid]
                )
    records.sort(key=lambda r: r.edge)
    return index, BuildReport(algorithm, tuple(records))
