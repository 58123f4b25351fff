"""Per-layer timings for the traced run.

Each figure comes from outside the program: a timed call into one
layer's public function on the workload's own requests, or a delta of
the daemon's ``/metrics`` counters.  :class:`Spans` records a span
around every such call; the spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import asyncio
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

_clock = time.perf_counter

LAYER_BUDGET_S = 1.0
"""Wall time each repeated in-process measurement may take at most."""


class Spans:
    """In-memory spans: name, start, end, parent span, trace id."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None):
        rec = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "trace_id": trace_id,
            "start": _clock(),
            "end": None,
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = _clock()

    def add(self, name: str, start: float, end: float, trace_id: str) -> None:
        """A span measured elsewhere (a served request, in seconds from
        its phase's start)."""
        self.records.append(
            {"id": len(self.records), "name": name, "trace_id": trace_id,
             "parent": self._stack[-1] if self._stack else None,
             "start": start, "end": end}
        )

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.records))


def _timed_passes(fn, items: Sequence, budget: float = LAYER_BUDGET_S):
    """Call ``fn(item)`` over ``items`` (cycling) for about ``budget`` s.

    Returns ``(calls, seconds)``; at least one full pass is made.
    """
    calls = 0
    t0 = _clock()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = _clock() - t0
        if elapsed >= budget:
            return calls, elapsed


def labeling_query(labeling, pairs: Sequence[np.ndarray], spans: Spans) -> float:
    """µs per pair of ``batch_dist_query`` on the workload's requests."""
    from repro.labeling import batch_dist_query

    with spans.span("labeling.batch_dist_query"):
        calls, sec = _timed_passes(lambda p: batch_dist_query(labeling, p), pairs)
    return sec / (calls * len(pairs[0])) * 1e6


def engine_query(store, capacity, edges, pairs, spans: Spans) -> Dict[str, float]:
    """``SIEFQueryEngine.batch_query`` per request, and its case-4 share."""
    from repro.core.lazy import PagedSIEFIndex
    from repro.core.query import SIEFQueryEngine
    from repro.obs import hooks

    engine = SIEFQueryEngine(PagedSIEFIndex(store, capacity=capacity))
    reqs = [((int(e[0]), int(e[1])), p) for e, p in zip(edges, pairs)]
    for edge, p in reqs[: 2 * capacity]:  # fill the LRU before timing
        engine.batch_query(edge, p)
    with spans.span("core.query.batch_query"):
        calls, sec = _timed_passes(lambda r: engine.batch_query(*r), reqs)
    with hooks.installed() as reg:
        for edge, p in reqs:
            engine.batch_query(edge, p)
        counters = reg.snapshot()["counters"]
    return {
        "core.query.us_per_request": sec / calls * 1e6,
        "core.query.cross_share": counters.get("sief.query.cross_side", 0)
        / counters["sief.query.batch_pairs"],
    }


def lazy_replay(store, capacity, edges, spans: Spans) -> Dict[str, float]:
    """Replay the failed-edge sequence through a fresh LRU; time page-ins."""
    from repro.core.lazy import PagedSIEFIndex

    paged = PagedSIEFIndex(store, capacity=capacity)
    missed = []
    for e in edges:
        before = paged.misses
        paged.supplement(int(e[0]), int(e[1]))
        if paged.misses != before:
            missed.append((int(e[0]), int(e[1])))
    with spans.span("core.segstore.load_case"):
        calls, sec = _timed_passes(lambda e: store.load_case(*e), missed)
    return {
        "core.lazy.hit_ratio": paged.hits / (paged.hits + paged.misses),
        "core.segstore.load_case_us": sec / calls * 1e6,
    }


def batcher(store, capacity, edges, pairs, spans: Spans) -> float:
    """µs per request through an in-process ``MicroBatcher`` (default
    knobs, no socket), two tasks submitting back to back."""
    from repro.core.lazy import PagedSIEFIndex
    from repro.core.query import SIEFQueryEngine
    from repro.serve.batcher import MicroBatcher

    engine = SIEFQueryEngine(PagedSIEFIndex(store, capacity=capacity))
    reqs = [((int(e[0]), int(e[1])), np.asarray(p, dtype=np.int64))
            for e, p in zip(edges, pairs)]

    async def drive() -> float:
        mb = MicroBatcher(engine)
        mb.start()
        stop = _clock() + LAYER_BUDGET_S
        waits: List[float] = []

        async def task(i: int) -> None:
            while _clock() < stop:
                edge, p = reqs[i % len(reqs)]
                t0 = _clock()
                await mb.submit(edge, p)
                waits.append(_clock() - t0)
                i += 2

        await asyncio.gather(task(0), task(1))
        await mb.close()
        return sum(waits) / len(waits)

    with spans.span("serve.batcher.submit"):
        return asyncio.run(drive()) * 1e6


def protocol(edge, pairs: np.ndarray, spans: Spans) -> Dict[str, float]:
    """Encode and decode of one request frame and its answer frame."""
    from repro.serve import protocol as proto

    dists = np.arange(len(pairs), dtype=np.float64)
    frame = proto.encode_batch_request(edge, pairs)
    answer = proto.encode_batch_response(dists)
    with spans.span("serve.protocol.encode"):
        n_enc, enc = _timed_passes(
            lambda _: (proto.encode_batch_request(edge, pairs),
                       proto.encode_batch_response(dists)),
            [None] * 64, budget=LAYER_BUDGET_S / 4,
        )
    with spans.span("serve.protocol.decode"):
        n_dec, dec = _timed_passes(
            lambda _: (proto.decode_batch_request(frame),
                       proto.decode_batch_response(answer)),
            [None] * 64, budget=LAYER_BUDGET_S / 4,
        )
    return {
        "serve.protocol.encode_us": enc / n_enc * 1e6,
        "serve.protocol.decode_us": dec / n_dec * 1e6,
    }


def respill(store, labeling, path: Path, spans: Spans) -> float:
    """Seconds to write the store's cases into a fresh segment store."""
    from repro.core.segstore import SegmentWriter

    with spans.span("core.segstore.write") as rec:
        with SegmentWriter(path, labeling) as writer:
            for edge, si in store.iter_cases():
                writer.append_case(edge, si)
    return rec["end"] - rec["start"]


def affected_per_case(store) -> float:
    sizes = [len(si.affected.side_u) + len(si.affected.side_v)
             for _, si in store.iter_cases()]
    return float(np.mean(sizes))


def served(d: Dict[str, float], requests: int) -> Dict[str, float]:
    """Per-layer figures from the ``/metrics`` delta ``d`` over one
    served phase of ``requests`` requests."""
    flushes = d["serve_batch_flushes"]
    out = {
        "serve.batcher.items_per_flush": d["serve_batch_items_sum"] / flushes,
        "serve.batcher.pairs_per_flush": d["serve_batch_size_sum"] / flushes,
        "serve.batcher.deadline_share": d.get("serve_batch_flush_deadline", 0.0) / flushes,
        "serve.pages_faulted_per_request": d.get("serve_pages_faulted", 0.0) / requests,
    }
    for stage in ("parse", "queue", "batch", "compute", "serialize"):
        total = d.get(f"serve_stage_{stage}_seconds_sum", 0.0)
        out[f"serve.stage.{stage}_us"] = total / requests * 1e6
    hits = d.get("sief_lazy_cache_hits", 0.0)
    out["core.lazy.served_hit_ratio"] = hits / (hits + d.get("sief_lazy_cache_misses", 0.0))
    return out
