"""Micro-batching queue: coalesce in-flight requests into ``batch_query``.

The measured engine batch path answers ~20x more queries per second than
the scalar loop (BENCH_query_throughput.json) — but only when someone
hands it batches.  A serving daemon gets its batches from concurrency:
every request (single pair or client-side batch) enqueues its pairs with
a future, and each flush drains the queue into as few
:meth:`~repro.core.query.SIEFQueryEngine.batch_query` calls as there are
distinct failed edges in the window.

There is no flusher task.  The first :meth:`MicroBatcher.submit` of a
window schedules a ``loop.call_soon`` tick; each tick either flushes or
re-arms itself for the next loop turn, and the flush runs inside the
tick.  Flush policy — whichever comes first:

* **size**: total queued pairs reached ``max_batch``;
* **idle**: two consecutive event-loop turns passed with no new
  submission.  A request whose bytes are already on a socket reaches
  :meth:`MicroBatcher.submit` within two turns (one to read the socket
  and start its handler, one for the handler to parse and submit), so a
  quiet pair of turns means nothing else is on its way and waiting
  longer only adds latency;
* **deadline**: the oldest queued item has waited ``max_delay`` seconds
  — a cap for sustained arrivals that never leave two quiet turns;
* **drain**: :meth:`MicroBatcher.close` flushes whatever remains.

A lone request therefore waits a few loop turns, not ``max_delay``;
under concurrency the window stays open as long as arrivals keep
coming, up to ``max_delay``.

Backpressure is bounded and explicit: when accepting a request would
push the queue past ``queue_limit`` pairs, :meth:`submit` raises
:class:`LoadShedError` and the server answers 429 + ``Retry-After``
instead of letting latency collapse for everyone already queued.

Single-threaded by design — everything here runs on the server's event
loop, so no locks.  The engine call itself is synchronous CPU work; at
micro-batch sizes that is the point (amortization), and the event loop
resumes between flushes.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.context import RequestContext, scope
from repro.obs.events import EventLog
from repro.obs.metrics import SIZE_EDGES, Family, MetricsRegistry

Edge = Tuple[int, int]

_IDLE_TURNS = 2
"""Consecutive event-loop turns without a submission that end a window."""


class LoadShedError(Exception):
    """The queue is full; the caller should answer 429 + Retry-After."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"micro-batch queue full ({pending} pairs pending, "
            f"limit {limit})"
        )
        self.pending = pending
        self.limit = limit


_NO_SPAN = nullcontext()


class _Item(NamedTuple):
    edge: Edge
    pairs: np.ndarray  # (k, 2) int64
    future: "asyncio.Future[np.ndarray]"
    enqueued: float
    ctx: Optional[RequestContext] = None


class MicroBatcher:
    """The coalescing queue in front of one query engine."""

    def __init__(
        self,
        engine,
        max_batch: int = 512,
        max_delay: float = 0.002,
        queue_limit: int = 8192,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        events: Optional[EventLog] = None,
        tracer=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.queue_limit = queue_limit
        self.registry = reg = (
            registry if registry is not None else MetricsRegistry()
        )
        self.events = events
        self.tracer = tracer
        self._clock = clock
        self._items: List[_Item] = []
        self._pending_pairs = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tick: Optional[asyncio.Handle] = None
        self._quiet = 0  # consecutive ticks without a new submission
        self._seen = 0  # queue length at the previous tick
        self._closing = False
        # Instruments every flush touches, resolved once.
        self._depth = reg.gauge("serve.queue.depth")
        self._flushes = reg.counter("serve.batch.flushes")
        self._causes = Family(
            lambda cause: reg.counter(f"serve.batch.flush_{cause}")
        )
        self._size = reg.histogram("serve.batch.size", SIZE_EDGES)
        self._items_hist = reg.histogram("serve.batch.items", SIZE_EDGES)
        self._groups = reg.histogram("serve.batch.groups", SIZE_EDGES)
        self._flush_seconds = reg.histogram("serve.batch.flush_seconds")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind to the running loop and accept submissions (idempotent)."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()

    async def close(self) -> None:
        """Stop accepting and flush everything queued (cause ``drain``)."""
        self._closing = True
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        if self._items:
            self._flush("drain")

    @property
    def pending_pairs(self) -> int:
        """Pairs currently queued (the load-shed watermark)."""
        return self._pending_pairs

    # -- intake ------------------------------------------------------------

    def submit(
        self,
        edge: Edge,
        pairs: np.ndarray,
        ctx: Optional[RequestContext] = None,
    ) -> "asyncio.Future[np.ndarray]":
        """Enqueue pairs for one failed edge; resolves to a float64 array.

        ``ctx``, when given, receives the request's share of the flush
        timing (``queue``/``batch``/``compute`` stages) and any page
        faults its flush triggers.

        Raises :class:`LoadShedError` when the queue is at capacity and
        ``RuntimeError`` after :meth:`close` (the server answers 503).
        """
        loop = self._loop
        if self._closing or loop is None:
            raise RuntimeError("micro-batcher is closed")
        k = len(pairs)
        if self._pending_pairs + k > self.queue_limit:
            self.registry.counter("serve.queue.shed").inc()
            raise LoadShedError(self._pending_pairs, self.queue_limit)
        future: "asyncio.Future[np.ndarray]" = loop.create_future()
        self._items.append(_Item(edge, pairs, future, self._clock(), ctx))
        self._pending_pairs += k
        self._depth.set(self._pending_pairs)
        if self._tick is None:
            # First submission of a window: tick from the next loop turn.
            self._seen = -1
            self._tick = loop.call_soon(self._on_tick)
        return future

    # -- window ------------------------------------------------------------

    def _on_tick(self) -> None:
        """One loop turn of an open window: flush, or re-arm for the next."""
        n = len(self._items)
        if self._pending_pairs >= self.max_batch:
            cause = "size"
        else:
            self._quiet = self._quiet + 1 if n == self._seen else 0
            self._seen = n
            if self._quiet >= _IDLE_TURNS:
                cause = "idle"
            elif self._clock() >= self._items[0].enqueued + self.max_delay:
                cause = "deadline"
            else:
                self._tick = self._loop.call_soon(self._on_tick)
                return
        self._tick = None
        self._flush(cause)

    def _flush(self, cause: str) -> None:
        items, self._items = self._items, []
        total = self._pending_pairs
        self._pending_pairs = 0
        self._depth.set(0)
        self._flushes.inc()
        self._causes[cause].inc()
        self._size.observe(total)
        self._items_hist.observe(len(items))

        groups: Dict[Edge, List[_Item]] = {}
        for item in items:
            groups.setdefault(item.edge, []).append(item)
        self._groups.observe(len(groups))

        # Everything a request spent waiting before this flush started is
        # its "queue" stage; time inside the flush before *its* group's
        # engine call is "batch"; the engine call itself is "compute".
        # Both endpoints of each duration come from the batcher's clock,
        # so the stages stay disjoint and well-defined.
        flush_start = self._clock()
        for it in items:
            if it.ctx is not None:
                it.ctx.add_stage("queue", flush_start - it.enqueued)
                it.ctx.meta["flush_cause"] = cause
                it.ctx.meta["flush_pairs"] = total
                it.ctx.meta["flush_groups"] = len(groups)

        span = self.tracer.span if self.tracer is not None else None
        t0 = time.perf_counter()
        with span("serve.batch.flush") if span else _NO_SPAN:
            for edge, group in groups.items():
                live = [it for it in group if not it.future.cancelled()]
                if not live:
                    continue
                stacked = (
                    live[0].pairs
                    if len(live) == 1
                    else np.concatenate([it.pairs for it in live])
                )
                ctxs = tuple(
                    it.ctx for it in live if it.ctx is not None
                )
                group_start = self._clock()
                for ctx in ctxs:
                    ctx.add_stage("batch", group_start - flush_start)
                try:
                    with span("serve.batch.group") if span else _NO_SPAN:
                        with scope(*ctxs):
                            out = self.engine.batch_query(edge, stacked)
                except Exception as exc:  # noqa: BLE001 - routed to callers
                    spent = self._clock() - group_start
                    for ctx in ctxs:
                        ctx.add_stage("compute", spent)
                    for it in live:
                        if not it.future.cancelled():
                            it.future.set_exception(exc)
                    continue
                spent = self._clock() - group_start
                for ctx in ctxs:
                    ctx.add_stage("compute", spent)
                pos = 0
                for it in live:
                    k = len(it.pairs)
                    if not it.future.cancelled():
                        it.future.set_result(out[pos : pos + k])
                    pos += k
        elapsed = time.perf_counter() - t0
        self._flush_seconds.observe(elapsed)

        if self.events is not None:
            trace_ids = [it.ctx.trace_id for it in items if it.ctx is not None]
            if trace_ids:
                self.events.record(
                    {
                        "event": "batch.flush",
                        "cause": cause,
                        "pairs": total,
                        "items": len(items),
                        "groups": len(groups),
                        "seconds": round(elapsed, 6),
                        "pages_faulted": sum(
                            it.ctx.pages_faulted
                            for it in items
                            if it.ctx is not None
                        ),
                        "trace_ids": trace_ids,
                    },
                    sampled=any(
                        self.events.sampled(tid) for tid in trace_ids
                    ),
                )
