"""The asyncio distance-query server.

One process, one event loop, one :class:`~repro.serve.batcher.MicroBatcher`
in front of one :class:`~repro.core.query.SIEFQueryEngine`.  HTTP/1.1 is
framed by hand in an :class:`asyncio.Protocol` — the container ships
no third-party HTTP stack, and the five routes here need less than a
framework brings:

=======================  ===================================================
``GET  /healthz``        liveness + index shape (cases, vertices, draining)
``GET  /metrics``        Prometheus text exposition of the server registry
``GET  /failures``       the indexed failure cases (canonical edge list)
``GET  /debug/requests`` tracez-style view: in-flight + recent requests
``GET  /debug/slow``     the slowest-N requests seen by this process
``POST /dist``           one ``{s, t, edge}`` query, JSON in/out
``POST /batch``          ``{edge, pairs}`` JSON batch
``POST /batch.bin``      length-prefixed binary batch (:mod:`repro.serve.protocol`)
=======================  ===================================================

Every query — single or batch, JSON or binary — goes through the
micro-batcher, so concurrency turns into engine-side batch size.

Connections are callbacks, not reader tasks (:class:`_Connection`);
each request runs as one task, and ``request_timeout`` is a
``loop.call_later`` timer that cancels it and answers 504.

Every request carries a :class:`~repro.obs.context.RequestContext`: the
trace id comes from a ``traceparent`` header, an ``X-Trace-Id`` header,
or (for ``/batch.bin``, winning over both) the optional frame trailer —
generated when absent — and is echoed back in an ``X-Trace-Id`` response
header.  The context accumulates a stage decomposition (``parse``,
``queue``, ``batch``, ``compute``, ``serialize``) plus the page faults
its flush triggered; ``?debug=1`` on ``/dist`` and ``/batch`` returns it
inline (a ``debug`` field in the JSON; an ``X-SIEF-Debug`` header for
the fixed-format binary response), and the same decomposition feeds the
``/debug/*`` rings and the sampled :class:`~repro.obs.events.EventLog`.
None of this changes answer bytes: with ``?debug=1`` absent, response
bodies are bit-identical to an untraced server.

Failure mapping is total: malformed input is 400, an unknown failure
case is 404, an oversized body is 413, a full queue is 429 with
``Retry-After``, a handler overrunning ``request_timeout`` is 504, drain
is 503, and anything unexpected is a 500 — the connection is answered
and the server keeps serving.  ``ServeConfig.fault_hook`` is the test
seam that injects slow/raising handlers to prove exactly that.
"""

from __future__ import annotations

import asyncio
import heapq
import inspect
import json
import math
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.query import SIEFQueryEngine
from repro.exceptions import FailureCaseNotIndexed
from repro.obs.context import (
    RequestContext,
    parse_traceparent,
    valid_trace_id,
)
from repro.obs.events import EventLog, peak_rss_bytes
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import REQUEST_LATENCY_EDGES, Family, MetricsRegistry
from repro.serve.batcher import LoadShedError, MicroBatcher
from repro.serve.protocol import (
    ProtocolError,
    decode_batch_request,
    distance_to_json,
    distances_to_json,
    encode_batch_response,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

FaultHook = Callable[[str], Union[None, Awaitable[None]]]
AccessLog = Callable[[dict], None]


@dataclass
class ServeConfig:
    """Everything tunable about one server instance.

    The micro-batching knobs (``max_batch``, ``max_delay``,
    ``queue_limit``) are the latency/throughput trade — see
    ``docs/serving.md`` for how to set them.  ``fault_hook`` is called
    with the request path before dispatch (may be async, may sleep, may
    raise) and exists purely for fault-injection tests.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 512
    max_delay: float = 0.002
    queue_limit: int = 8192
    request_timeout: float = 5.0
    max_body: int = 8 * 1024 * 1024
    max_header: int = 16 * 1024
    drain_timeout: float = 10.0
    fault_hook: Optional[FaultHook] = None
    access_log: Optional[AccessLog] = None
    registry: Optional[MetricsRegistry] = field(default=None, repr=False)
    events: Optional[EventLog] = field(default=None, repr=False)
    tracer: object = field(default=None, repr=False)
    debug_recent: int = 64
    debug_slow: int = 32
    slow_seconds: Optional[float] = None


class _Connection(asyncio.Protocol):
    """One client connection: frames requests and answers them in order.

    A request is framed once its head and ``Content-Length`` body bytes
    are buffered.  One is in flight at a time; the next is framed after
    its answer was written, or once a paused transport resumes writing.
    Reading pauses while over ``max_header`` bytes wait behind a request.
    """

    def __init__(self, server: "SIEFServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buf = bytearray()
        # (method, path, headers, body start, length) of a framed head
        # whose body is still arriving.
        self.head: Optional[Tuple[str, str, Dict[str, str], int, int]] = None
        self.task: Optional[asyncio.Task] = None  # the request in flight
        self.write_paused = False
        self.read_paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._conns.add(self)
        self.server._connections.inc()

    def connection_lost(self, exc) -> None:
        # A handler still running finishes; its answer is dropped.
        self.server._conns.discard(self)
        self.server._connections.dec()

    def data_received(self, data: bytes) -> None:
        self.buf += data
        if self.task is None and not self.write_paused:
            self._frame()
        elif (
            not self.read_paused
            and len(self.buf) > self.server.config.max_header
        ):
            self.read_paused = True
            self.transport.pause_reading()

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._frame()

    def _frame(self) -> None:
        """Start the next complete request in the buffer, if there is one."""
        transport = self.transport
        if self.task or self.write_paused or transport.is_closing():
            return
        server = self.server
        if server._draining:
            transport.close()
            return
        if self.read_paused:
            self.read_paused = False
            transport.resume_reading()
        buf = self.buf
        head = self.head
        if head is None:
            if not buf:
                return
            try:
                head = self.head = _frame_head(buf, server.config)
            except ValueError as exc:
                # Garbled or oversized head: the stream cannot be
                # re-synchronized, so answer 400 and close.
                transport.write(
                    _response(400, _json_error(str(exc)), keep_alive=False)
                )
                transport.close()
                return
            if head is None:
                return  # still arriving
        method, path, headers, start, length = head
        if length > server.config.max_body:
            # 413 without reading the body; the connection then closes.
            body = _TOO_LARGE
            buf.clear()
        else:
            end = start + length
            if len(buf) < end:
                return  # still arriving
            body = bytes(buf[start:end])
            del buf[:end]
        self.head = None
        self.task = task = asyncio.get_running_loop().create_task(
            self._respond(method, path, headers, body)
        )
        server._handlers.add(task)

    async def _respond(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> None:
        server = self.server
        transport = self.transport
        keep_alive = False
        try:
            status, payload, content_type, extra = await server._dispatch(
                method, path, headers, body
            )
            keep_alive = (
                not server._draining
                and headers.get("connection", "").lower() != "close"
                and status not in (400, 413)
            )
            if not transport.is_closing():
                transport.write(
                    _response(status, payload, content_type, extra, keep_alive)
                )
        finally:
            server._handlers.discard(self.task)
            self.task = None
            if keep_alive:
                self._frame()
            else:
                transport.close()


def _expire(task: "asyncio.Task", ctx: RequestContext) -> None:
    """The ``request_timeout`` timer: mark the request, cancel its task."""
    ctx.meta["timed_out"] = True
    task.cancel()


class SIEFServer:
    """Serve one query engine over HTTP; see the module docstring."""

    def __init__(
        self, engine: SIEFQueryEngine, config: Optional[ServeConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.registry = (
            self.config.registry
            if self.config.registry is not None
            else MetricsRegistry()
        )
        self.events = self.config.events
        self.slow_seconds = (
            self.config.slow_seconds
            if self.config.slow_seconds is not None
            else (self.events.slow_seconds if self.events is not None else 0.5)
        )
        self.batcher = MicroBatcher(
            engine,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay,
            queue_limit=self.config.queue_limit,
            registry=self.registry,
            events=self.events,
            tracer=self.config.tracer,
        )
        # tracez-style request surfaces: in-flight contexts, a ring of
        # recently finished requests, and a min-heap keeping the slowest N.
        self._inflight: Dict[int, RequestContext] = {}
        self._recent: Deque[tuple] = deque(maxlen=self.config.debug_recent)
        self._slow: List[tuple] = []
        self._seq = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Set[_Connection] = set()
        self._handlers: Set[asyncio.Task] = set()
        # path -> (the one allowed method, handler); GET handlers take no
        # arguments, POST handlers (body, ctx, debug) and are async.
        self._routes = {
            "/healthz": ("GET", self._healthz),
            "/metrics": ("GET", self._metrics),
            "/failures": ("GET", self._failures),
            "/debug/requests": ("GET", self._debug_requests),
            "/debug/slow": ("GET", self._debug_slow),
            "/dist": ("POST", self._dist),
            "/batch": ("POST", self._batch_json),
            "/batch.bin": ("POST", self._batch_binary),
        }
        self._draining = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        # Instruments every request touches, resolved once.
        reg = self.registry
        self._connections = reg.gauge("serve.connections")
        self._requests = reg.counter("serve.requests")
        self._requests_inflight = reg.gauge("serve.requests_inflight")
        self._request_seconds = reg.histogram(
            "serve.request.seconds", REQUEST_LATENCY_EDGES
        )
        self._status = Family(lambda code: reg.counter(f"serve.http.{code}"))
        self._stages = Family(
            lambda stage: reg.histogram(
                f"serve.stage.{stage}_seconds", REQUEST_LATENCY_EDGES
            )
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, sock=None) -> None:
        """Bind (or adopt ``sock``), start the batcher, begin accepting.

        Passing a pre-bound listening socket is how ``sief serve
        --workers N`` shares one port across forked workers: the parent
        binds once, every child adopts the same socket and the kernel
        load-balances accepts.
        """
        self.batcher.start()
        where = (
            {"sock": sock}
            if sock is not None
            else {"host": self.config.host, "port": self.config.port}
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), **where
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self.registry.gauge("serve.up").set(1)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain gracefully."""
        await stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, stop batcher.

        Idle keep-alive connections are closed immediately; connections
        mid-request run to completion (bounded by ``drain_timeout``) and
        their responses carry ``Connection: close``.  The batcher is
        closed last so every accepted request still gets an answer.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            if conn.task is None:
                conn.transport.close()
        if self._handlers:
            await asyncio.wait(
                set(self._handlers), timeout=self.config.drain_timeout
            )
        for task in list(self._handlers):
            task.cancel()
        if self._server is not None:
            # After the connections close: from Python 3.12 on this also
            # waits for every accepted connection to go away.
            await self._server.wait_closed()
        await self.batcher.close()
        self.registry.gauge("serve.up").set(0)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- dispatch ----------------------------------------------------------

    def _make_context(
        self, method: str, path: str, headers: Dict[str, str]
    ) -> RequestContext:
        """A context with the client's trace id, or a generated one.

        ``traceparent`` (W3C) is preferred over the looser ``X-Trace-Id``
        token; the binary frame trailer, when present, overrides both
        later in :meth:`_batch_binary`.  A malformed header never fails
        the request — the id is simply generated.
        """
        trace_id = parse_traceparent(headers.get("traceparent"))
        if trace_id is None:
            candidate = headers.get("x-trace-id")
            if valid_trace_id(candidate):
                trace_id = candidate
        ctx = RequestContext(trace_id)
        ctx.meta["method"] = method
        ctx.meta["path"] = path
        return ctx

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        reg = self.registry
        self._requests.inc()
        self._requests_inflight.inc()
        path, _, query = path.partition("?")
        debug = "debug=1" in query.split("&") if query else False
        ctx = self._make_context(method, path, headers)
        self._inflight[id(ctx)] = ctx
        t0 = time.perf_counter()
        status = 500
        payload: bytes = b""
        content_type = "application/json"
        extra: Dict[str, str] = {}
        try:
            if body is _TOO_LARGE:
                status, payload = 413, _json_error("request body too large")
            else:
                # The timer cancels this task; only that cancellation is
                # answered 504 below.
                timer = asyncio.get_running_loop().call_later(
                    self.config.request_timeout,
                    _expire,
                    asyncio.current_task(),
                    ctx,
                )
                try:
                    status, payload, content_type, extra = await self._route(
                        method, path, body, ctx, debug
                    )
                finally:
                    timer.cancel()
        except (asyncio.CancelledError, asyncio.TimeoutError) as exc:
            if isinstance(exc, asyncio.CancelledError) and (
                "timed_out" not in ctx.meta
            ):
                raise
            status, payload = 504, _json_error(
                f"request exceeded {self.config.request_timeout}s"
            )
            reg.counter("serve.timeouts").inc()
        except ProtocolError as exc:
            status, payload = 400, _json_error(str(exc))
        except FailureCaseNotIndexed as exc:
            status, payload = 404, _json_error(str(exc))
        except LoadShedError as exc:
            status, payload = 429, _json_error(str(exc))
            # The smallest whole-second hint: a full queue empties in a
            # few flushes, whatever the batching window.
            extra = {"Retry-After": "1"}
        except (ValueError, IndexError, KeyError) as exc:
            # The engine's own validation (out-of-range vertex ids etc.)
            # is a client error, same as a malformed frame.
            status, payload = 400, _json_error(str(exc))
        except RuntimeError as exc:
            # The batcher refuses submissions while draining.
            status, payload = 503, _json_error(str(exc))
        except Exception as exc:  # noqa: BLE001 - the 500 guarantee
            status, payload = 500, _json_error(
                f"{type(exc).__name__}: {exc}"
            )
            reg.counter("serve.errors").inc()
        finally:
            seconds = time.perf_counter() - t0
            self._inflight.pop(id(ctx), None)
            self._requests_inflight.dec()
            self._status[status].inc()
            self._request_seconds.observe(seconds)
            for stage, spent in ctx.stages.items():
                self._stages[stage].observe(spent)
            if ctx.pages_faulted:
                reg.counter("serve.pages_faulted").inc(ctx.pages_faulted)
            extra["X-Trace-Id"] = ctx.trace_id
            self._finish_request(
                ctx, status, seconds,
                bytes_in=0 if body is _TOO_LARGE else len(body),
                bytes_out=len(payload),
            )
        return status, payload, content_type, extra

    def _finish_request(
        self,
        ctx: RequestContext,
        status: int,
        seconds: float,
        bytes_in: int,
        bytes_out: int,
    ) -> None:
        """Feed the debug rings (the ``/debug/*`` views build each entry
        when asked), the event log, and the access log."""
        self._recent.append((ctx, status, seconds))
        self._seq += 1
        item = (seconds, self._seq, ctx, status)
        if len(self._slow) < self.config.debug_slow:
            heapq.heappush(self._slow, item)
        else:
            heapq.heappushpop(self._slow, item)
        ev = self.events
        if ev is not None:
            ev.record(
                {
                    "event": "request",
                    **_request_entry(ctx, seconds, status),
                    "bytes_in": bytes_in,
                    "bytes_out": bytes_out,
                },
                sampled=ev.sampled(ctx.trace_id),
                slow=seconds >= self.slow_seconds,
                error=status >= 500,
            )
        log = self.config.access_log
        if log is not None:
            log(
                {
                    "method": ctx.meta["method"],
                    "path": ctx.meta["path"],
                    "status": status,
                    "seconds": round(seconds, 6),
                    "bytes_in": bytes_in,
                    "bytes_out": bytes_out,
                    "trace_id": ctx.trace_id,
                }
            )

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        ctx: RequestContext,
        debug: bool = False,
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        hook = self.config.fault_hook
        if hook is not None:
            result = hook(path)
            if inspect.isawaitable(result):
                await result
        route = self._routes.get(path)
        if route is None:
            doc = _json_error(f"no route for {path}")
            return 404, doc, "application/json", {}
        allow, handler = route
        if method != allow:
            doc = _json_error(f"method not allowed; use {allow}")
            return 405, doc, "application/json", {"Allow": allow}
        if allow == "GET":
            return handler()
        return await handler(body, ctx, debug)

    # -- handlers ----------------------------------------------------------

    def _healthz(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        index = self.engine.index
        doc = {
            "status": "draining" if self._draining else "ok",
            "vertices": index.labeling.num_vertices,
            "cases": index.num_cases,
            "queue_depth": self.batcher.pending_pairs,
        }
        return 200, json.dumps(doc).encode(), "application/json", {}

    def _metrics(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        self._refresh_gauges()
        text = to_prometheus_text(self.registry).encode()
        return 200, text, "text/plain; version=0.0.4", {}

    def _failures(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        edges = sorted(self.engine.index.supplements)
        doc = {"count": len(edges), "edges": [[u, v] for u, v in edges]}
        return 200, json.dumps(doc).encode(), "application/json", {}

    def _refresh_gauges(self) -> None:
        """Bring scrape-time gauges up to date before exposition."""
        reg = self.registry
        rss = peak_rss_bytes()
        if rss is not None:
            reg.gauge("process.peak_rss_bytes").set(rss)
        if self.events is not None:
            for key, value in self.events.stats().items():
                reg.gauge(f"serve.events.{key}").set(value)

    def _debug_requests(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        doc = {
            "inflight": [
                _request_entry(c, c.elapsed()) for c in self._inflight.values()
            ],
            "recent": [
                _request_entry(ctx, seconds, status)
                for ctx, status, seconds in self._recent
            ],
        }
        return 200, json.dumps(doc).encode(), "application/json", {}

    def _debug_slow(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        slowest = [
            _request_entry(ctx, seconds, status)
            for seconds, _, ctx, status in sorted(self._slow, reverse=True)
        ]
        doc = {"slow_seconds": self.slow_seconds, "slowest": slowest}
        return 200, json.dumps(doc).encode(), "application/json", {}

    async def _dist(
        self, body: bytes, ctx: RequestContext, debug: bool = False
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        with ctx.stage("parse"):
            doc = _parse_json(body)
            s = _require_int(doc, "s")
            t = _require_int(doc, "t")
            edge = _require_edge(doc)
            pairs = np.array([[s, t]], dtype=np.int64)
        out = await self.batcher.submit(edge, pairs, ctx)
        d = float(out[0])
        resp = {
            "s": s,
            "t": t,
            "edge": [edge[0], edge[1]],
            "distance": distance_to_json(d),
            "connected": not math.isinf(d),
        }
        return _json_answer(resp, ctx, debug)

    async def _batch_json(
        self, body: bytes, ctx: RequestContext, debug: bool = False
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        with ctx.stage("parse"):
            doc = _parse_json(body)
            edge = _require_edge(doc)
            raw_pairs = doc.get("pairs")
            if not isinstance(raw_pairs, list):
                raise ProtocolError('field "pairs" must be a list of [s, t]')
            try:
                pairs = np.asarray(raw_pairs, dtype=np.int64).reshape(-1, 2)
            except (TypeError, ValueError):
                raise ProtocolError(
                    '"pairs" entries must be [s, t] integer pairs'
                ) from None
        distances = await self._query(edge, pairs, ctx)
        resp = {
            "edge": [edge[0], edge[1]],
            "distances": distances_to_json(distances),
        }
        return _json_answer(resp, ctx, debug)

    async def _batch_binary(
        self, body: bytes, ctx: RequestContext, debug: bool = False
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        with ctx.stage("parse"):
            edge, pairs, frame_trace = decode_batch_request(body)
            if frame_trace is not None:
                # The id travelling inside the frame is the client's
                # strongest statement of intent; it beats any header.
                ctx.trace_id = frame_trace
        distances = await self._query(edge, pairs.astype(np.int64), ctx)
        with ctx.stage("serialize"):
            payload = encode_batch_response(distances)
        extra: Dict[str, str] = {}
        if debug:
            # The binary body layout is fixed, so the decomposition rides
            # in a header — the answer bytes stay bit-identical.
            extra["X-SIEF-Debug"] = json.dumps(ctx.decomposition())
        return 200, payload, "application/octet-stream", extra

    async def _query(
        self, edge, pairs: np.ndarray, ctx: Optional[RequestContext] = None
    ) -> np.ndarray:
        if len(pairs) == 0:
            return np.empty(0, dtype=np.float64)
        return await self.batcher.submit(edge, pairs, ctx)

_TOO_LARGE = b"\x00__body_too_large__"


def _frame_head(
    buf: bytearray, config: ServeConfig
) -> Optional[Tuple[str, str, Dict[str, str], int, int]]:
    """Frame the request head at the start of ``buf``.

    Returns ``(method, path, headers, body start, Content-Length)``, or
    ``None`` while the head is incomplete.  Raises ``ValueError`` on a
    bad request line, headers beyond ``max_header`` bytes, or a bad or
    negative Content-Length.
    """
    end = buf.find(b"\r\n\r\n")
    line_end = buf.find(b"\r\n", 0, None if end < 0 else end + 2)
    if end < 0:
        if line_end < 0:
            if len(buf) > config.max_header:
                raise ValueError("request line too long")
        elif len(buf) - line_end - 2 > config.max_header:
            raise ValueError("headers too large")
        return None
    if end - line_end > config.max_header:
        raise ValueError("headers too large")
    try:
        method, path, _version = buf[:line_end].decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        raise ValueError("malformed request line") from None
    headers: Dict[str, str] = {}
    if end > line_end:
        for line in buf[line_end + 2 : end].decode("latin-1").split("\r\n"):
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = 0
    length_str = headers.get("content-length")
    if length_str is not None:
        try:
            length = int(length_str)
        except ValueError:
            raise ValueError(f"bad Content-Length {length_str!r}") from None
        if length < 0:
            raise ValueError("negative Content-Length")
    return method, path, headers, end + 4, length


def _response(
    status: int,
    payload: bytes,
    content_type: str = "application/json",
    extra: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """One complete HTTP/1.1 response."""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in (extra or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + payload


def _request_entry(
    ctx: RequestContext, seconds: float, status: Optional[int] = None
) -> dict:
    """A request as the debug views and the event log show it (a request
    still in flight has no ``status``)."""
    entry = {
        "trace_id": ctx.trace_id,
        "method": ctx.meta["method"],
        "path": ctx.meta["path"],
    }
    if status is not None:
        entry["status"] = status
    entry["seconds"] = round(seconds, 6)
    entry["stages"] = {k: round(v, 6) for k, v in ctx.stages.items()}
    entry["pages_faulted"] = ctx.pages_faulted
    return entry


def _json_answer(
    resp: dict, ctx: RequestContext, debug: bool
) -> Tuple[int, bytes, str, Dict[str, str]]:
    """A 200 JSON answer; ``debug`` adds the stage decomposition."""
    with ctx.stage("serialize"):
        payload = json.dumps(resp).encode()
    if debug:
        resp["debug"] = ctx.decomposition()
        payload = json.dumps(resp).encode()
    return 200, payload, "application/json", {}


def _json_error(message: str) -> bytes:
    return json.dumps({"error": message}).encode()


def _parse_json(body: bytes) -> dict:
    try:
        doc = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("JSON body must be an object")
    return doc


def _require_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f'field "{key}" must be an integer')
    return value


def _require_edge(doc: dict) -> Tuple[int, int]:
    edge = doc.get("edge")
    if (
        not isinstance(edge, (list, tuple))
        or len(edge) != 2
        or any(isinstance(x, bool) or not isinstance(x, int) for x in edge)
    ):
        raise ProtocolError('field "edge" must be [u, v] with integers')
    return int(edge[0]), int(edge[1])


async def run_server(
    engine: SIEFQueryEngine,
    config: Optional[ServeConfig] = None,
    ready: Optional[Callable[[str, int], None]] = None,
    sock=None,
) -> None:
    """Run one server until SIGTERM/SIGINT, then drain — the daemon body.

    ``ready(host, port)`` fires once the socket is bound (the CLI prints
    the "serving on" line from it; tests parse that line).
    """
    server = SIEFServer(engine, config)
    await server.start(sock=sock)
    if ready is not None:
        assert server.host is not None and server.port is not None
        ready(server.host, server.port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix / nested loop
            continue
        installed.append(sig)
    try:
        await server.serve_until(stop)
    finally:
        # Also unsets the wakeup fd that loop.close() would leave dangling.
        for sig in installed:
            loop.remove_signal_handler(sig)
