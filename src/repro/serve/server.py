"""The asyncio distance-query server.

One process, one event loop, one :class:`~repro.serve.batcher.MicroBatcher`
in front of one :class:`~repro.core.query.SIEFQueryEngine`.  HTTP/1.1 is
parsed by hand on top of ``asyncio.start_server`` — the container ships
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
from repro.obs.metrics import REQUEST_LATENCY_EDGES, MetricsRegistry
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


class _Conn:
    """Per-connection state the drain path needs to see."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False


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
        self._recent: Deque[dict] = deque(maxlen=self.config.debug_recent)
        self._slow: List[Tuple[float, int, dict]] = []
        self._seq = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Set[_Conn] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._draining = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, sock=None) -> None:
        """Bind (or adopt ``sock``), start the batcher, begin accepting.

        Passing a pre-bound listening socket is how ``sief serve
        --workers N`` shares one port across forked workers: the parent
        binds once, every child adopts the same socket and the kernel
        load-balances accepts.
        """
        self.batcher.start()
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock, limit=self.config.max_header
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_header,
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
            await self._server.wait_closed()
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        if self._conn_tasks:
            await asyncio.wait(
                self._conn_tasks, timeout=self.config.drain_timeout
            )
        for task in list(self._conn_tasks):
            task.cancel()
        await self.batcher.close()
        self.registry.gauge("serve.up").set(0)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection loop ---------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.registry.gauge("serve.connections").inc()
        try:
            await self._connection_loop(reader, writer, conn)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._conns.discard(conn)
            if task is not None:
                self._conn_tasks.discard(task)
            self.registry.gauge("serve.connections").dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Conn,
    ) -> None:
        while not self._draining:
            try:
                request = await self._read_request(reader)
            except ValueError as exc:
                # Oversized/garbled request line or headers.  Answer 400
                # and close; the stream is not re-synchronizable.
                await self._send(
                    writer, 400, _json_error(str(exc)), keep_alive=False
                )
                return
            if request is None:
                return  # clean EOF between requests
            method, path, headers, body = request
            conn.busy = True
            try:
                status, payload, content_type, extra = await self._dispatch(
                    method, path, headers, body
                )
            finally:
                conn.busy = False
            keep_alive = (
                not self._draining
                and headers.get("connection", "").lower() != "close"
                and status not in (400, 413)
            )
            await self._send(
                writer,
                status,
                payload,
                content_type=content_type,
                extra=extra,
                keep_alive=keep_alive,
            )
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """One request off the wire, or ``None`` on clean EOF.

        Raises ``ValueError`` on anything malformed at the framing layer
        (bad request line, oversized headers, bad Content-Length).
        """
        try:
            line = await reader.readline()
        except asyncio.LimitOverrunError:
            raise ValueError("request line too long") from None
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise ValueError("malformed request line") from None
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                hline = await reader.readline()
            except asyncio.LimitOverrunError:
                raise ValueError("header line too long") from None
            if not hline:
                raise asyncio.IncompleteReadError(b"", None)
            if hline in (b"\r\n", b"\n"):
                break
            header_bytes += len(hline)
            if header_bytes > self.config.max_header:
                raise ValueError("headers too large")
            try:
                name, _, value = hline.decode("latin-1").partition(":")
            except UnicodeDecodeError:
                raise ValueError("malformed header") from None
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_str = headers.get("content-length")
        if length_str is not None:
            try:
                length = int(length_str)
            except ValueError:
                raise ValueError(
                    f"bad Content-Length {length_str!r}"
                ) from None
            if length < 0:
                raise ValueError("negative Content-Length")
            if length > self.config.max_body:
                # Signal 413 without draining the oversized body; the
                # dispatch layer maps this sentinel, connection closes.
                return method, path, headers, _TOO_LARGE
            if length:
                body = await reader.readexactly(length)
        return method, path, headers, body

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
        reg.counter("serve.requests").inc()
        reg.gauge("serve.requests_inflight").inc()
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
                status, payload, content_type, extra = await asyncio.wait_for(
                    self._route(method, path, body, ctx, debug),
                    timeout=self.config.request_timeout,
                )
        except asyncio.TimeoutError:
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
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the 500 guarantee
            status, payload = 500, _json_error(
                f"{type(exc).__name__}: {exc}"
            )
            reg.counter("serve.errors").inc()
        finally:
            seconds = time.perf_counter() - t0
            self._inflight.pop(id(ctx), None)
            reg.gauge("serve.requests_inflight").dec()
            reg.counter(f"serve.http.{status}").inc()
            reg.histogram(
                "serve.request.seconds", REQUEST_LATENCY_EDGES
            ).observe(seconds)
            for stage, spent in ctx.stages.items():
                reg.histogram(
                    f"serve.stage.{stage}_seconds", REQUEST_LATENCY_EDGES
                ).observe(spent)
            if ctx.pages_faulted:
                reg.counter("serve.pages_faulted").inc(ctx.pages_faulted)
            extra["X-Trace-Id"] = ctx.trace_id
            self._finish_request(
                ctx, method, path, status, seconds,
                bytes_in=0 if body is _TOO_LARGE else len(body),
                bytes_out=len(payload),
            )
        return status, payload, content_type, extra

    def _finish_request(
        self,
        ctx: RequestContext,
        method: str,
        path: str,
        status: int,
        seconds: float,
        bytes_in: int,
        bytes_out: int,
    ) -> None:
        """Feed the debug rings, the event log, and the access log."""
        entry = {
            "trace_id": ctx.trace_id,
            "method": method,
            "path": path,
            "status": status,
            "seconds": round(seconds, 6),
            "stages": {k: round(v, 6) for k, v in ctx.stages.items()},
            "pages_faulted": ctx.pages_faulted,
        }
        self._recent.append(entry)
        self._seq += 1
        item = (seconds, self._seq, entry)
        if len(self._slow) < self.config.debug_slow:
            heapq.heappush(self._slow, item)
        else:
            heapq.heappushpop(self._slow, item)
        ev = self.events
        if ev is not None:
            ev.record(
                {
                    "event": "request",
                    **entry,
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
                    "method": method,
                    "path": path,
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
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            self._refresh_gauges()
            return (
                200,
                to_prometheus_text(self.registry).encode(),
                "text/plain; version=0.0.4",
                {},
            )
        if path == "/failures":
            if method != "GET":
                return _method_not_allowed("GET")
            return self._failures()
        if path == "/debug/requests":
            if method != "GET":
                return _method_not_allowed("GET")
            return self._debug_requests()
        if path == "/debug/slow":
            if method != "GET":
                return _method_not_allowed("GET")
            return self._debug_slow()
        if path == "/dist":
            if method != "POST":
                return _method_not_allowed("POST")
            return await self._dist(body, ctx, debug)
        if path == "/batch":
            if method != "POST":
                return _method_not_allowed("POST")
            return await self._batch_json(body, ctx, debug)
        if path == "/batch.bin":
            if method != "POST":
                return _method_not_allowed("POST")
            return await self._batch_binary(body, ctx, debug)
        return 404, _json_error(f"no route for {path}"), "application/json", {}

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

    def _context_entry(self, ctx: RequestContext) -> dict:
        return {
            "trace_id": ctx.trace_id,
            "method": ctx.meta.get("method"),
            "path": ctx.meta.get("path"),
            "seconds": round(ctx.elapsed(), 6),
            "stages": {k: round(v, 6) for k, v in ctx.stages.items()},
            "pages_faulted": ctx.pages_faulted,
        }

    def _debug_requests(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        doc = {
            "inflight": [
                self._context_entry(c) for c in self._inflight.values()
            ],
            "recent": list(self._recent),
        }
        return 200, json.dumps(doc).encode(), "application/json", {}

    def _debug_slow(self) -> Tuple[int, bytes, str, Dict[str, str]]:
        slowest = [
            entry
            for _, _, entry in sorted(self._slow, reverse=True)
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
        with ctx.stage("serialize"):
            payload = json.dumps(resp).encode()
        if debug:
            resp["debug"] = ctx.decomposition()
            payload = json.dumps(resp).encode()
        return 200, payload, "application/json", {}

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
        with ctx.stage("serialize"):
            payload = json.dumps(resp).encode()
        if debug:
            resp["debug"] = ctx.decomposition()
            payload = json.dumps(resp).encode()
        return 200, payload, "application/json", {}

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

    # -- response writing --------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        extra: Optional[Dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()


_TOO_LARGE = b"\x00__body_too_large__"


def _json_error(message: str) -> bytes:
    return json.dumps({"error": message}).encode()


def _method_not_allowed(allow: str) -> Tuple[int, bytes, str, Dict[str, str]]:
    return (
        405,
        _json_error(f"method not allowed; use {allow}"),
        "application/json",
        {"Allow": allow},
    )


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
