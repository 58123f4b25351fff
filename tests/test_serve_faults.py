"""Fault injection against the serving layer: it answers, never crashes.

Every test here throws something hostile at a live server — malformed
JSON, truncated binary frames, oversized bodies, slow handlers, raising
handlers, a full queue, SIGTERM mid-request — and asserts the failure
contract: the right status code comes back, the connection is not
leaked, and the *next* request still succeeds.  The micro-batcher's
flush policy (size vs deadline vs drain) is pinned down at the unit
level with a fake clockless engine.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import write_index
from repro.graph import generators
from repro.serve.batcher import LoadShedError, MicroBatcher
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.inprocess import InProcessServer
from repro.serve.protocol import BINARY_MAGIC, encode_batch_request
from repro.serve.server import ServeConfig

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@pytest.fixture(scope="module")
def engine() -> SIEFQueryEngine:
    graph = generators.erdos_renyi_gnm(24, 44, seed=9)
    index, _ = SIEFBuilder(graph).build()
    return SIEFQueryEngine(index.freeze())


@pytest.fixture(scope="module")
def an_edge(engine):
    return sorted(engine.index.supplements)[0]


# ---------------------------------------------------------------------------
# malformed input -> 400, connection stays usable
# ---------------------------------------------------------------------------


MALFORMED_JSON = [
    b"{not json at all",
    b"",
    b"[1, 2, 3]",
    b'{"s": "zero", "t": 1, "edge": [0, 1]}',
    b'{"s": 0, "t": 1}',
    b'{"s": 0, "t": 1, "edge": [0]}',
    b'{"s": 0, "t": 1, "edge": ["a", "b"]}',
    b'{"s": true, "t": 1, "edge": [0, 1]}',
]


@pytest.mark.parametrize("body", MALFORMED_JSON)
def test_malformed_json_is_400(engine, an_edge, body):
    with InProcessServer(engine) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, payload = client.request("POST", "/dist", body)
        assert status == 400
        assert "error" in json.loads(payload)
        # server is still alive and correct afterwards
        client2 = ServeClient(srv.host, srv.port)
        u, v = an_edge
        assert client2.distance(u, v, an_edge) >= 1


MALFORMED_FRAMES = [
    b"",
    b"SFB",
    b"XXXX" + b"\x00" * 12,
    BINARY_MAGIC + b"\x00" * 4,  # truncated header
    encode_batch_request((0, 1), [(0, 1)])[:-3],  # truncated pairs
    encode_batch_request((0, 1), [(0, 1)]) + b"extra",  # trailing junk
    BINARY_MAGIC + (0).to_bytes(4, "little") * 2 + (2**22 + 1).to_bytes(4, "little"),
]


@pytest.mark.parametrize("frame", MALFORMED_FRAMES)
def test_malformed_binary_is_400(engine, an_edge, frame):
    with InProcessServer(engine) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, payload = client.request(
            "POST", "/batch.bin", frame, content_type="application/octet-stream"
        )
        assert status == 400
        assert "error" in json.loads(payload)
        client2 = ServeClient(srv.host, srv.port)
        out = client2.batch_binary(an_edge, [(0, 1), (2, 3)])
        assert len(out) == 2


def test_garbled_request_line_is_400_and_close(engine):
    with InProcessServer(engine) as srv:
        with socket.create_connection((srv.host, srv.port), timeout=5) as s:
            s.sendall(b"\x00\x01\x02 garbage\r\n\r\n")
            data = s.recv(4096)
            assert b"400" in data.split(b"\r\n", 1)[0]
        # next connection unaffected
        client = ServeClient(srv.host, srv.port)
        assert client.healthz()["status"] == "ok"


def test_oversized_body_is_413(engine):
    config = ServeConfig(max_body=1024)
    with InProcessServer(engine, config) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, _ = client.request("POST", "/batch", b"x" * 2048)
        assert status == 413
        client2 = ServeClient(srv.host, srv.port)
        assert client2.healthz()["status"] == "ok"


def test_unknown_route_and_method(engine):
    with InProcessServer(engine) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, _ = client.request("GET", "/nope")
        assert status == 404
        status, headers, _ = client.request("GET", "/dist")
        assert status == 405
        assert headers.get("allow") == "POST"
        status, _, _ = client.request("POST", "/healthz", b"{}")
        assert status == 405


def test_unknown_failure_case_is_404(engine):
    with InProcessServer(engine) as srv:
        client = ServeClient(srv.host, srv.port)
        with pytest.raises(ServeClientError) as exc:
            client.distance(0, 1, (998, 999))
        assert exc.value.status == 404


def test_out_of_range_vertex_is_client_error(engine, an_edge):
    with InProcessServer(engine) as srv:
        client = ServeClient(srv.host, srv.port)
        with pytest.raises(ServeClientError) as exc:
            client.batch(an_edge, [(0, 10_000)])
        assert 400 <= exc.value.status < 500


# ---------------------------------------------------------------------------
# connection layer: framing, pipelining, disconnects
# ---------------------------------------------------------------------------


INF = float("inf")


def _dist_request(s, t, edge) -> bytes:
    body = json.dumps({"s": s, "t": t, "edge": list(edge)}).encode()
    return (
        b"POST /dist HTTP/1.1\r\nHost: x\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


def _read_response(stream):
    """``(status, headers, body)`` of one response, or ``None`` on EOF."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def test_pipelined_requests_answered_in_order(engine, an_edge):
    pairs = [(0, 5), (3, 3), (7, 2)]
    with InProcessServer(engine) as srv:
        with socket.create_connection((srv.host, srv.port), timeout=5) as s:
            s.sendall(b"".join(_dist_request(a, b, an_edge) for a, b in pairs))
            stream = s.makefile("rb")
            for a, b in pairs:
                status, _, body = _read_response(stream)
                assert status == 200
                doc = json.loads(body)
                assert (doc["s"], doc["t"]) == (a, b)
                want = engine.distance(a, b, an_edge)
                assert doc["distance"] == (None if want == INF else want)


def test_request_sent_one_byte_at_a_time(engine, an_edge):
    request = _dist_request(0, 5, an_edge)
    with InProcessServer(engine) as srv:
        with socket.create_connection((srv.host, srv.port), timeout=5) as s:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                s.sendall(request[i : i + 1])
            status, _, body = _read_response(s.makefile("rb"))
            assert status == 200
            want = engine.distance(0, 5, an_edge)
            assert json.loads(body)["distance"] == want


def test_endless_headers_are_400_and_close(engine):
    with InProcessServer(engine) as srv:
        with socket.create_connection((srv.host, srv.port), timeout=5) as s:
            s.sendall(b"POST /dist HTTP/1.1\r\n")
            try:
                for i in range(20 * 1024 // 32):
                    s.sendall(b"X-Filler-%04d: " % i + b"y" * 16 + b"\r\n")
            except OSError:
                pass  # the server may close before the last bytes land
            stream = s.makefile("rb")
            status, headers, body = _read_response(stream)
            assert status == 400
            assert headers["connection"] == "close"
            assert "headers too large" in json.loads(body)["error"]
            assert stream.read() == b""  # closed
        with ServeClient(srv.host, srv.port) as client:
            assert client.healthz()["status"] == "ok"


@pytest.mark.parametrize("cut", ["headers", "body", "handler"])
def test_client_disconnect_mid_request_leaks_nothing(engine, an_edge, cut):
    """A client that goes away mid-request leaves no connection or
    in-flight request behind, and the server keeps answering."""

    async def slow(path):
        if path == "/dist":
            await asyncio.sleep(0.2)

    request = _dist_request(0, 5, an_edge)
    head_end = request.index(b"\r\n\r\n") + 4
    partial = {
        "headers": request[: head_end - 10],
        "body": request[: head_end + 3],
        "handler": request,
    }[cut]
    config = ServeConfig(fault_hook=slow if cut == "handler" else None)
    with InProcessServer(engine, config) as srv:
        gauges = srv.registry.gauges
        with socket.create_connection((srv.host, srv.port), timeout=5) as s:
            s.sendall(partial)
            _wait_for(lambda: gauges["serve.connections"].value == 1)
            if cut == "handler":
                _wait_for(lambda: gauges["serve.requests_inflight"].value == 1)
        _wait_for(lambda: gauges["serve.connections"].value == 0)
        _wait_for(lambda: gauges["serve.requests_inflight"].value == 0)
        with ServeClient(srv.host, srv.port) as client:
            want = engine.distance(0, 5, an_edge)
            assert client.distance(0, 5, an_edge) == want
        _wait_for(lambda: gauges["serve.connections"].value == 0)


# ---------------------------------------------------------------------------
# injected handler faults
# ---------------------------------------------------------------------------


def test_slow_handler_times_out_with_504(engine, an_edge):
    async def stall(path):
        if path == "/dist":
            await asyncio.sleep(5)

    config = ServeConfig(request_timeout=0.2, fault_hook=stall)
    with InProcessServer(engine, config) as srv:
        client = ServeClient(srv.host, srv.port)
        t0 = time.monotonic()
        with pytest.raises(ServeClientError) as exc:
            client.distance(0, 1, an_edge)
        assert exc.value.status == 504
        assert time.monotonic() - t0 < 3
        # non-stalled routes still work on a fresh connection
        client2 = ServeClient(srv.host, srv.port)
        assert client2.healthz()["status"] == "ok"
        assert srv.registry.counter_value("serve.timeouts") >= 1


def test_raising_handler_is_500_then_recovers(engine, an_edge):
    calls = {"n": 0}

    def explode(path):
        calls["n"] += 1
        if path == "/healthz" and calls["n"] == 1:
            raise RuntimeError("injected handler crash")

    # RuntimeError maps to 503 (drain signal); anything else to 500 —
    # inject a non-Runtime error to hit the generic 500 path too.
    def explode_value(path):
        if path == "/failures":
            raise ArithmeticError("injected")

    config = ServeConfig(fault_hook=explode)
    with InProcessServer(engine, config) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, payload = client.request("GET", "/healthz")
        assert status == 503  # RuntimeError -> drain mapping
        assert "injected" in json.loads(payload)["error"]
        # second call does not raise; same connection still works
        status, _, _ = client.request("GET", "/healthz")
        assert status == 200

    config = ServeConfig(fault_hook=explode_value)
    with InProcessServer(engine, config) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, payload = client.request("GET", "/failures")
        assert status == 500
        assert "injected" in json.loads(payload)["error"]
        assert client.healthz()["status"] == "ok"
        assert srv.registry.counter_value("serve.errors") >= 1


def test_engine_fault_surfaces_without_killing_batcher(an_edge):
    class FlakyEngine:
        def __init__(self, real):
            self.real = real
            self.calls = 0

        @property
        def index(self):
            return self.real.index

        def batch_query(self, edge, pairs):
            self.calls += 1
            if self.calls == 1:
                raise ArithmeticError("transient engine fault")
            return self.real.batch_query(edge, pairs)

    graph = generators.erdos_renyi_gnm(24, 44, seed=9)
    index, _ = SIEFBuilder(graph).build()
    flaky = FlakyEngine(SIEFQueryEngine(index.freeze()))
    with InProcessServer(flaky) as srv:
        client = ServeClient(srv.host, srv.port)
        status, _, _ = client.request(
            "POST",
            "/batch",
            json.dumps({"edge": list(an_edge), "pairs": [[0, 1]]}).encode(),
        )
        assert status == 500
        # the batcher survived; the retry answers
        assert client.batch(an_edge, [(0, 1)])[0] >= 0


# ---------------------------------------------------------------------------
# load shedding
# ---------------------------------------------------------------------------


def test_load_shed_429_with_retry_after(engine, an_edge):
    config = ServeConfig(queue_limit=4, max_delay=0.01)
    with InProcessServer(engine, config) as srv:
        client = ServeClient(srv.host, srv.port)
        # a batch bigger than the whole queue can never be admitted
        with pytest.raises(ServeClientError) as exc:
            client.batch(an_edge, [(0, 1)] * 10)
        assert exc.value.status == 429
        assert exc.value.retry_after is not None
        # within capacity still works
        assert len(client.batch(an_edge, [(0, 1)] * 4)) == 4
        assert srv.registry.counter_value("serve.queue.shed") >= 1


# ---------------------------------------------------------------------------
# micro-batcher flush policy (unit level, deterministic)
# ---------------------------------------------------------------------------


class CountingEngine:
    """batch_query = original pair sums; counts calls for assertions."""

    def __init__(self):
        self.calls = []

    def batch_query(self, edge, pairs):
        pairs = np.asarray(pairs)
        self.calls.append((tuple(edge), len(pairs)))
        return pairs.sum(axis=1).astype(np.float64)


def run(coro):
    return asyncio.run(coro)


def test_flush_on_size_fires_before_deadline():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=4, max_delay=30.0)
        b.start()
        t0 = time.monotonic()
        futs = [b.submit((0, 1), np.array([[i, i]])) for i in range(4)]
        out = await asyncio.gather(*futs)
        assert time.monotonic() - t0 < 5, "size flush must not wait for deadline"
        assert [float(o[0]) for o in out] == [0.0, 2.0, 4.0, 6.0]
        assert b.registry.counter_value("serve.batch.flush_size") == 1
        assert b.registry.counter_value("serve.batch.flush_deadline") == 0
        assert eng.calls == [((0, 1), 4)]
        await b.close()

    run(main())


def test_lone_submit_flushes_idle_in_a_few_turns():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=1000, max_delay=30.0)
        b.start()
        fut = b.submit((0, 1), np.array([[2, 3]]))
        turns = 0
        while not fut.done():
            await asyncio.sleep(0)
            turns += 1
            assert turns <= 8, "a lone submit must not wait for the deadline"
        assert float(fut.result()[0]) == 5.0
        assert b.registry.counter_value("serve.batch.flush_idle") == 1
        assert b.registry.counter_value("serve.batch.flush_deadline") == 0
        assert b.registry.counter_value("serve.batch.flush_size") == 0
        await b.close()

    run(main())


def test_flush_on_deadline_caps_sustained_arrivals():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(
            eng, max_batch=10**9, max_delay=0.05, queue_limit=10**9
        )
        b.start()
        t0 = time.monotonic()
        first = b.submit((0, 1), np.array([[2, 3]]))
        # A producer that submits on every loop turn never leaves two
        # quiet turns, so only the deadline can close the window.
        while not first.done():
            b.submit((0, 1), np.array([[1, 1]]))
            await asyncio.sleep(0)
        elapsed = time.monotonic() - t0
        assert float(first.result()[0]) == 5.0
        assert elapsed >= 0.04, f"deadline flush came too early ({elapsed}s)"
        assert b.registry.counter_value("serve.batch.flush_deadline") == 1
        assert b.registry.counter_value("serve.batch.flush_idle") == 0
        assert eng.calls[0][1] > 1
        await b.close()

    run(main())


def test_submits_woken_in_one_turn_share_a_flush():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=1000, max_delay=30.0)
        b.start()
        gate = asyncio.Event()

        async def client(i):
            await gate.wait()
            # The second client spends one more turn before it submits,
            # as a connection task does between reading and parsing.
            for _ in range(i):
                await asyncio.sleep(0)
            return await b.submit((0, 1), np.array([[i, i]]))

        tasks = [asyncio.create_task(client(i)) for i in range(2)]
        await asyncio.sleep(0)  # both tasks now wait on the gate
        gate.set()  # wakes both in the same turn
        out = await asyncio.gather(*tasks)
        assert [float(o[0]) for o in out] == [0.0, 2.0]
        assert eng.calls == [((0, 1), 2)]
        assert b.registry.counter_value("serve.batch.flushes") == 1
        assert b.registry.counter_value("serve.batch.flush_idle") == 1
        await b.close()

    run(main())


def test_boundary_exactly_max_batch_is_size_flush():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=3, max_delay=30.0)
        b.start()
        f1 = b.submit((0, 1), np.array([[1, 1], [2, 2]]))  # 2 pairs
        f2 = b.submit((0, 1), np.array([[3, 3]]))  # 3rd pair -> size
        await asyncio.gather(f1, f2)
        assert b.registry.counter_value("serve.batch.flush_size") == 1
        await b.close()

    run(main())


def test_one_oversize_item_still_flushes():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=2, max_delay=30.0, queue_limit=100)
        b.start()
        out = await b.submit((0, 1), np.array([[i, i] for i in range(7)]))
        assert len(out) == 7
        assert eng.calls == [((0, 1), 7)]
        await b.close()

    run(main())


def test_groups_by_edge_one_engine_call_each():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=6, max_delay=30.0)
        b.start()
        futs = [
            b.submit((0, 1), np.array([[1, 1]])),
            b.submit((2, 3), np.array([[2, 2]])),
            b.submit((0, 1), np.array([[3, 3], [4, 4]])),
            b.submit((2, 3), np.array([[5, 5], [6, 6]])),
        ]
        out = await asyncio.gather(*futs)
        assert [list(map(float, o)) for o in out] == [
            [2.0],
            [4.0],
            [6.0, 8.0],
            [10.0, 12.0],
        ]
        assert sorted(eng.calls) == [((0, 1), 3), ((2, 3), 3)]
        await b.close()

    run(main())


def test_shed_raises_and_queue_recovers():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=100, max_delay=0.02, queue_limit=3)
        b.start()
        f1 = b.submit((0, 1), np.array([[1, 1], [2, 2]]))
        with pytest.raises(LoadShedError):
            b.submit((0, 1), np.array([[3, 3], [4, 4]]))
        await f1  # deadline flush empties the queue
        out = await b.submit((0, 1), np.array([[3, 3], [4, 4]]))
        assert len(out) == 2
        await b.close()

    run(main())


def test_close_drains_pending_items():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=1000, max_delay=30.0)
        b.start()
        fut = b.submit((0, 1), np.array([[4, 5]]))
        await b.close()  # drain flush, not the 30s deadline
        assert float((await fut)[0]) == 9.0
        assert b.registry.counter_value("serve.batch.flush_drain") == 1
        with pytest.raises(RuntimeError):
            b.submit((0, 1), np.array([[1, 1]]))

    run(main())


def test_cancelled_future_is_skipped():
    async def main():
        eng = CountingEngine()
        b = MicroBatcher(eng, max_batch=1000, max_delay=0.02)
        b.start()
        f1 = b.submit((0, 1), np.array([[1, 1]]))
        f2 = b.submit((0, 1), np.array([[2, 2]]))
        f1.cancel()
        assert float((await f2)[0]) == 4.0
        assert f1.cancelled()
        await b.close()

    run(main())


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


def test_inprocess_drain_completes_inflight_request(engine, an_edge):
    """stop() while a request is in flight: the request is answered, not cut."""

    async def slow_handler(path):
        if path == "/dist":
            await asyncio.sleep(0.4)

    config = ServeConfig(fault_hook=slow_handler)
    srv = InProcessServer(engine, config)
    result = {}

    def worker():
        client = ServeClient(srv.host, srv.port)
        try:
            result["answer"] = client.distance(an_edge[0], an_edge[1], an_edge)
        finally:
            client.close()

    t = threading.Thread(target=worker)
    t.start()
    time.sleep(0.1)  # the request is inside its handler
    srv.stop()
    t.join(timeout=10)
    assert not t.is_alive()
    assert result["answer"] >= 1


def test_sigterm_graceful_drain_subprocess(engine, an_edge, tmp_path):
    """The real daemon: SIGTERM right after a request -> answered, exit 0.

    The daemon serves a ``.siefseg`` store written from the module's
    index, demand-paged exactly as in production.
    """
    store = write_index(engine.index, tmp_path / "idx.siefseg").path
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(store),
            "--port",
            "0",
            "--max-delay",
            "0.4",
            "--max-batch",
            "100000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        m = re.match(r"serving on ([\d.]+):(\d+)", line)
        assert m, f"unexpected startup line: {line!r}"
        host, port = m.group(1), int(m.group(2))
        result = {}

        def worker():
            client = ServeClient(host, port, timeout=10)
            result["answer"] = client.batch(an_edge, [(0, 1), (2, 3)])

        t = threading.Thread(target=worker)
        t.start()
        # The idle flush answers within loop turns, so the request is
        # usually back by now; in-flight drain is pinned in-process.
        time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        t.join(timeout=15)
        rc = proc.wait(timeout=15)
        assert rc == 0, f"daemon exited {rc}"
        assert not t.is_alive()
        assert len(result["answer"]) == 2
        # a post-drain connection must be refused, not hang
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)
    finally:
        if proc.poll() is None:
            proc.kill()


def test_run_server_removes_its_signal_handlers(engine):
    """After ``run_server`` returns, no signal handler or wakeup fd is left.

    ``loop.close()`` shuts the loop's self-pipe before it drops the
    handlers, so a signal landing in between would be written to a
    closed wakeup fd.
    """
    from repro.serve.server import run_server

    async def main():
        loop = asyncio.get_running_loop()

        def ready(host, port):
            # Runs once serve_until awaits, i.e. after the handlers exist.
            loop.call_soon(os.kill, os.getpid(), signal.SIGTERM)

        await run_server(engine, ServeConfig(), ready=ready)
        return signal.set_wakeup_fd(-1), signal.getsignal(signal.SIGTERM)

    wakeup_fd, handler = run(main())
    assert wakeup_fd == -1
    assert handler is signal.SIG_DFL


def test_drain_rejects_new_queries_with_503(engine, an_edge):
    """After the batcher closes, an already-open connection gets 503."""

    async def main():
        from repro.serve.server import SIEFServer

        server = SIEFServer(engine, ServeConfig())
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        # Drain with no in-flight work; the listener closes.  A request
        # written on the surviving (idle -> closed) connection fails at
        # the socket level rather than hanging.
        await server.drain()
        body = json.dumps(
            {"s": 0, "t": 1, "edge": [an_edge[0], an_edge[1]]}
        ).encode()
        writer.write(
            b"POST /dist HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        try:
            await writer.drain()
            data = await asyncio.wait_for(reader.read(4096), timeout=5)
            assert data == b"" or b"503" in data
        except ConnectionError:
            pass  # equally acceptable: the drain closed the socket
        finally:
            writer.close()

    run(main())
