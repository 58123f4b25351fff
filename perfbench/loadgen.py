"""Single-process asyncio load generator with its own HTTP/1.1 client.

The generator owns its wire code, so a change to the program's client
library cannot move the benchmark's numbers.  Requests are encoded in
full (head and body) before the timed phase; responses are kept as raw
bytes and decoded only after it.

Two loops, both over a fixed set of keep-alive connections:

* closed: each connection sends its next request when the previous
  answer arrived; latency runs from send to answer.
* open: requests are due on a fixed schedule whatever the daemon does.
  A due request takes the first free connection; its latency runs from
  its due time, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

_clock = time.perf_counter

_REQ_HEADER = struct.Struct("<4sIII")
_RESP_HEADER = struct.Struct("<4sI")
_MAGIC = b"SFB1"


def encode_request(
    route: str, edge, pairs: np.ndarray, host: str, trace_id: Optional[str] = None
) -> bytes:
    """One complete HTTP request for ``route`` asking ``pairs`` under ``edge``."""
    u, v = int(edge[0]), int(edge[1])
    if route == "/dist":
        s, t = (int(x) for x in pairs[0])
        body = json.dumps({"s": s, "t": t, "edge": [u, v]}).encode()
        ctype = "application/json"
    elif route == "/batch":
        body = json.dumps({"edge": [u, v], "pairs": pairs.tolist()}).encode()
        ctype = "application/json"
    elif route == "/batch.bin":
        arr = np.ascontiguousarray(pairs, dtype="<i4")
        body = _REQ_HEADER.pack(_MAGIC, u, v, len(arr)) + arr.tobytes()
        if trace_id is not None:
            body += bytes.fromhex(trace_id)
        ctype = "application/octet-stream"
    else:
        raise ValueError(f"unknown route {route!r}")
    trace = f"X-Trace-Id: {trace_id}\r\n" if trace_id is not None else ""
    head = (
        f"POST {route} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: {ctype}\r\nContent-Length: {len(body)}\r\n"
        f"{trace}\r\n"
    )
    return head.encode("latin-1") + body


def decode_answer(route: str, body: bytes) -> np.ndarray:
    """The distances in a 200 response body (JSON ``null`` means inf)."""
    if route == "/batch.bin":
        magic, count = _RESP_HEADER.unpack_from(body)
        if magic != _MAGIC or len(body) != _RESP_HEADER.size + 8 * count:
            raise ValueError("malformed binary response")
        return np.frombuffer(body, dtype="<f8", offset=_RESP_HEADER.size)
    doc = json.loads(body)
    values = [doc["distance"]] if route == "/dist" else doc["distances"]
    return np.array(
        [np.inf if d is None else float(d) for d in values], dtype=np.float64
    )


class Connection:
    """One keep-alive HTTP/1.1 connection, one request in flight."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 20
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def roundtrip(self, request: bytes) -> Tuple[int, bytes]:
        """Send one pre-encoded request; ``(status, body)`` of the answer.

        Raises ``ConnectionError`` (the connection is then closed) when
        the daemon drops it.
        """
        if self._writer is None:
            await self.open()
        try:
            self._writer.write(request)
            reader = self._reader
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionError("connection closed by daemon")
            status = int(status_line.split(None, 2)[1])
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = await reader.readexactly(length) if length else b""
            return status, body
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            await self.close()
            raise ConnectionError(str(exc)) from exc

    async def get(self, path: str) -> Tuple[int, bytes]:
        return await self.roundtrip(
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode()
        )


@dataclass
class Phase:
    """What one measured phase sent and got back."""

    index: List[int] = field(default_factory=list)  # request number sent
    status: List[int] = field(default_factory=list)  # 0 = dropped
    body: List[bytes] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)  # seconds
    done: List[float] = field(default_factory=list)  # answer time, s from start
    late: List[float] = field(default_factory=list)  # generator lag, s
    start: float = 0.0
    elapsed: float = 0.0

    def record(self, i, status, body, latency) -> None:
        self.index.append(i)
        self.status.append(status)
        self.body.append(body)
        self.latency.append(latency)
        self.done.append(_clock() - self.start)


async def closed_loop(
    conns: Sequence[Connection], requests: Sequence[bytes], seconds: float
) -> Phase:
    """Each connection sends back to back for ``seconds``.

    ``late`` is the generator's turnaround: from one answer to the
    connection's next send.
    """
    phase = Phase(start=_clock())
    counter = iter(range(1 << 62))
    stop = phase.start + seconds

    async def worker(conn: Connection) -> None:
        last = None
        while True:
            t0 = _clock()
            if t0 >= stop:
                return
            if last is not None:
                phase.late.append(t0 - last)
            i = next(counter)
            try:
                status, body = await conn.roundtrip(requests[i % len(requests)])
            except ConnectionError:
                status, body = 0, b""
            last = _clock()
            phase.record(i, status, body, last - t0)

    await asyncio.gather(*(worker(c) for c in conns))
    phase.elapsed = _clock() - phase.start
    return phase


async def open_loop(
    conns: Sequence[Connection], requests: Sequence[bytes], due: np.ndarray
) -> Phase:
    """Fire request ``i`` at ``due[i]`` seconds after the start.

    ``late`` is how long after its due time the generator got round to
    a request (event-loop lag, before any wait for a free connection).
    """
    phase = Phase(start=_clock())
    free: "asyncio.Queue[Connection]" = asyncio.Queue()
    for c in conns:
        free.put_nowait(c)

    async def fire(i: int, due_at: float) -> None:
        conn = await free.get()
        try:
            status, body = await conn.roundtrip(requests[i])
        except ConnectionError:
            status, body = 0, b""
        finally:
            free.put_nowait(conn)
        phase.record(i, status, body, _clock() - due_at)

    tasks = []
    for i, offset in enumerate(due):
        due_at = phase.start + float(offset)
        delay = due_at - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late.append(max(0.0, _clock() - due_at))
        tasks.append(asyncio.ensure_future(fire(i, due_at)))
    await asyncio.gather(*tasks)
    phase.elapsed = _clock() - phase.start
    return phase
