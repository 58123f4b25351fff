"""Request-scoped observability through a live server.

Every test drives a real socket: trace-id intake (traceparent header,
X-Trace-Id header, binary frame trailer) and echo, the ``?debug=1``
stage decomposition, the ``/debug/requests`` and ``/debug/slow``
surfaces, the event log's request lines and slow/error bypass, the
scrape-time gauges on ``/metrics``, and — the contract everything else
leans on — that none of it changes answer bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine
from repro.graph import generators
from repro.obs.events import EventLog
from repro.obs.metrics import REQUEST_LATENCY_EDGES
from repro.serve.client import ServeClient
from repro.serve.inprocess import InProcessServer
from repro.serve.server import ServeConfig


@pytest.fixture(scope="module")
def engine() -> SIEFQueryEngine:
    graph = generators.erdos_renyi_gnm(24, 44, seed=9)
    index, _ = SIEFBuilder(graph).build()
    return SIEFQueryEngine(index.freeze())


@pytest.fixture(scope="module")
def an_edge(engine):
    return sorted(engine.index.supplements)[0]


def traced_server(engine, **kwargs):
    events = EventLog(capacity=1024, sample=1.0, slow_seconds=0.5)
    kwargs.setdefault("max_batch", 64)
    kwargs.setdefault("max_delay", 0.0005)
    return InProcessServer(engine, ServeConfig(events=events, **kwargs)), events


W3C_TID = "4bf92f3577b34da6a3ce929d0e0e4736"


# ---------------------------------------------------------------------------
# trace-id intake and echo
# ---------------------------------------------------------------------------


def test_every_response_carries_a_trace_id(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        status, headers, _ = client.request("GET", "/healthz")
        assert status == 200
        assert len(headers["x-trace-id"]) == 32


def test_traceparent_header_wins_and_is_echoed(engine, an_edge):
    srv, events = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        body = json.dumps({"s": u, "t": v, "edge": list(an_edge)}).encode()
        client._conn.request(
            "POST",
            "/dist",
            body=body,
            headers={
                "Content-Type": "application/json",
                "traceparent": f"00-{W3C_TID}-00f067aa0ba902b7-01",
                "X-Trace-Id": "should-lose",
            },
        )
        resp = client._conn.getresponse()
        resp.read()
        assert resp.headers["X-Trace-Id"] == W3C_TID
    assert any(e.get("trace_id") == W3C_TID for e in events.recent())


def test_x_trace_id_header_accepted(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        _, headers, _ = client.request(
            "POST",
            "/dist",
            json.dumps({"s": u, "t": v, "edge": list(an_edge)}).encode(),
            trace_id="my-opaque-token_01",
        )
        assert headers["x-trace-id"] == "my-opaque-token_01"


def test_invalid_header_trace_id_replaced_with_generated(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        _, headers, _ = client.request(
            "POST",
            "/dist",
            json.dumps({"s": u, "t": v, "edge": list(an_edge)}).encode(),
            trace_id="bad token with spaces",
        )
        # spaces make it invalid; the server generates a 32-hex id instead
        assert len(headers["x-trace-id"]) == 32
        assert headers["x-trace-id"] != "bad token with spaces"


def test_binary_frame_trailer_beats_headers(engine, an_edge):
    srv, events = traced_server(engine)
    frame_tid = "ab" * 16
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        _, headers = client.batch_binary_ex(
            an_edge, [(u, v)], trace_id=frame_tid
        )
        assert headers["x-trace-id"] == frame_tid
    assert any(e.get("trace_id") == frame_tid for e in events.recent())


# ---------------------------------------------------------------------------
# ?debug=1 decomposition, bit-identity
# ---------------------------------------------------------------------------


def test_debug_answers_match_plain_answers(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        pairs = [(u, v), (v, u), (0, u)]
        plain = client.batch(an_edge, pairs)
        debug_doc = client.batch_ex(an_edge, pairs, debug=True)
        debugged = [
            float("inf") if d is None else float(d)
            for d in debug_doc["distances"]
        ]
        assert plain == debugged
        # and the plain response has no debug field at all
        plain_doc = client.batch_ex(an_edge, pairs, debug=False)
        assert "debug" not in plain_doc
        assert "debug" in debug_doc


def test_debug_decomposition_has_all_stages(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        doc = client.distance_ex(u, v, an_edge, debug=True)
        stages = doc["debug"]["stages"]
        for stage in ("parse", "queue", "batch", "compute", "serialize"):
            assert stage in stages, stages
        assert all(v >= 0 for v in stages.values())
        assert doc["debug"]["pages_faulted"] == 0


def test_binary_debug_rides_in_header(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        plain_answer = client.batch_binary(an_edge, [(u, v)])
        answer, headers = client.batch_binary_ex(
            an_edge, [(u, v)], debug=True
        )
        assert list(answer) == list(plain_answer)
        debug = json.loads(headers["x-sief-debug"])
        assert "compute" in debug["stages"]


# ---------------------------------------------------------------------------
# /debug surfaces
# ---------------------------------------------------------------------------


def test_debug_requests_records_recent(engine, an_edge):
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        tid = "feed" * 8
        client.distance(u, v, an_edge, trace_id=tid)
        doc = client.debug_requests()
        assert "inflight" in doc
        entry = [e for e in doc["recent"] if e["trace_id"] == tid]
        assert entry, doc["recent"]
        assert entry[0]["path"] == "/dist"
        assert entry[0]["status"] == 200
        # stages and seconds are rounded to µs in the entry
        assert entry[0]["seconds"] >= sum(entry[0]["stages"].values()) - 1e-5


def test_debug_recent_ring_is_bounded(engine, an_edge):
    events = EventLog(sample=0.0)
    with InProcessServer(
        engine,
        ServeConfig(
            max_batch=64, max_delay=0.0005, events=events, debug_recent=4
        ),
    ) as srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        for _ in range(10):
            client.distance(u, v, an_edge)
        recent = client.debug_requests()["recent"]
        # 4 newest kept; the /debug request itself is not yet finished
        assert len(recent) == 4
        assert all(e["path"] == "/dist" for e in recent)


def test_debug_slow_keeps_slowest_n(engine, an_edge):
    async def slow_hook(path):
        if path == "/failures":
            import asyncio

            await asyncio.sleep(0.05)

    events = EventLog(sample=1.0, slow_seconds=0.04)
    with InProcessServer(
        engine,
        ServeConfig(
            max_batch=64,
            max_delay=0.0005,
            events=events,
            debug_slow=2,
            fault_hook=slow_hook,
        ),
    ) as srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        for _ in range(3):
            client.distance(u, v, an_edge)
        client.failures()  # artificially slow
        doc = client.debug_slow()
        assert doc["slow_seconds"] == 0.04
        assert len(doc["slowest"]) == 2
        # slowest first, and the hooked /failures call dominates
        assert doc["slowest"][0]["path"] == "/failures"
        assert doc["slowest"][0]["seconds"] >= doc["slowest"][1]["seconds"]
    # the slow request bypassed nothing (sample=1.0) but was flagged slow
    assert events.slow_events >= 1


# ---------------------------------------------------------------------------
# event log wiring
# ---------------------------------------------------------------------------


def test_request_events_carry_decomposition_and_flush_correlates(
    engine, an_edge
):
    srv, events = traced_server(engine)
    tid = "0123456789abcdef" * 2
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        client.batch(an_edge, [(u, v)], trace_id=tid)
    req = [
        e
        for e in events.recent()
        if e.get("event") == "request" and e["trace_id"] == tid
    ]
    assert len(req) == 1
    ev = req[0]
    assert ev["status"] == 200
    assert ev["path"] == "/batch"
    assert sum(ev["stages"].values()) <= ev["seconds"] + 1e-5
    assert "ts" in ev and ev["bytes_out"] > 0
    flushes = [
        e
        for e in events.recent()
        if e.get("event") == "batch.flush" and tid in e.get("trace_ids", [])
    ]
    assert flushes, events.recent()
    assert flushes[0]["pairs"] >= 1
    assert flushes[0]["cause"] in ("size", "idle", "deadline", "drain")


def test_errors_bypass_sampling(engine, an_edge):
    def raising_hook(path):
        if path == "/failures":
            raise OSError("injected")

    events = EventLog(sample=0.0)  # nothing sampled
    with InProcessServer(
        engine,
        ServeConfig(
            max_batch=64,
            max_delay=0.0005,
            events=events,
            fault_hook=raising_hook,
        ),
    ) as srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        client.distance(u, v, an_edge)  # sampled out
        status, _, _ = client.request("GET", "/failures")
        assert status == 500
    kinds = [(e.get("event"), e.get("status")) for e in events.recent()]
    assert ("request", 500) in kinds
    assert ("request", 200) not in kinds
    assert events.sampled_out >= 1
    assert events.error_events == 1


def test_sampling_off_serves_identical_answers(engine, an_edge):
    with InProcessServer(engine) as plain_srv:
        plain_client = ServeClient(plain_srv.host, plain_srv.port)
        u, v = an_edge
        expected = plain_client.batch(an_edge, [(u, v), (v, u)])
    events = EventLog(sample=0.0)
    with InProcessServer(
        engine, ServeConfig(events=events)
    ) as srv:
        client = ServeClient(srv.host, srv.port)
        got = client.batch(an_edge, [(u, v), (v, u)])
    assert got == expected
    assert len(events.recent()) == 0


# ---------------------------------------------------------------------------
# /metrics: scrape-time gauges + pinned buckets
# ---------------------------------------------------------------------------


def test_metrics_exports_rss_and_event_gauges(engine, an_edge):
    srv, events = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        client.distance(u, v, an_edge)
        text = client.metrics_text()
    lines = dict(
        line.rsplit(" ", 1)
        for line in text.splitlines()
        if line and not line.startswith("#") and "{" not in line
    )
    assert float(lines["process_peak_rss_bytes"]) > 1024 * 1024
    # the /metrics request itself logs an event after the gauges were
    # refreshed, so the gauge trails the live counter by that request
    assert 0 < float(lines["serve_events_emitted"]) <= events.emitted
    assert float(lines["serve_events_sampled_out"]) == events.sampled_out
    assert float(lines["serve_events_dropped"]) == events.dropped
    assert "serve_events_sink_errors" in lines


def test_request_latency_bucket_boundaries_are_pinned(engine, an_edge):
    # The serving histogram must cover paged-store tails: widening (or
    # narrowing) these edges breaks mergeability with recorded snapshots,
    # so any change has to be deliberate — and break this test first.
    assert REQUEST_LATENCY_EDGES == (
        1e-4, 2.5e-4, 5e-4,
        1e-3, 2.5e-3, 5e-3,
        1e-2, 2.5e-2, 5e-2,
        1e-1, 2.5e-1, 5e-1,
        1.0, 2.5, 5.0, 10.0, 30.0,
    )
    srv, _ = traced_server(engine)
    with srv:
        client = ServeClient(srv.host, srv.port)
        u, v = an_edge
        client.distance(u, v, an_edge)
        snap = srv.registry.snapshot()
    hist = snap["histograms"]["serve.request.seconds"]
    assert tuple(hist["edges"]) == REQUEST_LATENCY_EDGES
    assert hist["count"] >= 1
    # stage histograms share the same edges
    stage = snap["histograms"]["serve.stage.compute_seconds"]
    assert tuple(stage["edges"]) == REQUEST_LATENCY_EDGES
