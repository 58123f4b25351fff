"""Serving-layer load generator: micro-batching under real concurrency.

Drives a live in-process server (real sockets, real HTTP, the real
micro-batcher) through three phases:

1. **closed-loop, 1 client** — sequential ``/dist`` queries; the
   baseline a naive one-connection consumer sees.
2. **closed-loop, N clients** (default 64) — the same queries from N
   concurrent connections; the micro-batcher coalesces them into
   vectorized ``batch_query`` calls.  ``mean_requests_per_flush`` (this
   phase's flushes only) shows the coalescing; the qps ratio over phase 1
   is reported as ``speedup``.
3. **open-loop Poisson arrivals** — queries arrive at an *offered* rate
   regardless of completions (exponential inter-arrival gaps), the
   honest way to measure latency under load: p50/p99/p999 and achieved
   vs offered qps.

Writes ``BENCH_serve.json`` (same env-fingerprint shape as the other
BENCH files) and optionally appends per-phase samples to the bench
history so ``sief bench compare`` can gate regressions::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --duration 1 --clients 16 --offered-qps 500 --out /tmp/s.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.history import env_metadata  # noqa: E402
from repro.obs.chrometrace import write_chrome_trace  # noqa: E402
from repro.obs.events import EventLog  # noqa: E402
from repro.obs.trace import TraceRecorder  # noqa: E402
from repro.core.builder import SIEFBuilder  # noqa: E402
from repro.core.lazy import PagedSIEFIndex  # noqa: E402
from repro.core.query import SIEFQueryEngine  # noqa: E402
from repro.core.segstore import SegmentStore, write_index  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.labeling.pll import build_pll  # noqa: E402
from repro.serve.client import AsyncServeClient  # noqa: E402
from repro.serve.inprocess import InProcessServer  # noqa: E402
from repro.serve.server import ServeConfig  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"

GRAPH_SEED = 7
WORKLOAD_SEED = 42


def build_serving_index(vertices: int, attach: int, cases: int):
    """A serving engine over a ``.siefseg`` store, paged in as the daemon does.

    The LRU holds every sampled case, so the measured phases time the
    serving path rather than eviction churn.
    """
    graph = generators.barabasi_albert(vertices, attach, seed=GRAPH_SEED)
    rng = random.Random(GRAPH_SEED)
    edges = sorted(graph.edges())
    sampled = rng.sample(edges, min(cases, len(edges)))
    labeling = build_pll(graph)
    index, _report = SIEFBuilder(graph, labeling).build(edges=sampled)
    tmp = tempfile.TemporaryDirectory(prefix="sief-bench-serve-")
    store = write_index(index, Path(tmp.name) / "index.siefseg").path
    paged = PagedSIEFIndex(SegmentStore(store), capacity=max(1, len(sampled)))
    return graph, sampled, SIEFQueryEngine(paged), tmp


def make_queries(n: int, edges, count: int, seed: int):
    rng = random.Random(seed)
    return [
        (rng.choice(edges), (rng.randrange(n), rng.randrange(n)))
        for _ in range(count)
    ]


async def closed_loop(host, port, queries, num_clients: int, duration: float):
    """N clients, each issuing sequential single queries until the deadline.

    Returns (completed, elapsed, latencies).
    """
    deadline = time.perf_counter() + duration
    latencies = []

    async def client_loop(offset: int):
        done = 0
        async with AsyncServeClient(host, port) as client:
            i = offset
            while time.perf_counter() < deadline:
                edge, pair = queries[i % len(queries)]
                t0 = time.perf_counter()
                await client.distance(pair[0], pair[1], edge)
                latencies.append(time.perf_counter() - t0)
                done += 1
                i += num_clients
        return done

    t0 = time.perf_counter()
    counts = await asyncio.gather(
        *(client_loop(k) for k in range(num_clients))
    )
    elapsed = time.perf_counter() - t0
    return sum(counts), elapsed, latencies


async def open_loop(host, port, queries, offered_qps: float, duration: float,
                    num_connections: int, seed: int):
    """Poisson arrivals at ``offered_qps``; latency measured per query.

    Arrivals are scheduled up front from exponential gaps and fired on
    time whether or not earlier queries finished — queueing delay shows
    up in the latencies instead of silently throttling the offered load.
    Connections are a fixed pool; an arrival grabs any free connection
    or waits (that wait is part of its measured latency).
    """
    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    while t < duration:
        arrivals.append(t)
        t += rng.expovariate(offered_qps)

    pool: asyncio.Queue = asyncio.Queue()
    clients = []
    for _ in range(num_connections):
        c = AsyncServeClient(host, port)
        await c.connect()
        clients.append(c)
        pool.put_nowait(c)

    latencies = []
    errors = [0]

    async def fire(idx: int):
        edge, pair = queries[idx % len(queries)]
        t0 = time.perf_counter()
        client = await pool.get()
        try:
            await client.distance(pair[0], pair[1], edge)
            latencies.append(time.perf_counter() - t0)
        except Exception:
            errors[0] += 1
        finally:
            pool.put_nowait(client)

    start = time.perf_counter()
    tasks = []
    for idx, at in enumerate(arrivals):
        delay = start + at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(idx)))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - start
    for c in clients:
        await c.close()
    return latencies, errors[0], elapsed, len(arrivals)


def percentiles(latencies):
    if not latencies:
        return {}
    arr = np.sort(np.asarray(latencies))

    def pct(p):
        return float(arr[min(len(arr) - 1, int(len(arr) * p))])

    return {
        "p50_ms": pct(0.50) * 1e3,
        "p90_ms": pct(0.90) * 1e3,
        "p99_ms": pct(0.99) * 1e3,
        "p999_ms": pct(0.999) * 1e3,
        "max_ms": float(arr[-1]) * 1e3,
        "mean_ms": float(arr.mean()) * 1e3,
    }


def flush_totals(registry):
    """``(flushes, pairs, requests)`` the server's batcher has flushed."""
    hists = registry.histograms
    size = hists.get("serve.batch.size")
    items = hists.get("serve.batch.items")
    if size is None or items is None:
        return 0, 0.0, 0.0
    return size.count, size.sum, items.sum


def run(args) -> dict:
    graph, edges, engine, tmp = build_serving_index(
        args.vertices, args.attach, args.cases
    )
    queries = make_queries(
        graph.num_vertices, edges, 4096, WORKLOAD_SEED
    )
    events = None
    if args.event_log or args.trace_sample is not None:
        events = EventLog(
            capacity=4096,
            sample=1.0 if args.trace_sample is None else args.trace_sample,
            sink=args.event_log,
        )
    tracer = TraceRecorder(capacity=65536) if args.trace_out else None
    config = ServeConfig(
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        queue_limit=args.queue_limit,
        events=events,
        tracer=tracer,
    )
    report = {
        "benchmark": "serve",
        "created_unix": int(time.time()),
        "env": env_metadata(),
        "graph": {
            "generator": "barabasi_albert",
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "attach": args.attach,
            "seed": GRAPH_SEED,
            "failure_cases": len(edges),
        },
        "config": {
            "max_batch": args.max_batch,
            "max_delay": args.max_delay,
            "queue_limit": args.queue_limit,
            "clients": args.clients,
            "duration_seconds": args.duration,
            "trace_sample": args.trace_sample,
            "event_log": bool(args.event_log),
        },
    }

    with InProcessServer(engine, config) as srv:
        single_done, single_elapsed, single_lat = asyncio.run(
            closed_loop(srv.host, srv.port, queries, 1, args.duration)
        )
        single_qps = single_done / single_elapsed
        print(
            f"closed-loop  1 client : {single_done} queries in "
            f"{single_elapsed:.2f}s -> {single_qps:.0f} qps"
        )

        before = flush_totals(srv.registry)
        multi_done, multi_elapsed, multi_lat = asyncio.run(
            closed_loop(
                srv.host, srv.port, queries, args.clients, args.duration
            )
        )
        multi_qps = multi_done / multi_elapsed
        speedup = multi_qps / single_qps if single_qps else float("inf")
        # Flushes of the concurrent phase alone: the single-client phase
        # flushes one request at a time and would dilute the mean.
        flushes, pairs, requests = (
            after - b for after, b in zip(flush_totals(srv.registry), before)
        )
        mean_batch = pairs / flushes if flushes else 0.0
        mean_items = requests / flushes if flushes else 0.0
        print(
            f"closed-loop {args.clients:2d} clients: {multi_done} queries in "
            f"{multi_elapsed:.2f}s -> {multi_qps:.0f} qps "
            f"({speedup:.1f}x single, mean flush {mean_items:.2f} requests, "
            f"{mean_batch:.2f} pairs)"
        )

        offered = args.offered_qps or max(200.0, round(multi_qps * 0.6, -2))
        open_lat, open_errors, open_elapsed, offered_n = asyncio.run(
            open_loop(
                srv.host,
                srv.port,
                queries,
                offered,
                args.duration,
                args.clients,
                WORKLOAD_SEED,
            )
        )
        achieved = len(open_lat) / open_elapsed if open_elapsed else 0.0
        pcts = percentiles(open_lat)
        print(
            f"open-loop Poisson: offered {offered:.0f} qps, achieved "
            f"{achieved:.0f} qps, p50 {pcts.get('p50_ms', 0):.2f}ms, "
            f"p99 {pcts.get('p99_ms', 0):.2f}ms, "
            f"p999 {pcts.get('p999_ms', 0):.2f}ms, errors {open_errors}"
        )
        metrics = srv.registry.snapshot()

    tmp.cleanup()
    report["closed_loop"] = {
        "single_qps": single_qps,
        "single_seconds_per_query": 1.0 / single_qps,
        "single_latency": percentiles(single_lat),
        "concurrent_clients": args.clients,
        "concurrent_qps": multi_qps,
        "concurrent_seconds_per_query": 1.0 / multi_qps,
        "concurrent_latency": percentiles(multi_lat),
        "speedup": speedup,
        "mean_batch_size": mean_batch,
        "mean_requests_per_flush": mean_items,
    }
    report["open_loop"] = {
        "offered_qps": offered,
        "offered_queries": offered_n,
        "achieved_qps": achieved,
        "completed": len(open_lat),
        "errors": open_errors,
        **pcts,
    }
    report["server_metrics"] = {
        "counters": metrics["counters"],
        "batch_size_histogram": metrics["histograms"].get("serve.batch.size"),
    }
    if events is not None:
        report["event_log"] = events.stats()
        events.close()
        if args.event_log:
            print(f"event log written to {args.event_log}")
    if tracer is not None:
        trace_path = write_chrome_trace(tracer, args.trace_out)
        print(f"chrome trace written to {trace_path}")

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}")

    if args.latency_out:
        side = Path(args.latency_out)
        side.parent.mkdir(parents=True, exist_ok=True)
        with side.open("w") as fh:
            for name, lat in (
                ("closed_single", single_lat),
                ("closed_concurrent", multi_lat),
                ("open_loop", open_lat),
            ):
                for v in lat:
                    fh.write(json.dumps({"phase": name, "seconds": v}) + "\n")
        print(f"latency sidecar written to {side}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--vertices", type=int, default=2000)
    parser.add_argument("--attach", type=int, default=3)
    parser.add_argument(
        "--cases", type=int, default=8, help="failure cases to build and query"
    )
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument(
        "--duration", type=float, default=3.0, help="seconds per phase"
    )
    parser.add_argument(
        "--offered-qps",
        type=float,
        default=None,
        help="open-loop offered rate (default: 60%% of measured concurrent qps)",
    )
    parser.add_argument("--max-batch", type=int, default=512)
    parser.add_argument("--max-delay", type=float, default=0.002)
    parser.add_argument("--queue-limit", type=int, default=65536)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument(
        "--latency-out",
        default=None,
        help="write per-query latencies as JSON lines (CI artifact)",
    )
    parser.add_argument(
        "--event-log",
        default=None,
        metavar="PATH",
        help="serve with a structured event log sinking JSONL to PATH",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="event-log head-sampling rate in [0,1]; 0.0 measures the "
        "sampling-off overhead floor (slow/error events still recorded)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace of the server's batcher spans to PATH",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless concurrent qps beats single-client "
        "qps by this factor",
    )
    args = parser.parse_args(argv)
    report = run(args)
    if args.assert_speedup is not None:
        speedup = report["closed_loop"]["speedup"]
        if speedup < args.assert_speedup:
            print(
                f"FAIL: concurrent speedup {speedup:.1f}x "
                f"< required {args.assert_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
