"""Command-line interface: build, query and inspect SIEF indexes.

Installed as ``sief`` (see pyproject) and runnable as ``python -m repro``.

Examples::

    sief generate --dataset gnutella -o gnutella.txt
    sief build gnutella.txt -o gnutella.siefseg --algorithm bfs_all
    sief query gnutella.siefseg --fail 3 17 --pair 0 42
    sief path gnutella.txt gnutella.siefseg --fail 3 17 --pair 0 42
    sief impact gnutella.txt gnutella.siefseg --top 10
    sief stats gnutella.siefseg
    sief verify gnutella.txt gnutella.siefseg
    sief serve gnutella.siefseg
    sief validate gnutella.txt

``sief build`` writes the ``.siefseg`` segment store
(:mod:`repro.core.segstore`), the one on-disk index format; every
command that reads an index opens that store.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.exceptions import ReproError


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.datasets import DATASETS, load_dataset
    from repro.graph.io import write_edge_list

    if args.list:
        for name, spec in DATASETS.items():
            print(f"{name:12s} {spec.domain}")
        return 0
    graph = load_dataset(args.dataset)
    write_edge_list(graph, args.output, header=f"repro dataset: {args.dataset}")
    print(
        f"wrote {args.dataset} (n={graph.num_vertices}, m={graph.num_edges}) "
        f"to {args.output}"
    )
    return 0


def _resolve_algorithm(args: argparse.Namespace) -> str:
    """Combine ``--algorithm`` with the ``--batched``/``--no-batched`` pair.

    ``--batched`` selects the bit-parallel construction path regardless
    of ``--algorithm``; ``--no-batched`` forces a scalar path (falling
    back to ``bfs_all`` when ``--algorithm batched`` was also given).
    With neither flag, ``--algorithm`` stands as written.
    """
    if getattr(args, "batched", None) is True:
        return "batched"
    algorithm = args.algorithm
    if getattr(args, "batched", None) is False and algorithm == "batched":
        return "bfs_all"
    return algorithm


def _cmd_build(args: argparse.Namespace) -> int:
    import contextlib

    from repro.core.segstore import build_sief_sharded
    from repro.graph.io import read_edge_list
    from repro.labeling.pll import build_pll
    from repro.order.strategies import make_ordering

    graph, _names = read_edge_list(args.graph)
    print(f"loaded graph: n={graph.num_vertices}, m={graph.num_edges}")
    started = time.perf_counter()
    labeling = build_pll(graph, make_ordering(graph, args.ordering))
    print(
        f"PLL labeling: {labeling.total_entries()} entries "
        f"in {time.perf_counter() - started:.2f}s"
    )
    algorithm = _resolve_algorithm(args)
    prog = None
    if getattr(args, "progress", False):
        from repro.obs import ProgressReporter
        from repro.obs import hooks as obs_hooks

        prog = ProgressReporter(total=graph.num_edges, label="sief build")
        hook_ctx = obs_hooks.installed(report_progress=prog)
    else:
        hook_ctx = contextlib.nullcontext()
    with hook_ctx:
        store_path, report = build_sief_sharded(
            graph,
            args.output,
            labeling=labeling,
            algorithm=algorithm,
            shards=args.shards,
            jobs=args.jobs,
        )
    if prog is not None:
        prog.finish()
    print(
        f"SIEF ({algorithm}, jobs={args.jobs}): "
        f"{report.num_cases} failure cases in {report.num_shards} shards, "
        f"{report.total_entries} supplemental entries; "
        f"identify {report.identify_seconds:.2f}s, "
        f"relabel {report.relabel_seconds:.2f}s"
    )
    print(
        f"index written to {store_path} "
        f"({report.spilled_bytes} segment bytes, peak "
        f"{report.max_resident_cases} resident cases)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.query import SIEFQueryEngine
    from repro.core.index import SIEFIndex
    from repro.labeling.query import INF

    index = SIEFIndex.load(args.index)
    engine = SIEFQueryEngine(index)
    u, v = args.fail
    s, t = args.pair
    distance, case = engine.distance_with_case(s, t, (u, v))
    shown = "inf" if distance == INF else str(distance)
    print(f"d(G - ({u},{v}); {s}, {t}) = {shown}   [case {case.value}]")
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    from repro.core.query import SIEFQueryEngine
    from repro.core.index import SIEFIndex
    from repro.graph.io import read_edge_list
    from repro.labeling.paths import failure_shortest_path

    graph, _names = read_edge_list(args.graph)
    engine = SIEFQueryEngine(SIEFIndex.load(args.index))
    u, v = args.fail
    s, t = args.pair
    path = failure_shortest_path(graph, engine, s, t, (u, v))
    if path is None:
        print(f"no path: failing ({u},{v}) disconnects {s} from {t}")
        return 1
    print(" -> ".join(map(str, path)))
    print(f"length {len(path) - 1}, avoiding edge ({u},{v})")
    return 0


def _cmd_impact(args: argparse.Namespace) -> int:
    from repro.analysis.resilience import (
        failure_impact_histogram,
        resilience_profile,
    )
    from repro.core.index import SIEFIndex

    index = SIEFIndex.load(args.index)
    print(f"worst {args.top} failure cases by affected vertices:")
    for edge, impact in failure_impact_histogram(index, top=args.top):
        print(f"  edge {edge}: {impact} affected")
    profile = resilience_profile(
        index, num_queries=args.queries, seed=args.seed
    )
    print(
        f"\nresilience over {profile.queries} random (pair, failure) "
        "samples:"
    )
    print(f"  unchanged:    {profile.unchanged}")
    print(
        f"  stretched:    {profile.stretched} "
        f"(mean {profile.mean_stretch:.2f}x, max {profile.max_stretch:.2f}x)"
    )
    print(
        f"  disconnected: {profile.disconnected} "
        f"({profile.disconnect_rate:.1%})"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.index import SIEFIndex
    from repro.core.stats import sief_stats
    from repro.labeling.stats import labeling_stats

    index = SIEFIndex.load(args.index)
    original = labeling_stats(index.labeling)
    stats = sief_stats(index)
    print(f"vertices:               {stats.num_vertices}")
    print(f"failure cases:          {stats.num_cases}")
    print(f"original label entries: {stats.original_entries}")
    print(f"  avg per vertex (LN):  {original.avg_entries:.3f}")
    print(f"supplemental entries:   {stats.supplemental_entries}")
    print(f"  SLEN / OLEN:          {stats.slen_over_olen:.3f}")
    print(f"original index size:    {stats.original_megabytes:.3f} MB")
    print(f"supplemental size:      {stats.supplemental_megabytes:.3f} MB")
    print(f"avg affected / case:    {stats.avg_affected_per_case:.2f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.index import SIEFIndex
    from repro.core.verify import VERIFY_LEVELS, verify_index
    from repro.graph.io import read_edge_list

    graph, _names = read_edge_list(args.graph)
    index = SIEFIndex.load(args.index)
    levels = args.level or list(VERIFY_LEVELS)
    problems = verify_index(
        index,
        graph,
        sample_cases=None if args.sample < 0 else args.sample,
        queries_per_case=args.queries,
        seed=args.seed,
        levels=levels,
    )
    if problems:
        for p in problems:
            print(f"PROBLEM: {p}")
        print(f"{len(problems)} problem(s) at levels {', '.join(levels)}")
        return 1
    print(
        f"ok: levels {', '.join(levels)} passed "
        f"({index.num_cases} cases, sampled "
        f"{'all' if args.sample < 0 else args.sample})"
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.testing import fuzz, parse_budget
    from repro.testing.fuzz import FuzzConfig

    try:
        config = FuzzConfig(
            seed=args.seed,
            budget_seconds=parse_budget(args.budget),
            adapters=args.adapter or None,
            generators=args.generator or None,
            corpus_dir=None if args.no_corpus else args.corpus,
            do_shrink=not args.no_shrink,
            max_counterexamples=args.max_counterexamples,
        )
        if args.metrics_out:
            from repro.obs import (
                MetricsRegistry,
                TraceRecorder,
                installed,
                write_json_lines,
            )

            registry = MetricsRegistry()
            recorder = TraceRecorder(capacity=4096)
            with installed(registry, recorder):
                report = fuzz(config)
            write_json_lines(registry, args.metrics_out, recorder)
            print(f"metrics sidecar written to {args.metrics_out}")
        else:
            report = fuzz(config)
    except ValueError as exc:  # unknown adapter/generator, bad budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import random

    from repro.core.builder import SIEFBuilder
    from repro.core.query import SIEFQueryEngine
    from repro.graph import generators
    from repro.labeling.pll import build_pll
    from repro.obs import (
        MetricsRegistry,
        SpanProfiler,
        TraceRecorder,
        installed,
        to_chrome_trace_json,
        to_json_lines,
        to_prometheus_text,
    )

    if args.graph:
        from repro.graph.io import read_edge_list

        graph, _names = read_edge_list(args.graph)
    else:
        graph = generators.barabasi_albert(
            args.vertices, args.attach, seed=args.seed
        )
    print(
        f"workload graph: n={graph.num_vertices}, m={graph.num_edges}",
        file=sys.stderr,
    )

    rng = random.Random(args.seed)
    edges = sorted(graph.edges())
    cases = rng.sample(edges, min(args.cases, len(edges)))

    registry = MetricsRegistry()
    recorder = TraceRecorder(capacity=args.span_capacity)
    profiler = None
    if args.profile or args.folded_out:
        profiler = SpanProfiler(recorder, interval=args.profile_interval)
    algorithm = _resolve_algorithm(args)
    with installed(registry, recorder, profile=profiler):
        if profiler is not None:
            profiler.start()
        try:
            labeling = build_pll(graph)
            if args.jobs > 1:
                from repro.core.parallel import build_sief_parallel

                index, _report = build_sief_parallel(
                    graph,
                    labeling,
                    algorithm=algorithm,
                    workers=args.jobs,
                    edges=cases,
                )
            else:
                index, _report = SIEFBuilder(
                    graph, labeling, algorithm=algorithm
                ).build(edges=cases)
            engine = SIEFQueryEngine(index)
            n = graph.num_vertices
            per_case = max(1, args.queries // max(1, len(cases)))
            for edge in cases:
                pairs = [
                    (rng.randrange(n), rng.randrange(n))
                    for _ in range(per_case)
                ]
                engine.batch_query(edge, pairs)
                for s, t in pairs[: min(per_case, args.scalar_queries)]:
                    engine.distance(s, t, edge)
        finally:
            if profiler is not None:
                profiler.stop()
        recorder.sync_registry(registry)

    if not recorder.balanced:  # pragma: no cover - instrumentation bug
        print("warning: span stack unbalanced after workload", file=sys.stderr)
    if args.format == "prom":
        text = to_prometheus_text(registry, recorder)
    elif args.format == "chrome":
        text = to_chrome_trace_json(recorder, profiler)
    else:
        text = to_json_lines(registry, recorder)
    if args.out == "-":
        print(text, end="")
    else:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
        print(f"metrics written to {args.out}", file=sys.stderr)
    if args.folded_out and profiler is not None:
        from pathlib import Path

        Path(args.folded_out).write_text(
            profiler.folded(), encoding="utf-8"
        )
        print(
            f"folded stacks written to {args.folded_out}", file=sys.stderr
        )
    if args.profile and profiler is not None:
        print(profiler.report(), file=sys.stderr)
    return 0


def _bench_workload_samples(args: argparse.Namespace) -> dict:
    """Time the smoke-scale build/query workloads; k samples each."""
    import random

    from repro.core.builder import SIEFBuilder
    from repro.core.query import SIEFQueryEngine
    from repro.graph import generators
    from repro.labeling.pll import build_pll

    workloads = args.workload or ["build", "query"]
    graph = generators.barabasi_albert(
        args.vertices, args.attach, seed=args.seed
    )
    rng = random.Random(args.seed)
    edges = sorted(graph.edges())
    cases = rng.sample(edges, min(args.cases, len(edges)))
    labeling = build_pll(graph)
    out: dict = {}
    if "build" in workloads:
        samples = []
        for _ in range(args.repeat):
            started = time.perf_counter()
            SIEFBuilder(graph, labeling, algorithm=args.algorithm).build(
                edges=cases
            )
            samples.append(time.perf_counter() - started)
        out["build"] = samples
    if "query" in workloads:
        index, _report = SIEFBuilder(
            graph, labeling, algorithm=args.algorithm
        ).build(edges=cases)
        engine = SIEFQueryEngine(index)
        n = graph.num_vertices
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(args.queries)
        ]
        samples = []
        for _ in range(args.repeat):
            started = time.perf_counter()
            for edge in cases:
                engine.batch_query(edge, pairs)
            samples.append(time.perf_counter() - started)
        out["query"] = samples
    return out


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from repro.bench.history import (
        BenchHistory,
        BenchRun,
        default_run_label,
        env_metadata,
    )

    if args.sample and not args.bench_id:
        print("error: --sample requires --id", file=sys.stderr)
        return 2
    history = BenchHistory(args.history)
    run_label = args.run or default_run_label()
    meta = env_metadata()
    if args.sample:
        per_bench = {args.bench_id: list(args.sample)}
    else:
        per_bench = _bench_workload_samples(args)
    now = time.time()
    for bench_id, samples in sorted(per_bench.items()):
        samples = [s * args.scale for s in samples]
        rec = BenchRun(
            bench_id=bench_id,
            samples=tuple(samples),
            run=run_label,
            meta=meta,
            timestamp=now,
        )
        history.append(rec)
        print(
            f"recorded {bench_id} [{run_label}]: "
            f"min {min(samples):.6g}s over {len(samples)} samples"
        )
    print(f"history: {history.path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench.history import (
        BenchHistory,
        CrossHostError,
        CrossTierError,
        compare_runs,
    )

    history = BenchHistory(args.history)
    baseline, candidate = args.baseline, args.candidate
    if baseline is None or candidate is None:
        labels = history.run_labels()
        if len(labels) < 2:
            print(
                f"error: need two recorded runs in {history.path} "
                f"(found {len(labels)}); pass --baseline/--candidate",
                file=sys.stderr,
            )
            return 2
        if baseline is None:
            baseline = labels[-2]
        if candidate is None:
            candidate = labels[-1]
    try:
        comparisons, missing = compare_runs(
            history,
            baseline,
            candidate,
            threshold=args.threshold,
            statistic=args.statistic,
            allow_cross_host=args.allow_cross_host,
            allow_cross_tier=args.allow_cross_tier,
        )
    except (CrossHostError, CrossTierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline={baseline}  candidate={candidate}")
    for comp in comparisons:
        print(comp.describe())
    for bench_id in missing:
        print(f"WARN {bench_id}: present in only one run")
    regressed = any(c.regressed for c in comparisons)
    if args.expect_regression:
        if regressed:
            print("expected regression detected")
            return 0
        print("error: expected a regression but every benchmark passed")
        return 1
    return 1 if regressed else 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    from repro.bench.history import BenchHistory

    history = BenchHistory(args.history)
    records = history.load()
    if not records:
        print(f"(no records in {history.path})")
        return 0
    for label in history.run_labels():
        recs = [r for r in records if r.run == label]
        hosts = sorted({str(r.meta.get("hostname")) for r in recs})
        shas = sorted({str(r.meta.get("git_sha")) for r in recs})
        print(
            f"{label}: {len(recs)} benchmark(s) "
            f"[{', '.join(r.bench_id for r in recs)}] "
            f"host={','.join(hosts)} sha={','.join(shas)}"
        )
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.kernels import capability_report

    report = capability_report()
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0 if report.get("effective") else 2
    print(f"requested tier: {report.get('requested')}")
    print(f"effective tier: {report.get('effective')}")
    if report.get("error"):
        print(f"error: {report['error']}", file=sys.stderr)
    print("backends:")
    for tier, info in report.get("backends", {}).items():
        status = "available" if info.get("available") else "unavailable"
        detail_keys = (
            "numpy_version",
            "compiler",
            "library",
            "compile_cached",
            "error",
        )
        details = ", ".join(
            f"{k}={info[k]}" for k in detail_keys if info.get(k) is not None
        )
        print(f"  {tier:6s} {status}" + (f"  ({details})" if details else ""))
    kernels = report.get("kernels", {})
    if kernels:
        print("kernels:")
        for name, tier in kernels.items():
            print(f"  {name:12s} -> {tier}")
    return 0 if report.get("effective") else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json
    import os
    import signal as _signal
    import socket
    from pathlib import Path

    from repro.core.lazy import PagedSIEFIndex
    from repro.core.query import SIEFQueryEngine
    from repro.core.segstore import STORE_SUFFIX, SegmentStore
    from repro.obs import hooks as obs_hooks
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.server import ServeConfig, run_server

    from repro.obs.events import EventLog

    if Path(args.index).suffix != STORE_SUFFIX:
        print(
            f"sief serve: {args.index} is not a {STORE_SUFFIX} segment "
            f"store; write one with `sief build GRAPH -o X{STORE_SUFFIX}`",
            file=sys.stderr,
        )
        return 2

    events = None
    sample = args.trace_sample
    if args.event_log is not None or sample is not None:
        events = EventLog(
            sample=1.0 if sample is None else sample,
            slow_seconds=args.slow_threshold,
            sink=args.event_log,
        )

    # Demand-paged serving: mmap'd segment store behind an LRU of hot
    # failure cases — the index never fully resides in memory.  The
    # server's /metrics registry doubles as the global hooks registry so
    # the paging counters are exposed too.
    index = PagedSIEFIndex(SegmentStore(args.index), capacity=args.cache_cases)
    registry = MetricsRegistry()
    obs_hooks.install(registry)
    print(
        f"loaded {args.index}: n={index.labeling.num_vertices}, "
        f"cases={index.num_cases} "
        f"(demand-paged, lru={args.cache_cases})",
        file=sys.stderr,
    )
    engine = SIEFQueryEngine(index)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        registry=registry,
        events=events,
        slow_seconds=args.slow_threshold,
    )
    if args.access_log:
        config.access_log = lambda rec: print(
            _json.dumps(rec), file=sys.stderr, flush=True
        )

    # Bind in the (parent) process so the "serving on" line is printed
    # exactly once, before any fork; workers adopt the same socket.
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((args.host, args.port))
    sock.listen(256)
    host, port = sock.getsockname()[:2]
    print(f"serving on {host}:{port}", flush=True)

    if args.workers <= 1:
        asyncio.run(run_server(engine, config, sock=sock))
        return 0

    children = []
    for _ in range(args.workers):
        pid = os.fork()
        if pid == 0:
            try:
                asyncio.run(run_server(engine, config, sock=sock))
            finally:
                os._exit(0)
        children.append(pid)

    def _forward(signum, _frame):
        for child in children:
            try:
                os.kill(child, signum)
            except ProcessLookupError:
                pass

    _signal.signal(_signal.SIGTERM, _forward)
    _signal.signal(_signal.SIGINT, _forward)
    sock.close()
    for child in children:
        os.waitpid(child, 0)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.top import run_top

    host, _, port_str = args.target.rpartition(":")
    if not host or not port_str.isdigit():
        print(f"sief top: target must be HOST:PORT, got {args.target!r}",
              file=sys.stderr)
        return 2
    client = ServeClient(host, int(port_str))
    try:
        return run_top(
            client.metrics_text,
            interval=args.interval,
            count=args.count,
            plain=args.plain,
        )
    finally:
        client.close()


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.graph.io import read_edge_list
    from repro.graph.validation import validate_graph

    graph, _names = read_edge_list(args.graph)
    problems = validate_graph(graph)
    if problems:
        for p in problems:
            print(f"INVALID: {p}")
        return 1
    print(
        f"ok: n={graph.num_vertices}, m={graph.num_edges}, "
        "all structural invariants hold"
    )
    return 0


def _add_build_path_flags(parser: argparse.ArgumentParser) -> None:
    """Construction-path flags shared by ``build`` and ``metrics``."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the build (1 = in-process serial)",
    )
    batched = parser.add_mutually_exclusive_group()
    batched.add_argument(
        "--batched",
        dest="batched",
        action="store_true",
        default=None,
        help="use the bit-parallel batched relabel (overrides --algorithm)",
    )
    batched.add_argument(
        "--no-batched",
        dest="batched",
        action="store_false",
        help="force a scalar relabel even if --algorithm batched was given",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="sief",
        description="SIEF: distance queries on graphs with edge failures",
    )
    parser.add_argument(
        "--kernels",
        choices=["auto", "numpy", "cext"],
        default=None,
        help=(
            "kernel tier for the hot loops (default: $SIEF_KERNELS or "
            "auto); an explicit unavailable tier is an error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a benchmark dataset edge list")
    gen.add_argument("--dataset", default="gnutella")
    gen.add_argument("--output", "-o", default="graph.txt")
    gen.add_argument("--list", action="store_true", help="list dataset names")
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build a SIEF index from an edge list")
    build.add_argument("graph")
    build.add_argument(
        "--output",
        "-o",
        default="index.siefseg",
        help="output segment store directory (.siefseg is appended if "
        "missing)",
    )
    build.add_argument(
        "--algorithm",
        choices=["bfs_aff", "bfs_all", "batched"],
        default="bfs_all",
    )
    build.add_argument("--ordering", default="degree")
    build.add_argument(
        "--progress",
        action="store_true",
        help="live cases/sec + ETA progress line on stderr",
    )
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of build shards; each finished shard is spilled to "
        "the store and dropped, so peak memory is O(shard), not O(E) "
        "(default: ~4096 cases per shard)",
    )
    _add_build_path_flags(build)
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="answer one failure query")
    query.add_argument("index")
    query.add_argument(
        "--fail", nargs=2, type=int, required=True, metavar=("U", "V")
    )
    query.add_argument(
        "--pair", nargs=2, type=int, required=True, metavar=("S", "T")
    )
    query.set_defaults(func=_cmd_query)

    path = sub.add_parser(
        "path", help="print one replacement path avoiding a failed edge"
    )
    path.add_argument("graph")
    path.add_argument("index")
    path.add_argument(
        "--fail", nargs=2, type=int, required=True, metavar=("U", "V")
    )
    path.add_argument(
        "--pair", nargs=2, type=int, required=True, metavar=("S", "T")
    )
    path.set_defaults(func=_cmd_path)

    impact = sub.add_parser(
        "impact", help="rank failures by impact and profile resilience"
    )
    impact.add_argument("index")
    impact.add_argument("--top", type=int, default=10)
    impact.add_argument("--queries", type=int, default=500)
    impact.add_argument("--seed", type=int, default=0)
    impact.set_defaults(func=_cmd_impact)

    stats = sub.add_parser("stats", help="print index statistics")
    stats.add_argument("index")
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="serve distance queries over HTTP (see docs/serving.md)",
    )
    serve.add_argument(
        "index",
        help="a .siefseg segment store (see `sief build`), served "
        "demand-paged",
    )
    serve.add_argument(
        "--cache-cases",
        type=int,
        default=256,
        metavar="N",
        help="LRU capacity (resident failure cases) of the demand-paged "
        "index",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="forked worker processes sharing the socket and one "
        "memory-mapped copy of the segment store",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=512,
        help="flush the micro-batch at this many queued pairs",
    )
    serve.add_argument(
        "--max-delay",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="cap on how long the oldest request waits while arrivals keep "
        "coming; a micro-batch otherwise flushes once the event loop is idle",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8192,
        help="queued pairs before load-shedding with 429",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request deadline; overruns answer 504",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="one JSON line per request on stderr",
    )
    serve.add_argument(
        "--event-log",
        metavar="PATH",
        default=None,
        help="append sampled structured request events as JSON lines "
        "(enables the event ring behind /debug even without a file)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="head-sampling rate in [0,1] for the event log; slow and "
        "error requests are always logged (default 1.0 when --event-log "
        "is set, off otherwise)",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="requests at or above this wall time bypass sampling and "
        "populate /debug/slow",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live ops dashboard polling a server's /metrics",
    )
    top.add_argument(
        "target", metavar="HOST:PORT", help="a running sief serve instance"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="scrape interval",
    )
    top.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until interrupted)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of redrawing (log-file friendly)",
    )
    top.set_defaults(func=_cmd_top)

    validate = sub.add_parser("validate", help="check an edge-list file")
    validate.add_argument("graph")
    validate.set_defaults(func=_cmd_validate)

    kernels_p = sub.add_parser(
        "kernels",
        help="report detected kernel tiers and per-kernel backends",
    )
    kernels_p.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    kernels_p.set_defaults(func=_cmd_kernels)

    verify = sub.add_parser(
        "verify",
        help="run the structural/affected/queries verification levels",
    )
    verify.add_argument("graph")
    verify.add_argument("index")
    verify.add_argument(
        "--level",
        action="append",
        choices=["structural", "affected", "queries"],
        help="run only this level (repeatable; default: all three)",
    )
    verify.add_argument(
        "--sample",
        type=int,
        default=25,
        help="failure cases to sample per level (-1 = all)",
    )
    verify.add_argument("--queries", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing of every query engine",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--budget", default="30s", help="time budget, e.g. 30s or 2m"
    )
    fuzz.add_argument(
        "--adapter",
        action="append",
        help="fuzz only this engine adapter (repeatable; default: all)",
    )
    fuzz.add_argument(
        "--generator",
        action="append",
        help="fuzz only this graph generator (repeatable; default: all)",
    )
    fuzz.add_argument(
        "--corpus",
        default="tests/corpus",
        help="directory for shrunk counterexamples (default: tests/corpus)",
    )
    fuzz.add_argument(
        "--no-corpus",
        action="store_true",
        help="report counterexamples without persisting them",
    )
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.add_argument("--max-counterexamples", type=int, default=10)
    fuzz.add_argument(
        "--metrics-out",
        default=None,
        help="write a JSON-lines metrics sidecar for the whole run",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented workload and dump a metrics snapshot",
    )
    metrics.add_argument(
        "--graph",
        default=None,
        help="edge-list file to load (default: generated BA graph)",
    )
    metrics.add_argument("--vertices", type=int, default=400)
    metrics.add_argument("--attach", type=int, default=3)
    metrics.add_argument(
        "--cases", type=int, default=5, help="failure cases to build"
    )
    metrics.add_argument(
        "--queries", type=int, default=2000, help="total batch queries"
    )
    metrics.add_argument(
        "--scalar-queries",
        type=int,
        default=200,
        help="scalar queries per failure case (cap)",
    )
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--format",
        choices=["jsonl", "prom", "chrome"],
        default="jsonl",
        help=(
            "jsonl sidecar, Prometheus text exposition, or Chrome "
            "trace-event JSON (load in Perfetto / chrome://tracing)"
        ),
    )
    metrics.add_argument(
        "--out", "-o", default="-", help="output path ('-' = stdout)"
    )
    metrics.add_argument("--span-capacity", type=int, default=1024)
    metrics.add_argument(
        "--profile",
        action="store_true",
        help="run the span-attributed sampling profiler; print the rollup",
    )
    metrics.add_argument(
        "--profile-interval",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="profiler sampling period (default 5ms)",
    )
    metrics.add_argument(
        "--folded-out",
        default=None,
        metavar="PATH",
        help="write folded stacks (flamegraph input); implies --profile",
    )
    metrics.add_argument(
        "--algorithm",
        choices=["bfs_aff", "bfs_all", "batched"],
        default="bfs_all",
    )
    _add_build_path_flags(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    bench = sub.add_parser(
        "bench",
        help="record benchmark runs and detect perf regressions",
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    brec = bsub.add_parser(
        "record", help="time the smoke workloads and append to the history"
    )
    brec.add_argument(
        "--history",
        default="bench_history.jsonl",
        help="JSON-lines history file (appended; created if missing)",
    )
    brec.add_argument(
        "--run", default=None, help="run label (default: run-<millis>)"
    )
    brec.add_argument(
        "--id",
        dest="bench_id",
        default=None,
        help="benchmark id for injected --sample values",
    )
    brec.add_argument(
        "--sample",
        action="append",
        type=float,
        default=None,
        metavar="SECONDS",
        help="inject a sample instead of timing (repeatable; needs --id)",
    )
    brec.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every sample (synthetic slowdowns for CI self-tests)",
    )
    brec.add_argument(
        "--workload",
        action="append",
        choices=["build", "query"],
        default=None,
        help="workload(s) to time (repeatable; default: both)",
    )
    brec.add_argument("--vertices", type=int, default=300)
    brec.add_argument("--attach", type=int, default=3)
    brec.add_argument("--cases", type=int, default=5)
    brec.add_argument("--queries", type=int, default=2000)
    brec.add_argument(
        "--repeat", type=int, default=3, help="samples per benchmark"
    )
    brec.add_argument("--seed", type=int, default=0)
    brec.add_argument(
        "--algorithm",
        choices=["bfs_aff", "bfs_all", "batched"],
        default="batched",
    )
    brec.set_defaults(func=_cmd_bench_record)

    bcmp = bsub.add_parser(
        "compare", help="regression verdict between two recorded runs"
    )
    bcmp.add_argument("--history", default="bench_history.jsonl")
    bcmp.add_argument(
        "--baseline", default=None, help="run label (default: second-newest)"
    )
    bcmp.add_argument(
        "--candidate", default=None, help="run label (default: newest)"
    )
    bcmp.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative slowdown tolerated before FAIL (default 0.10)",
    )
    bcmp.add_argument(
        "--statistic",
        choices=["min", "median", "mean"],
        default="min",
        help="per-run representative value (default: min-of-k)",
    )
    bcmp.add_argument(
        "--allow-cross-host",
        action="store_true",
        help="permit comparing runs recorded on different hosts",
    )
    bcmp.add_argument(
        "--allow-cross-tier",
        action="store_true",
        help="permit comparing runs recorded on different kernel tiers",
    )
    bcmp.add_argument(
        "--expect-regression",
        action="store_true",
        help="invert the exit code: succeed only if a regression is found",
    )
    bcmp.set_defaults(func=_cmd_bench_compare)

    bhist = bsub.add_parser("history", help="list recorded runs")
    bhist.add_argument("--history", default="bench_history.jsonl")
    bhist.set_defaults(func=_cmd_bench_history)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "kernels", None):
            from repro import kernels

            kernels.set_tier(args.kernels)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
