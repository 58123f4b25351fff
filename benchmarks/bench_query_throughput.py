"""Query-throughput micro-benchmark: scalar vs batch, list vs flat backend.

Measures queries/sec on a Barabási–Albert graph (default 10k vertices,
the scale-free shape of the paper's datasets) for:

* ``dist_query`` looped one pair at a time — list backend and frozen
  flat backend;
* ``batch_dist_query`` — the vectorized join over the flat arrays, once
  per available kernel tier (pure numpy always; the compiled cext
  hub-join when available — the headline ``label_queries`` /
  ``sief_queries`` entries are the accelerated tier, the numpy-tier
  reference lands under ``*_numpy``);
* ``SIEFQueryEngine.distance`` looped vs ``SIEFQueryEngine.batch_query``
  on sampled failure cases (supplements built for those edges only, so
  the benchmark stays minutes not hours at 10k vertices).

Writes a machine-readable JSON report (default:
``BENCH_query_throughput.json`` at the repo root) so the performance
trajectory is tracked PR over PR.  Run it standalone::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py
    PYTHONPATH=src python benchmarks/bench_query_throughput.py \
        --vertices 2000 --queries 20000 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.labeling.query import batch_dist_query, dist_query
from repro.labeling.stats import labeling_stats
from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_query_throughput.json"

GRAPH_SEED = 7
WORKLOAD_SEED = 42


def _pairs(n: int, count: int, rng: random.Random) -> np.ndarray:
    return np.array(
        [(rng.randrange(n), rng.randrange(n)) for _ in range(count)],
        dtype=np.int64,
    )


def _qps(elapsed: float, count: int) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def bench_label_queries(listed, frozen, pairs: np.ndarray, scalar_count: int):
    """Scalar (both backends) vs batch throughput on Equation 1."""
    scalar_pairs = pairs[:scalar_count]

    # Warm the frozen backend's scalar cache (dense prefix + residual
    # lists, built once per labeling) outside the timed region: the QPS
    # figures are steady-state throughput, not first-query latency.
    dist_query(frozen, int(pairs[0][0]), int(pairs[0][1]))

    t0 = time.perf_counter()
    for s, t in scalar_pairs:
        dist_query(listed, int(s), int(t))
    scalar_list_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for s, t in scalar_pairs:
        dist_query(frozen, int(s), int(t))
    scalar_flat_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch = batch_dist_query(frozen, pairs)
    batch_s = time.perf_counter() - t0

    # Exactness spot-check: batch answers equal the scalar path.
    check = np.array(
        [dist_query(listed, int(s), int(t)) for s, t in pairs[:200]],
        dtype=np.float64,
    )
    assert np.array_equal(batch[:200], check), "batch/scalar mismatch"

    scalar_list_qps = _qps(scalar_list_s, len(scalar_pairs))
    scalar_flat_qps = _qps(scalar_flat_s, len(scalar_pairs))
    batch_qps = _qps(batch_s, len(pairs))
    return {
        "scalar_queries": len(scalar_pairs),
        "batch_queries": len(pairs),
        "scalar_list_qps": scalar_list_qps,
        "scalar_flat_qps": scalar_flat_qps,
        "batch_qps": batch_qps,
        "batch_over_scalar_list": batch_qps / scalar_list_qps,
        "batch_over_scalar_flat": batch_qps / scalar_flat_qps,
    }


def bench_sief_queries(graph, listed, frozen, num_edges: int, count: int):
    """Engine scalar loop vs engine batch on sampled failure cases."""
    rng = random.Random(WORKLOAD_SEED + 1)
    edges = sorted(graph.edges())
    sample = rng.sample(edges, min(num_edges, len(edges)))
    index, _ = SIEFBuilder(graph, listed).build(edges=sample)
    index.labeling = frozen
    index.freeze()
    engine = SIEFQueryEngine(index)

    n = graph.num_vertices
    per_edge = max(1, count // len(sample))
    scalar_per_edge = min(per_edge, 4000)

    scalar_s = 0.0
    batch_s = 0.0
    scalar_n = 0
    batch_n = 0
    for edge in sample:
        pairs = _pairs(n, per_edge, rng)
        t0 = time.perf_counter()
        got = engine.batch_query(edge, pairs)
        batch_s += time.perf_counter() - t0
        batch_n += len(pairs)

        scalar_pairs = pairs[:scalar_per_edge]
        t0 = time.perf_counter()
        ref = [
            engine.distance(int(s), int(t), edge) for s, t in scalar_pairs
        ]
        scalar_s += time.perf_counter() - t0
        scalar_n += len(scalar_pairs)
        assert np.array_equal(
            got[: len(ref)], np.asarray(ref, dtype=np.float64)
        ), f"engine batch/scalar mismatch on {edge}"

    scalar_qps = _qps(scalar_s, scalar_n)
    batch_qps = _qps(batch_s, batch_n)
    return {
        "edges_sampled": len(sample),
        "scalar_queries": scalar_n,
        "batch_queries": batch_n,
        "engine_scalar_qps": scalar_qps,
        "engine_batch_qps": batch_qps,
        "batch_over_scalar": batch_qps / scalar_qps,
    }


def run(
    vertices: int,
    attach: int,
    queries: int,
    sief_edges: int,
    out: Path,
    metrics_out: Path = None,
):
    """Run the benchmark; optionally emit a metrics sidecar.

    A registry is installed only when ``metrics_out`` is given — the
    measured throughput numbers stay instrumentation-free by default, so
    comparing a run with and without the flag doubles as an overhead
    measurement.
    """
    from repro.obs import MetricsRegistry, TraceRecorder, hooks, write_json_lines

    registry = recorder = None
    if metrics_out is not None:
        registry = MetricsRegistry()
        recorder = TraceRecorder(capacity=4096)
        hooks.install(registry, recorder)
    try:
        report = _run_impl(vertices, attach, queries, sief_edges, out)
    finally:
        if registry is not None:
            hooks.uninstall()
    if registry is not None:
        write_json_lines(registry, metrics_out, recorder)
        print(f"metrics sidecar written to {metrics_out}", flush=True)
    return report


def _run_impl(vertices: int, attach: int, queries: int, sief_edges: int, out: Path):
    print(f"generating BA graph: n={vertices}, attach={attach}", flush=True)
    graph = generators.barabasi_albert(vertices, attach, seed=GRAPH_SEED)

    t0 = time.perf_counter()
    listed = build_pll(graph)
    pll_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    frozen = listed.copy().freeze()
    freeze_seconds = time.perf_counter() - t0
    stats = labeling_stats(listed)
    print(
        f"PLL built in {pll_seconds:.1f}s "
        f"({stats.total_entries} entries, avg {stats.avg_entries:.1f}); "
        f"freeze {freeze_seconds * 1e3:.0f}ms",
        flush=True,
    )

    rng = random.Random(WORKLOAD_SEED)
    pairs = _pairs(vertices, queries, rng)
    scalar_count = min(queries, 20000)

    # One pass per kernel tier: numpy always (the bit-identical
    # reference), plus the accelerated tier the ambient selection
    # resolves to.  Headline numbers come from the accelerated pass.
    accel_tier = kernels.effective_tier()
    tiers = ["numpy"] + ([accel_tier] if accel_tier != "numpy" else [])
    label_by_tier = {}
    sief_by_tier = {}
    for tier in tiers:
        with kernels.use_tier(tier):
            label = bench_label_queries(listed, frozen, pairs, scalar_count)
            sief = bench_sief_queries(
                graph, listed, frozen, sief_edges, queries
            )
        label_by_tier[tier] = label
        sief_by_tier[tier] = sief
        print(
            f"label queries [{tier}]: "
            f"scalar(list) {label['scalar_list_qps']:.0f} q/s, "
            f"scalar(flat) {label['scalar_flat_qps']:.0f} q/s, "
            f"batch {label['batch_qps']:.0f} q/s "
            f"({label['batch_over_scalar_list']:.1f}x over scalar list "
            "loop)",
            flush=True,
        )
        print(
            f"SIEF queries  [{tier}]: "
            f"scalar {sief['engine_scalar_qps']:.0f} q/s, "
            f"batch {sief['engine_batch_qps']:.0f} q/s "
            f"({sief['batch_over_scalar']:.1f}x)",
            flush=True,
        )
    label = label_by_tier[accel_tier]
    sief = sief_by_tier[accel_tier]
    if accel_tier != "numpy":
        print(
            f"kernel tier {accel_tier}: batch label join "
            f"{label['batch_qps'] / label_by_tier['numpy']['batch_qps']:.1f}x"
            " over the numpy tier",
            flush=True,
        )

    from repro.bench.history import env_metadata

    report = {
        "benchmark": "query_throughput",
        "created_unix": int(time.time()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "env": env_metadata(),
        "graph": {
            "generator": "barabasi_albert",
            "vertices": vertices,
            "edges": graph.num_edges,
            "attach": attach,
            "seed": GRAPH_SEED,
        },
        "labeling": {
            "total_entries": stats.total_entries,
            "avg_entries": stats.avg_entries,
            "pll_build_seconds": pll_seconds,
            "freeze_seconds": freeze_seconds,
        },
        "kernel_tier": accel_tier,
        "label_queries": label,
        "sief_queries": sief,
    }
    if accel_tier != "numpy":
        report["label_queries_numpy"] = label_by_tier["numpy"]
        report["sief_queries_numpy"] = sief_by_tier["numpy"]
        report["kernel_speedup_batch"] = (
            label["batch_qps"] / label_by_tier["numpy"]["batch_qps"]
        )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=10_000)
    parser.add_argument("--attach", type=int, default=3)
    parser.add_argument(
        "--queries", type=int, default=200_000, help="batch workload size"
    )
    parser.add_argument(
        "--sief-edges", type=int, default=5, help="failure cases to index"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="emit a JSON-lines metrics sidecar (installs a registry; "
        "off by default so throughput numbers stay uninstrumented)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless batch beats the scalar loop by this factor",
    )
    parser.add_argument(
        "--kernels",
        choices=list(kernels.CHOICES),
        default=None,
        help="pin the kernel tier (default: auto — fastest available)",
    )
    args = parser.parse_args(argv)
    if args.kernels:
        kernels.set_tier(args.kernels)
    report = run(
        args.vertices,
        args.attach,
        args.queries,
        args.sief_edges,
        args.out,
        metrics_out=args.metrics_out,
    )
    if args.assert_speedup is not None:
        speedup = report["label_queries"]["batch_over_scalar_list"]
        if speedup < args.assert_speedup:
            print(
                f"FAIL: batch speedup {speedup:.1f}x "
                f"< required {args.assert_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
