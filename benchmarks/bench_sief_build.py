"""SIEF construction benchmark: seed serial path vs the batched fast path.

Builds supplemental indexes for a sample of failure cases on a
Barabási–Albert graph (default 10k vertices — the scale-free shape of
the paper's datasets) three ways:

* ``bfs_all`` serial — the seed construction path (scalar IDENTIFY, one
  interpreted BFS per affected hub);
* ``batched`` serial — vectorized frontier IDENTIFY + bit-parallel
  RELABEL, once per available kernel tier (pure numpy always; the
  compiled cext tier when it is available — the headline
  ``serial_batched`` entry is the fastest tier, and the per-tier split
  lives under ``serial_batched_by_tier``);
* ``batched`` via the shared-memory parallel driver — recorded to track
  the shm transport's end-to-end cost (on a single-core host this is
  process overhead, not speedup; the JSON records ``logical_cpus`` next
  to ``workers`` and flags oversubscription honestly).

The three indexes are asserted bit-identical before any number is
reported — a fast wrong answer is not a speedup.  Writes a
machine-readable JSON report (default: ``BENCH_sief_build.json`` at the
repo root) so the construction-time trajectory is tracked PR over PR::

    PYTHONPATH=src python benchmarks/bench_sief_build.py
    PYTHONPATH=src python benchmarks/bench_sief_build.py \
        --vertices 2000 --cases 6 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

from repro import kernels
from repro.core.builder import SIEFBuilder
from repro.core.parallel import build_sief_parallel
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.labeling.stats import labeling_stats

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_sief_build.json"

GRAPH_SEED = 7
WORKLOAD_SEED = 42


def _assert_identical(reference, other, label: str) -> None:
    assert set(reference.supplements) == set(other.supplements), label
    for edge, si in reference.supplements.items():
        got = other.supplements[edge]
        assert si == got, f"{label}: supplement for {edge} differs"
        for t, sl in si.labels.items():
            assert sl.ranks == got.labels[t].ranks, (label, edge, t)
            assert sl.dists == got.labels[t].dists, (label, edge, t)


def _report_entry(report):
    return {
        "cases": report.num_cases,
        "identify_seconds": report.identify_seconds,
        "relabel_seconds": report.relabel_seconds,
        "supplemental_entries": report.total_supplemental_entries,
        "avg_affected": report.avg_affected,
    }


def run(
    vertices: int,
    attach: int,
    cases: int,
    out: Path,
    metrics_out: Path = None,
    skip_parallel: bool = False,
):
    """Run the benchmark; optionally emit a metrics sidecar."""
    from repro.obs import MetricsRegistry, TraceRecorder, hooks, write_json_lines

    registry = recorder = None
    if metrics_out is not None:
        registry = MetricsRegistry()
        recorder = TraceRecorder(capacity=4096)
        hooks.install(registry, recorder)
    try:
        report = _run_impl(vertices, attach, cases, out, skip_parallel)
    finally:
        if registry is not None:
            hooks.uninstall()
    if registry is not None:
        write_json_lines(registry, metrics_out, recorder)
        print(f"metrics sidecar written to {metrics_out}", flush=True)
    return report


def _run_impl(
    vertices: int, attach: int, cases: int, out: Path, skip_parallel: bool
):
    print(f"generating BA graph: n={vertices}, attach={attach}", flush=True)
    graph = generators.barabasi_albert(vertices, attach, seed=GRAPH_SEED)

    t0 = time.perf_counter()
    labeling = build_pll(graph)
    pll_seconds = time.perf_counter() - t0
    stats = labeling_stats(labeling)
    print(
        f"PLL built in {pll_seconds:.1f}s "
        f"({stats.total_entries} entries, avg {stats.avg_entries:.1f})",
        flush=True,
    )

    rng = random.Random(WORKLOAD_SEED)
    edges = sorted(rng.sample(sorted(graph.edges()), cases))
    print(f"building {len(edges)} failure cases per variant", flush=True)

    t0 = time.perf_counter()
    idx_scalar, rep_scalar = SIEFBuilder(graph, labeling, "bfs_all").build(
        edges=edges
    )
    scalar_seconds = time.perf_counter() - t0
    print(f"serial bfs_all (seed path): {scalar_seconds:.2f}s", flush=True)

    # Batched serial, once per kernel tier.  numpy always runs (it is
    # the reference the compiled tiers must match bit-for-bit); the
    # tier the ambient selection resolves to (auto unless --kernels /
    # SIEF_KERNELS pinned one) runs when it is accelerated.  The
    # headline `serial_batched` number is the fastest tier — what
    # `sief build` does by default under `auto`.
    accel_tier = kernels.effective_tier()
    tiers = ["numpy"] + ([accel_tier] if accel_tier != "numpy" else [])
    by_tier = {}
    for tier in tiers:
        with kernels.use_tier(tier):
            t0 = time.perf_counter()
            idx_tier, rep_tier = SIEFBuilder(
                graph, labeling, "batched"
            ).build(edges=edges)
            tier_seconds = time.perf_counter() - t0
        _assert_identical(idx_scalar, idx_tier, f"batched[{tier}] vs scalar")
        by_tier[tier] = {
            "seconds": tier_seconds,
            **_report_entry(rep_tier),
        }
        print(
            f"serial batched [{tier}]:    {tier_seconds:.2f}s "
            f"({scalar_seconds / tier_seconds:.1f}x over seed path, "
            "bit-identical)",
            flush=True,
        )
    best_tier = min(by_tier, key=lambda t: by_tier[t]["seconds"])
    batched_seconds = by_tier[best_tier]["seconds"]
    speedup = scalar_seconds / batched_seconds
    if accel_tier != "numpy":
        print(
            f"kernel tier {accel_tier}: "
            f"{by_tier['numpy']['seconds'] / by_tier[accel_tier]['seconds']:.1f}x "
            "over the numpy tier",
            flush=True,
        )

    parallel_entry = None
    if not skip_parallel:
        # Always 2 workers: with fewer the driver falls back to serial and
        # the shm transport we are here to measure never runs.
        workers = 2
        logical_cpus = os.cpu_count() or 1
        oversubscribed = workers > logical_cpus
        if oversubscribed:
            print(
                f"warning: {workers} workers on {logical_cpus} logical "
                "CPU(s) — the parallel timing below measures transport "
                "overhead under oversubscription, not parallel speedup",
                flush=True,
            )
        t0 = time.perf_counter()
        idx_par, _rep_par = build_sief_parallel(
            graph,
            labeling,
            algorithm="batched",
            workers=workers,
            edges=edges,
        )
        parallel_seconds = time.perf_counter() - t0
        _assert_identical(idx_scalar, idx_par, "shm parallel vs scalar")
        print(
            f"shm parallel batched (w={workers}): {parallel_seconds:.2f}s "
            f"(bit-identical; speedup only expected on multi-core hosts)",
            flush=True,
        )
        parallel_entry = {
            "workers": workers,
            "logical_cpus": logical_cpus,
            "oversubscribed": oversubscribed,
            "kernel_tier": accel_tier,
            "transport": "shared_memory",
            "seconds": parallel_seconds,
            "speedup_vs_seed": scalar_seconds / parallel_seconds,
        }

    from repro.bench.history import env_metadata

    report = {
        "benchmark": "sief_build",
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
        },
        "workload": {
            "cases": len(edges),
            "edges": [list(e) for e in edges],
            "seed": WORKLOAD_SEED,
        },
        "serial_bfs_all": {
            "seconds": scalar_seconds,
            **_report_entry(rep_scalar),
        },
        "serial_batched": {
            "kernel_tier": best_tier,
            **by_tier[best_tier],
        },
        "serial_batched_by_tier": by_tier,
        "batched_speedup_vs_seed": speedup,
        "kernel_tier": accel_tier,
        "kernel_speedup": (
            by_tier["numpy"]["seconds"] / by_tier[accel_tier]["seconds"]
            if accel_tier != "numpy"
            else 1.0
        ),
        "bit_identical": True,
    }
    if parallel_entry is not None:
        report["parallel_batched"] = parallel_entry
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=10_000)
    parser.add_argument("--attach", type=int, default=3)
    parser.add_argument(
        "--cases", type=int, default=8, help="failure cases to build"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="emit a JSON-lines metrics sidecar (installs a registry; "
        "off by default so build timings stay uninstrumented)",
    )
    parser.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the shm parallel variant (serial comparison only)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit nonzero unless batched beats the seed serial build "
        "by this factor",
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
        args.cases,
        args.out,
        metrics_out=args.metrics_out,
        skip_parallel=args.skip_parallel,
    )
    if args.assert_speedup is not None:
        speedup = report["batched_speedup_vs_seed"]
        if speedup < args.assert_speedup:
            print(
                f"FAIL: batched build speedup {speedup:.1f}x "
                f"< required {args.assert_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
