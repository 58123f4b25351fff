"""SIEF serving benchmark: build, serve and load one workload end to end.

Builds the workload's index through the library (``build_pll`` then
``build_sief_sharded`` into a ``.siefseg`` store), starts the real
daemon (``python -m repro.cli serve STORE``, default knobs) as a child
process, drives it from this single asyncio process over at most two
connections, checks every answer and prints every metric by name and
unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
traced run that reports the per-layer metrics instead.  Run from the
repository root::

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload bulk --toy   # seconds-long smoke

Exit status: 0 when every answer was right and the run is valid, 1 when
it was not (the JSON line is still printed), 2 when the program under
test is missing.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

CONNECTIONS = 2
"""Load connections (at most ``nproc`` on the 2-core reference box)."""
SETUP_REPS = 3
"""Set-ups per plain run; ``setup_s`` is their median."""
WARMUP_S = 1.0
ORACLE_SAMPLES = 24
LATE_P50_LIMIT_MS = 3.0
"""A run whose generator's median lateness exceeds this is invalid: it
would be measuring the load generator, not the daemon.  The open loop's
median is ~0.8 ms (the event loop's timer granularity); a generator
that falls behind its schedule drifts far past the limit.  The p99 is
reported but not gated: host stalls alone move it between 2 and 15 ms
on the reference box."""
MIN_P99_SAMPLES = 1000
"""p99 needs at least ten samples beyond it."""
PROBE_PAIRS = 64
WINDOW_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "p50_ms": "ms",
    "server_rss_mb": "MiB",
    "store_mb": "MiB",
}

LAYER_UNITS = {
    "labeling.pll.build_s": "s",
    "labeling.entries_per_vertex": "count",
    "labeling.query.us_per_pair": "us",
    "core.builder.ms_per_case": "ms",
    "core.builder.affected_per_case": "count",
    "core.segstore.bytes_per_case": "B",
    "core.segstore.write_s": "s",
    "core.segstore.load_case_us": "us",
    "core.query.us_per_request": "us",
    "core.query.cross_share": "ratio",
    "core.lazy.hit_ratio": "ratio",
    "core.lazy.served_hit_ratio": "ratio",
    "serve.batcher.us_per_request": "us",
    "serve.batcher.items_per_flush": "count",
    "serve.batcher.pairs_per_flush": "count",
    "serve.batcher.deadline_share": "ratio",
    "serve.stage.parse_us": "us",
    "serve.stage.queue_us": "us",
    "serve.stage.batch_us": "us",
    "serve.stage.compute_us": "us",
    "serve.stage.serialize_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.protocol.decode_us": "us",
    "serve.http.p50_ms": "ms",
    "serve.http.p99_ms": "ms",
    "serve.overhead_us": "us",
    "serve.pages_faulted_per_request": "count",
    "serve.server.start_s": "s",
    "obs.trace_overhead": "ratio",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
}

_clock = time.perf_counter


def git_sha(root: Path):
    """HEAD of the checkout read from ``.git`` (``None`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def dir_mib(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values) * 1e3, q))


class Run:
    """One invocation: inputs, set-up, served phases, checks, metrics."""

    def __init__(self, args) -> None:
        import numpy as np

        from workloads import WORKLOADS, make_inputs, toy

        self.args = args
        w = WORKLOADS[args.workload]
        self.w = toy(w) if args.toy else w
        self.seconds = float(args.seconds)
        self.inputs = make_inputs(self.w, args.seed, self.seconds)
        self.rng = np.random.default_rng(args.seed + 1)
        self.dir = WORK / f"{self.w.name}-{args.seed}-{os.getpid()}"
        self.flags = []
        if self.w.cache_cases is not None:
            self.flags = ["--cache-cases", str(self.w.cache_cases)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.spans = None
        self.daemon = None

    # -- set-up --------------------------------------------------------------

    def set_up(self, store: Path) -> dict:
        """Build the index, start the daemon, wait for its first answer.

        Returns the seconds each part took; graph generation is input
        synthesis and is not part of it.
        """
        from daemon import Daemon
        from loadgen import Connection
        from repro.core.segstore import build_sief_sharded
        from repro.labeling import build_pll

        g = self.inputs.graph
        t0 = _clock()
        self.labeling = build_pll(g, freeze=True)
        t1 = _clock()
        _, self.report = build_sief_sharded(
            g, store, labeling=self.labeling, edges=self.inputs.cases
        )
        t2 = _clock()
        self.daemon = Daemon(store, self.flags, self.env, self.dir / "daemon.log")
        self.daemon.wait_listening()

        async def first_answer():
            conn = Connection(self.daemon.host, self.daemon.port)
            try:
                return await conn.roundtrip(self.first)
            finally:
                await conn.close()

        status, self.first_body = asyncio.run(first_answer())
        t3 = _clock()
        if status != 200:
            raise RuntimeError(f"first query answered {status}")
        return {"pll": t1 - t0, "sief": t2 - t1, "start": t3 - t2, "total": t3 - t0}

    # -- served phases -------------------------------------------------------

    async def serve(self, phases):
        """Probe, warm up, then run each ``(name, requests, due)`` phase
        between two ``/metrics`` scrapes.  Returns ``{name: (phase, delta)}``."""
        from daemon import delta, parse_metrics
        from loadgen import Connection, closed_loop, encode_request, open_loop

        conns = [Connection(self.daemon.host, self.daemon.port) for _ in range(CONNECTIONS)]
        out = {}
        try:
            for c in conns:
                await c.open()

            async def scrape():
                status, body = await conns[0].get("/metrics")
                if status != 200:
                    raise RuntimeError(f"/metrics answered {status}")
                return parse_metrics(body.decode())

            probe = self.rng.integers(0, self.w.vertices, size=(PROBE_PAIRS, 2))
            status, _ = await conns[0].roundtrip(
                encode_request("/batch.bin", self.inputs.cases[0], probe, "bench")
            )
            if status != 200:
                raise RuntimeError(f"kernel-tier probe answered {status}")
            tiers = [k[len("kernels_hub_join_"):] for k, v in (await scrape()).items()
                     if k.startswith("kernels_hub_join_") and v > 0]
            self.daemon_tier = tiers[0] if len(tiers) == 1 else ("numpy" if not tiers else "mixed")

            warm_n = len(self.plain) if self.w.loop == "closed" else min(len(self.plain), 256)
            warm = await closed_loop(conns, self.plain[:warm_n], WARMUP_S)
            self.tally(warm, self.expected[:warm_n])

            for name, requests, due in phases:
                gc.collect()
                gc.disable()
                try:
                    before = await scrape()
                    if due is None:
                        phase = await closed_loop(conns, requests, self.phase_seconds)
                    else:
                        phase = await open_loop(conns, requests, due)
                    after = await scrape()
                finally:
                    gc.enable()
                d = delta(before, after)
                sent = len(phase.index)
                if d.get("serve_requests") != sent + 1:
                    self.problems.append(
                        f"{name}: /metrics counted {d.get('serve_requests')} "
                        f"requests, the generator sent {sent} (+1 scrape)"
                    )
                out[name] = (phase, d)
        finally:
            for c in conns:
                await c.close()
        return out

    def tally(self, phase, expected, route=None) -> None:
        from check import served_failures

        self.attempted += len(phase.index)
        self.failed += served_failures(route or self.w.route, phase, expected)

    def check_first(self) -> None:
        """The set-up's first answer, against the engine."""
        from loadgen import Phase

        first = Phase()
        first.record(0, 200, self.first_body, 0.0)
        self.tally(first, [self.expected[0][:1]], "/dist")

    def latency_summary(self, phase) -> dict:
        """Throughput and latency over the faster half of the phase's
        one-second windows.

        The reference host alternates between two speeds about 1.5x
        apart, for seconds at a time.  Ranking the windows by their
        median latency and keeping the faster half makes a run that
        straddles both speeds comparable with one that does not.  The
        open loop's throughput is set by its schedule, so it is taken
        over the whole phase.
        """
        import numpy as np

        lat = np.asarray(phase.latency)
        done = np.asarray(phase.done)
        ok = np.asarray(phase.status) == 200
        slot = (done // WINDOW_S).astype(int)
        full = int(phase.elapsed // WINDOW_S)  # the last, partial window is dropped
        windows = [w for w in range(full) if (slot == w).any()]
        p50s = [np.median(lat[slot == w]) for w in windows]
        keep = [w for _, w in sorted(zip(p50s, windows))[: max(1, -(-len(windows) // 2))]]
        mask = np.isin(slot, keep) if keep else np.ones(len(lat), dtype=bool)
        pooled = lat[mask]
        p99 = percentile_ms(pooled, 99)
        per = self.w.pairs_per_request
        if self.w.loop == "open" or not keep:
            pairs_per_s = int(ok.sum()) * per / phase.elapsed
        else:
            pairs_per_s = int((ok & mask).sum()) * per / (len(keep) * WINDOW_S)
        return {
            "p50_ms": percentile_ms(pooled, 50),
            "p99_ms": p99,
            "pairs_per_s": pairs_per_s,
            "windows": len(windows),
            "windows_kept": len(keep),
            "samples": int(len(pooled)),
            "beyond_p99": int((pooled * 1e3 > p99).sum()),
            "late_p50_ms": percentile_ms(phase.late, 50) if phase.late else 0.0,
            "late_p99_ms": percentile_ms(phase.late, 99) if phase.late else 0.0,
        }

    def check_lateness(self, name: str, summary: dict) -> None:
        if summary["late_p50_ms"] > LATE_P50_LIMIT_MS:
            self.problems.append(
                f"{name}: generator median lateness {summary['late_p50_ms']:.2f} ms "
                f"exceeds {LATE_P50_LIMIT_MS} ms (run invalid)"
            )

    # -- the two kinds of run -----------------------------------------------

    def encode(self, trace: bool):
        from loadgen import encode_request

        out = []
        for i, (edge, pairs) in enumerate(zip(self.inputs.edges, self.inputs.pairs)):
            tid = f"{self.args.seed:08x}{i:024x}" if trace else None
            out.append(encode_request(self.w.route, edge, pairs, "bench", tid))
        return out

    def split_due(self):
        """Open loop: the schedule's first and second halves, each
        restarting at zero."""
        import numpy as np

        due = self.inputs.due
        cut = int(np.searchsorted(due, self.seconds / 2))
        return (0, cut, due[:cut]), (cut, len(due), due[cut:] - self.seconds / 2)

    def plain_run(self) -> dict:
        from check import engine_answers
        from repro.core.segstore import SegmentStore

        setups = []
        for rep in range(SETUP_REPS):
            if self.daemon is not None:
                self.stop_daemon()
                shutil.rmtree(self.store, ignore_errors=True)
            self.store = self.dir / f"index-{rep}.siefseg"
            setups.append(self.set_up(self.store)["total"])
        store = SegmentStore(self.store)
        self.expected = engine_answers(store, self.inputs.edges, self.inputs.pairs)
        self.check_first()
        self.phase_seconds = self.seconds
        served = asyncio.run(self.serve([("measured", self.plain, self.inputs.due)]))
        phase, _ = served["measured"]
        rss = self.daemon.peak_rss_mib()
        self.tally(phase, self.expected)
        summary = self.latency_summary(phase)
        self.check_lateness("measured", summary)
        if not self.args.toy and summary["samples"] < MIN_P99_SAMPLES:
            self.problems.append(
                f"only {summary['samples']} latency samples: p99 needs "
                f">= {MIN_P99_SAMPLES}"
            )
        self.oracle()
        self.extra = summary
        metrics = {
            "setup_s": statistics.median(setups),
            "pairs_per_s": summary["pairs_per_s"],
            "p50_ms": summary["p50_ms"],
            "server_rss_mb": rss,
            "store_mb": dir_mib(self.store),
        }
        store.close()
        return metrics

    def traced_run(self) -> dict:
        import layers
        from check import engine_answers
        from repro.core.segstore import SegmentStore

        spans = self.spans = layers.Spans()
        self.store = self.dir / "index.siefseg"
        with spans.span("setup"):
            setup = self.set_up(self.store)
        store = SegmentStore(self.store)
        w, inp = self.w, self.inputs
        capacity = w.cache_cases or 256
        n_cases = len(inp.cases)
        m = {
            "labeling.pll.build_s": setup["pll"],
            "labeling.entries_per_vertex": len(self.labeling.hubs_flat) / w.vertices,
            "core.builder.affected_per_case": layers.affected_per_case(store),
            "core.segstore.bytes_per_case": self.report.spilled_bytes / n_cases,
            "serve.server.start_s": setup["start"],
        }
        write_s = layers.respill(store, self.labeling, self.dir / "respill.siefseg", spans)
        m["core.segstore.write_s"] = write_s
        m["core.builder.ms_per_case"] = max(setup["sief"] - write_s, 0.0) / n_cases * 1e3
        m["labeling.query.us_per_pair"] = layers.labeling_query(self.labeling, inp.pairs, spans)
        m.update(layers.engine_query(store, capacity, inp.edges, inp.pairs, spans))
        m.update(layers.lazy_replay(store, capacity, inp.edges, spans))
        m["serve.batcher.us_per_request"] = layers.batcher(
            store, capacity, inp.edges, inp.pairs, spans
        )
        m.update(layers.protocol(tuple(inp.edges[0]), inp.pairs[0], spans))

        self.expected = engine_answers(store, inp.edges, inp.pairs)
        self.check_first()
        self.phase_seconds = self.seconds / 2
        traced = self.encode(trace=True)
        if w.loop == "closed":
            phases = [("plain", self.plain, None), ("traced", traced, None)]
            offsets = (0, 0)
        else:
            (a0, a1, due_a), (b0, b1, due_b) = self.split_due()
            phases = [("plain", self.plain[a0:a1], due_a), ("traced", traced[b0:b1], due_b)]
            offsets = (a0, b0)
        with spans.span("serve.phases"):
            served = asyncio.run(self.serve(phases))
        summaries = {}
        for (name, _, _), off in zip(phases, offsets):
            phase, d = served[name]
            phase.index = [i + off for i in phase.index]
            self.tally(phase, self.expected)
            summaries[name] = s = self.latency_summary(phase)
            self.check_lateness(name, s)
            if name == "plain":
                m.update(layers.served(d, len(phase.index)))
            else:
                for i, lat, done in zip(phase.index, phase.latency, phase.done):
                    spans.add("serve.request", done - lat, done, f"{self.args.seed:08x}{i:024x}")
        self.oracle()
        plain = summaries["plain"]
        m["serve.http.p50_ms"] = plain["p50_ms"]
        m["serve.http.p99_ms"] = plain["p99_ms"]
        m["serve.overhead_us"] = plain["p50_ms"] * 1e3 - m["core.query.us_per_request"]
        m["obs.trace_overhead"] = summaries["traced"]["p50_ms"] / plain["p50_ms"]
        m["loadgen.late_p50_ms"] = plain["late_p50_ms"]
        m["loadgen.late_p99_ms"] = plain["late_p99_ms"]
        self.extra = {"plain": plain, "traced": summaries["traced"]}
        store.close()
        return m

    def oracle(self) -> None:
        """A seeded sample of the engine's answers (which every served
        answer was compared with) against BFS on ``G - e``."""
        from check import oracle_mismatches

        samples = min(ORACLE_SAMPLES, len(self.inputs.edges))
        wrong = oracle_mismatches(
            self.inputs.graph, self.inputs.edges, self.inputs.pairs,
            self.expected, self.rng, samples,
        )
        self.attempted += samples
        self.failed += wrong
        if wrong:
            self.problems.append(f"{wrong} of {samples} sampled answers differ from BFS on G-e")

    # -- one invocation -------------------------------------------------------

    def environment(self) -> dict:
        import numpy as np

        from repro import kernels
        from repro.cli import build_parser

        knobs = build_parser().parse_args(["serve", "STORE", *self.flags])
        return {
            "git_sha": git_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "kernel_tier_generator": kernels.effective_tier(),
            "daemon_argv": ["python", "-m", "repro.cli", "serve", "STORE", *self.flags],
            "daemon_knobs": {
                k: getattr(knobs, k)
                for k in ("workers", "max_batch", "max_delay", "queue_limit",
                          "request_timeout", "cache_cases")
            },
            "connections": CONNECTIONS,
            "workload": {k: v for k, v in vars(self.w).items() if k != "why"},
        }

    def stop_daemon(self) -> None:
        code = self.daemon.stop()
        if code != 0:
            self.problems.append(f"daemon exited {code} after SIGTERM")

    def run(self) -> dict:
        from loadgen import encode_request

        self.dir.mkdir(parents=True, exist_ok=True)
        env = self.environment()  # also compiles the kernel tier, untimed
        self.plain = self.encode(trace=False)
        # The first query is always one /dist pair, so every daemon pays
        # the scalar path's one-time set-up before the measured phase.
        self.first = encode_request(
            "/dist", self.inputs.edges[0], self.inputs.pairs[0][:1], "bench"
        )
        try:
            metrics = self.traced_run() if self.args.trace else self.plain_run()
        finally:
            if self.daemon is not None:
                self.stop_daemon()
        env["kernel_tier_daemon"] = self.daemon_tier
        if env["kernel_tier_daemon"] != env["kernel_tier_generator"]:
            self.problems.append(
                f"daemon ran kernel tier {self.daemon_tier}, the generator "
                f"{env['kernel_tier_generator']}: refusing to compare"
            )
        return env, metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny graph and a short phase: a smoke test in seconds")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # Compiled kernels cache inside the checkout, not under $HOME.
    os.environ["SIEF_KERNELS_CACHE"] = str(ROOT / ".bench_build" / "sief-kernels")
    sys.path.insert(0, str(SRC))
    if args.toy:
        args.seconds = min(args.seconds, 2.0)

    run = Run(args)
    try:
        env, metrics = run.run()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if run.spans is not None:
        WORK.mkdir(parents=True, exist_ok=True)
        run.spans.write(WORK / f"spans-{args.workload}-{args.seed}.json")

    units = LAYER_UNITS if args.trace else E2E_UNITS
    print("env " + json.dumps(env, default=str))
    print("phase " + json.dumps(run.extra))
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    print(f"attempted {run.attempted} failed {run.failed}")
    for p in run.problems:
        print(f"PROBLEM: {p}")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
