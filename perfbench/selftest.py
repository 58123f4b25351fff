"""Self-test of the benchmark itself; takes about a minute.

    python3 perfbench/selftest.py

1. Every workload (gated or not), plain and traced, in ``--toy`` mode:
   the run exits 0 and its last line names exactly the metrics
   ``BENCHMARK.json`` declares for that mode, each with its unit and a
   finite value.
2. The answer check fails on a perturbed expected answer, on a refused
   request, and the BFS oracle flags a wrong engine answer.
3. Without the program (only ``BENCHMARK.json`` and ``perfbench/``) the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from check import oracle_mismatches, served_failures  # noqa: E402
from loadgen import Phase  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_toy_runs_print_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            p = run_bench(ROOT, "--workload", workload, "--seed", "5",
                          "--toy", "--trace", trace)
            assert p.returncode == 0, (workload, trace, p.stdout[-3000:], p.stderr[-3000:])
            lines = p.stdout.strip().splitlines()
            doc = json.loads(lines[-1])
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if ln.strip()}
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] is True and doc["failed"] == 0
            assert doc["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in doc["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
                assert printed.get(name) == m["unit"], name  # a text line too
            print(f"ok  toy {workload} trace={trace}: {len(want)} metrics")


def test_check_catches_wrong_answers() -> None:
    truth = [np.array([0.0, 3.0, np.inf]), np.array([2.0, 1.0, 4.0])]
    bodies = [
        json.dumps({"edge": [0, 1], "distances": [0, 3, None]}).encode(),
        json.dumps({"edge": [0, 1], "distances": [2, 1, 4]}).encode(),
    ]
    phase = Phase()
    for i, body in enumerate(bodies * 2):  # a closed loop cycles its pool
        phase.record(i, 200, body, 0.001)
    assert served_failures("/batch", phase, truth) == 0

    perturbed = [truth[0].copy(), truth[1]]
    perturbed[0][1] += 1
    assert served_failures("/batch", phase, perturbed) == 2

    phase.record(4, 429, b'{"error": "queue full"}', 0.001)
    assert served_failures("/batch", phase, truth) == 1
    print("ok  a perturbed expected answer and a refused request count as failed")


def test_oracle_catches_wrong_engine_answer() -> None:
    from repro.baselines.bfs_query import BFSQueryBaseline
    from repro.graph import generators

    g = generators.barabasi_albert(60, 2, seed=3)
    edge = sorted(g.edges())[0]
    pairs = np.array([[s, t] for s in range(0, 60, 7) for t in range(3, 60, 11)])
    oracle = BFSQueryBaseline(g)
    answers = np.array([float(oracle.distance(int(s), int(t), edge)) for s, t in pairs])
    edges = np.array([edge])
    samples = 4 * len(pairs)
    rng = np.random.default_rng
    assert oracle_mismatches(g, edges, [pairs], [answers], rng(0), samples) == 0
    answers[:] += 1
    assert oracle_mismatches(g, edges, [pairs], [answers], rng(0), samples) == samples
    print("ok  the BFS oracle flags wrong engine answers")


def test_refuses_without_program() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench(bare, "--workload", "point", "--seed", "1",
                      "--seconds", "10", "--trace", "0")
        assert p.returncode != 0
        assert '"correct"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the program it exits non-zero and prints no result")


if __name__ == "__main__":
    test_check_catches_wrong_answers()
    test_oracle_catches_wrong_engine_answer()
    test_refuses_without_program()
    test_toy_runs_print_every_metric()
    print("selftest passed")
