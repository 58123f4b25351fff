"""CLI coverage: ``sief metrics``, ``sief bench``, ``sief build --progress``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import generators
from repro.graph.io import write_edge_list
from repro.obs import hooks, read_json_lines, validate_trace_events


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    before = hooks._state()
    yield
    assert hooks._state() == before


def _small_workload_args():
    return [
        "metrics",
        "--vertices",
        "60",
        "--cases",
        "3",
        "--queries",
        "120",
        "--scalar-queries",
        "10",
    ]


def test_parser_metrics_defaults():
    args = build_parser().parse_args(["metrics"])
    assert args.command == "metrics"
    assert args.format == "jsonl"
    assert args.out == "-"
    assert args.vertices == 400


def test_metrics_jsonl_to_stdout(capsys):
    assert main(_small_workload_args()) == 0
    out = capsys.readouterr().out
    objs = [json.loads(line) for line in out.splitlines() if line.strip()]
    names = {o["name"] for o in objs if "name" in o}
    # The workload touches every instrumented layer.
    assert "pll.build.bfs" in names
    assert "sief.build.cases" in names
    assert "sief.query.batch_calls" in names
    assert "sief.query.scalar" in names
    (summary,) = [o for o in objs if o["type"] == "trace_summary"]
    assert summary["balanced"] is True
    by_name = {o["name"]: o for o in objs if "name" in o}
    assert by_name["sief.build.cases"]["value"] == 3
    assert by_name["sief.query.batch_calls"]["value"] == 3


def test_metrics_prometheus_to_file(tmp_path, capsys):
    out_file = tmp_path / "metrics.prom"
    rc = main(_small_workload_args() + ["--format", "prom", "--out", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert "# TYPE sief_build_cases counter" in text
    assert 'sief_query_batch_size_bucket{le="+Inf"}' in text
    assert "sief_query_scalar_seconds_count" in text


def test_metrics_from_graph_file(tmp_path, capsys):
    g = generators.erdos_renyi_gnm(30, 60, seed=8)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    rc = main(
        [
            "metrics",
            "--graph",
            str(path),
            "--cases",
            "2",
            "--queries",
            "40",
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "n=30" in err


def test_metrics_chrome_trace_with_profile(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    folded = tmp_path / "folded.txt"
    rc = main(
        _small_workload_args()
        + [
            "--format",
            "chrome",
            "--profile",
            "--folded-out",
            str(folded),
            "--out",
            str(out_file),
        ]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert validate_trace_events(doc) == []
    span_names = {
        e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
    }
    assert "pll.build" in span_names
    assert "sief.build.case" in span_names
    assert folded.exists()
    err = capsys.readouterr().err
    # --profile prints the rollup; a sub-interval workload legitimately
    # yields no samples, and that must render as such, not crash.
    assert "incl%" in err or "(no samples)" in err


def test_metrics_chrome_parallel_build_has_worker_tracks(tmp_path):
    out_file = tmp_path / "trace.json"
    rc = main(
        _small_workload_args()
        + [
            "--cases",
            "8",  # above the builder's 4-case pool threshold
            "--jobs",
            "2",
            "--batched",
            "--format",
            "chrome",
            "--out",
            str(out_file),
        ]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert validate_trace_events(doc) == []
    workers = [
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M"
        and e["name"] == "thread_name"
        and e["args"]["name"].startswith("worker-")
    ]
    assert len(workers) >= 1


def test_build_progress_renders_to_stderr(tmp_path, capsys):
    g = generators.erdos_renyi_gnm(25, 40, seed=3)
    graph = tmp_path / "g.txt"
    write_edge_list(g, graph)
    rc = main(
        [
            "build",
            str(graph),
            "-o",
            str(tmp_path / "g.siefseg"),
            "--batched",
            "--progress",
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "sief build:" in err
    assert "/s" in err
    assert err.endswith("\n")


class TestBenchCli:
    def _record(self, history, run, samples, scale=None):
        argv = [
            "bench",
            "record",
            "--history",
            str(history),
            "--run",
            run,
            "--id",
            "build",
        ]
        for s in samples:
            argv += ["--sample", str(s)]
        if scale is not None:
            argv += ["--scale", str(scale)]
        return main(argv)

    def test_identical_runs_pass(self, tmp_path, capsys):
        h = tmp_path / "hist.jsonl"
        assert self._record(h, "base", [0.1, 0.12]) == 0
        assert self._record(h, "cand", [0.1, 0.13]) == 0
        rc = main(["bench", "compare", "--history", str(h)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS build: 1.00x" in out

    def test_injected_slowdown_fails_with_id_and_ratio(self, tmp_path, capsys):
        h = tmp_path / "hist.jsonl"
        self._record(h, "base", [0.1])
        self._record(h, "cand", [0.1], scale=2.0)
        rc = main(["bench", "compare", "--history", str(h)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL build: 2.00x" in out

    def test_expect_regression_inverts_exit_code(self, tmp_path, capsys):
        h = tmp_path / "hist.jsonl"
        self._record(h, "base", [0.1])
        self._record(h, "cand", [0.1], scale=2.0)
        rc = main(
            ["bench", "compare", "--history", str(h), "--expect-regression"]
        )
        assert rc == 0
        self._record(h, "cand2", [0.1])
        rc = main(
            [
                "bench",
                "compare",
                "--history",
                str(h),
                "--baseline",
                "base",
                "--candidate",
                "cand2",
                "--expect-regression",
            ]
        )
        assert rc == 1

    def test_cross_host_refused_with_warning(self, tmp_path, capsys):
        import json as _json

        h = tmp_path / "hist.jsonl"
        self._record(h, "base", [0.1])
        self._record(h, "cand", [0.1])
        # Rewrite the baseline's hostname to simulate a foreign artifact.
        lines = [
            _json.loads(line)
            for line in h.read_text().splitlines()
            if line.strip()
        ]
        lines[0]["meta"]["hostname"] = "other-host"
        h.write_text("\n".join(_json.dumps(o) for o in lines) + "\n")
        rc = main(["bench", "compare", "--history", str(h)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "other-host" in err
        assert "--allow-cross-host" in err
        rc = main(
            ["bench", "compare", "--history", str(h), "--allow-cross-host"]
        )
        assert rc == 0

    def test_missing_runs_is_an_error(self, tmp_path, capsys):
        h = tmp_path / "hist.jsonl"
        self._record(h, "only", [0.1])
        rc = main(["bench", "compare", "--history", str(h)])
        assert rc == 2
        assert "two recorded runs" in capsys.readouterr().err

    def test_sample_requires_id(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "record",
                "--history",
                str(tmp_path / "h.jsonl"),
                "--sample",
                "0.1",
            ]
        )
        assert rc == 2
        assert "--id" in capsys.readouterr().err

    def test_history_lists_runs(self, tmp_path, capsys):
        h = tmp_path / "hist.jsonl"
        self._record(h, "r1", [0.1])
        self._record(h, "r2", [0.2])
        assert main(["bench", "history", "--history", str(h)]) == 0
        out = capsys.readouterr().out
        assert "r1: 1 benchmark(s) [build]" in out
        assert "r2:" in out

    def test_record_real_workload_smoke(self, tmp_path, capsys):
        h = tmp_path / "hist.jsonl"
        rc = main(
            [
                "bench",
                "record",
                "--history",
                str(h),
                "--run",
                "smoke",
                "--workload",
                "query",
                "--vertices",
                "40",
                "--cases",
                "2",
                "--queries",
                "50",
                "--repeat",
                "2",
            ]
        )
        assert rc == 0
        from repro.bench.history import BenchHistory

        (rec,) = BenchHistory(h).load()
        assert rec.bench_id == "query"
        assert len(rec.samples) == 2
        assert rec.meta["hostname"]


def test_fuzz_metrics_sidecar(tmp_path, capsys):
    sidecar = tmp_path / "fuzz.metrics.jsonl"
    rc = main(
        [
            "fuzz",
            "--budget",
            "2s",
            "--seed",
            "0",
            "--no-corpus",
            "--no-shrink",
            "--adapter",
            "sief-scalar",
            "--adapter",
            "sief-batch",
            "--metrics-out",
            str(sidecar),
        ]
    )
    assert rc == 0
    objs = read_json_lines(sidecar)
    assert objs, "sidecar is empty"
    (summary,) = [o for o in objs if o["type"] == "trace_summary"]
    assert summary["balanced"] is True
    names = {o.get("name") for o in objs}
    assert "sief.build.cases" in names  # fuzz builds indexes under the hooks
    out = capsys.readouterr().out
    assert "metrics sidecar written" in out
