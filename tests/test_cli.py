"""End-to-end tests for the ``sief`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph.io import write_edge_list
from repro.graph import generators


@pytest.fixture
def graph_file(tmp_path):
    g = generators.erdos_renyi_gnm(15, 26, seed=30)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    return path, g


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["generate", "--dataset", "ca_grqc", "-o", "x"])
    assert args.command == "generate"
    assert parser.parse_args(["build", "g.txt"]).output == "index.siefseg"


@pytest.mark.parametrize(
    "argv",
    [["freeze", "x.sief"], ["check", "g.txt", "x.sief"],
     ["build", "g.txt", "--spill", "x.siefseg"]],
    ids=["freeze", "check", "build-spill"],
)
def test_parser_has_no_second_index_format(argv):
    # `sief build` writes the one format every command reads.
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_generate_list(capsys):
    assert main(["generate", "--list"]) == 0
    out = capsys.readouterr().out
    assert "gnutella" in out and "ca_grqc" in out


def test_generate_writes_file(tmp_path, capsys):
    out_file = tmp_path / "g.txt"
    assert main(["generate", "--dataset", "ca_grqc", "-o", str(out_file)]) == 0
    assert out_file.exists()
    assert "ca_grqc" in capsys.readouterr().out


def test_build_query_stats_pipeline(graph_file, tmp_path, capsys):
    path, _original = graph_file
    # The CLI densifies ids by first-seen order; work in that id space.
    from repro.graph.io import read_edge_list

    g, _names = read_edge_list(path)
    index_file = tmp_path / "g.siefseg"
    assert main(["build", str(path), "-o", str(index_file)]) == 0
    assert index_file.exists()
    build_out = capsys.readouterr().out
    assert "failure cases" in build_out

    u, v = next(iter(g.edges()))
    rc = main(
        [
            "query",
            str(index_file),
            "--fail", str(u), str(v),
            "--pair", "0", str(g.num_vertices - 1),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "d(G -" in out and "[case" in out

    assert main(["stats", str(index_file)]) == 0
    stats_out = capsys.readouterr().out
    assert "failure cases" in stats_out
    assert "SLEN / OLEN" in stats_out


def test_build_with_bfs_aff(graph_file, tmp_path, capsys):
    path, _ = graph_file
    index_file = tmp_path / "aff.siefseg"
    rc = main(
        ["build", str(path), "-o", str(index_file), "--algorithm", "bfs_aff"]
    )
    assert rc == 0
    assert "bfs_aff" in capsys.readouterr().out


def test_validate_good_file(graph_file, capsys):
    path, _ = graph_file
    assert main(["validate", str(path)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_query_consistency_with_library(graph_file, tmp_path):
    from repro.baselines.bfs_query import BFSQueryBaseline
    from repro.core.index import SIEFIndex
    from repro.core.query import SIEFQueryEngine
    from repro.graph.io import read_edge_list

    path, _original = graph_file
    # Compare in the CLI's (densified) id space.
    g, _names = read_edge_list(path)
    index_file = tmp_path / "g.siefseg"
    main(["build", str(path), "-o", str(index_file)])
    engine = SIEFQueryEngine(SIEFIndex.load(index_file))
    baseline = BFSQueryBaseline(g)
    n = g.num_vertices
    for u, v in list(g.edges())[:5]:
        for s in range(0, n, 2):
            for t in range(0, n, 3):
                assert engine.distance(s, t, (u, v)) == baseline.distance(
                    s, t, (u, v)
                )


def test_path_command(graph_file, tmp_path, capsys):
    from repro.graph.io import read_edge_list

    path, _original = graph_file
    g, _names = read_edge_list(path)
    index_file = tmp_path / "g.siefseg"
    main(["build", str(path), "-o", str(index_file)])
    capsys.readouterr()
    u, v = next(iter(g.edges()))
    rc = main(
        [
            "path", str(path), str(index_file),
            "--fail", str(u), str(v),
            "--pair", "0", str(g.num_vertices - 1),
        ]
    )
    out = capsys.readouterr().out
    if rc == 0:
        assert " -> " in out or out.startswith("0\n")
        assert "avoiding edge" in out
    else:
        assert "no path" in out


def test_impact_command(graph_file, tmp_path, capsys):
    path, _ = graph_file
    index_file = tmp_path / "g.siefseg"
    main(["build", str(path), "-o", str(index_file)])
    capsys.readouterr()
    rc = main(["impact", str(index_file), "--top", "3", "--queries", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst 3 failure cases" in out
    assert "resilience over 50" in out


class TestVerifyCommand:
    def _build(self, graph_file, tmp_path):
        path, _ = graph_file
        index_file = tmp_path / "g.siefseg"
        assert main(["build", str(path), "-o", str(index_file)]) == 0
        return path, index_file

    def test_verify_ok_all_levels(self, graph_file, tmp_path, capsys):
        path, index_file = self._build(graph_file, tmp_path)
        capsys.readouterr()
        rc = main(["verify", str(path), str(index_file), "--sample", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok: levels structural, affected, queries passed" in out

    def test_verify_single_level(self, graph_file, tmp_path, capsys):
        path, index_file = self._build(graph_file, tmp_path)
        capsys.readouterr()
        rc = main(
            ["verify", str(path), str(index_file), "--level", "structural"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok: levels structural passed" in out

    def test_verify_mismatched_graph_exits_nonzero(
        self, graph_file, tmp_path, capsys
    ):
        """An index verified against the wrong graph must fail loudly."""
        path, index_file = self._build(graph_file, tmp_path)
        other = generators.erdos_renyi_gnm(15, 32, seed=99)
        other_path = tmp_path / "other.txt"
        write_edge_list(other, other_path)
        capsys.readouterr()
        rc = main(["verify", str(other_path), str(index_file), "--sample", "5"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "PROBLEM:" in out
        assert "problem(s)" in out


class TestFuzzCommand:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz"])
        assert args.seed == 0
        assert args.budget == "30s"
        assert args.corpus == "tests/corpus"

    def test_clean_fuzz_run_exits_zero(self, capsys):
        rc = main(
            [
                "fuzz",
                "--seed", "3",
                "--budget", "2s",
                "--adapter", "sief-scalar",
                "--generator", "tree",
                "--no-corpus",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no mismatches found" in out
        assert "engines:    1 (sief-scalar)" in out

    def test_clean_run_writes_no_corpus_files(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "fuzz",
                "--seed", "3",
                "--budget", "1s",
                "--adapter", "bfs-baseline",
                "--generator", "er",
                "--corpus", str(corpus),
            ]
        )
        assert rc == 0
        assert not list(corpus.glob("*.json")) if corpus.exists() else True

    def test_unknown_adapter_is_a_clean_error(self, capsys):
        rc = main(["fuzz", "--budget", "1s", "--adapter", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestOutOfCore:
    def test_build_spill_writes_segment_store(self, graph_file, tmp_path, capsys):
        from repro.core.builder import build_sief
        from repro.core.index import SIEFIndex
        from repro.graph.io import read_edge_list
        from repro.labeling.pll import build_pll
        from repro.order.strategies import make_ordering

        path, _original = graph_file
        g, _names = read_edge_list(path)
        reference = build_sief(
            g, build_pll(g, make_ordering(g, "degree")), algorithm="batched"
        )
        for jobs in ("1", "2"):
            store = tmp_path / f"store-j{jobs}.siefseg"
            rc = main(
                ["build", str(path), "--batched", "-o", str(store),
                 "--shards", "3", "--jobs", jobs]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "3 shards" in out
            assert "identify" in out and "relabel" in out
            assert (store / "segments.bin").exists()
            # Each shard is spilled as it finishes; the store still
            # equals a one-shot in-RAM build.
            assert SIEFIndex.load(store) == reference

    def test_serve_rejects_non_segment_store(self, tmp_path, capsys):
        index_file = tmp_path / "foo.sief"
        index_file.write_bytes(b"never opened")
        assert main(["serve", str(index_file)]) == 2
        captured = capsys.readouterr()
        assert "sief build" in captured.err
        assert "serving on" not in captured.out


def test_error_reported_as_exit_code_2(tmp_path, capsys):
    missing = tmp_path / "missing.sief"
    missing.write_bytes(b"garbage!")
    rc = main(["query", str(missing), "--fail", "0", "1", "--pair", "0", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
