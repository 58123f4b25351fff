"""Shared-memory parallel build: parity and segment-lifecycle guarantees.

The invariants under test:

* shm-transport pool builds are bit-identical to serial builds, for
  both scalar and batched relabel algorithms;
* no ``/dev/shm`` segment survives a build — on success, on a worker
  exception, or on ``SIGINT`` delivered mid-build (the last via a real
  subprocess harness, since signal delivery into a live pool cannot be
  faked in-process).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import parallel as parallel_mod
from repro.core.builder import SIEFBuilder
from repro.core.parallel import build_sief_parallel
from repro.core.shm import (
    SharedArena,
    attach_build_inputs,
    list_segments,
    publish_build_inputs,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm
from repro.labeling.pll import build_pll

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _assert_no_new_segments(before):
    leftover = [s for s in list_segments() if s not in before]
    assert leftover == [], f"leaked shared-memory segments: {leftover}"


class TestArena:
    def test_publish_attach_roundtrip(self):
        before = list_segments()
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.asarray([3, 1, 4], dtype=np.int32),
            "c": np.asarray([2.5, -1.0], dtype=np.float64),
        }
        arena = SharedArena.publish(arrays)
        try:
            assert arena.name in list_segments()
            borrowed = SharedArena.attach(arena.spec())
            views = borrowed.arrays()
            for key, arr in arrays.items():
                assert views[key].dtype == arr.dtype
                assert np.array_equal(views[key], arr)
                assert not views[key].flags.writeable
            borrowed.close()
        finally:
            arena.close()
            arena.unlink()
        _assert_no_new_segments(before)

    def test_context_manager_cleans_up(self):
        before = list_segments()
        with SharedArena.publish({"x": np.ones(4, dtype=np.int32)}) as arena:
            assert arena.name in list_segments()
        _assert_no_new_segments(before)

    def test_publish_requires_frozen_labeling(self):
        g = erdos_renyi_gnm(10, 15, seed=0)
        labeling = build_pll(g)
        labeling.thaw()
        with pytest.raises(ValueError):
            publish_build_inputs(CSRGraph.from_graph(g), labeling)

    def test_build_inputs_roundtrip_zero_copy(self):
        g = erdos_renyi_gnm(25, 60, seed=1)
        labeling = build_pll(g)
        labeling.freeze()
        csr = CSRGraph.from_graph(g)
        before = list_segments()
        arena = publish_build_inputs(csr, labeling)
        try:
            borrowed, csr2, lab2 = attach_build_inputs(arena.spec())
            assert csr2 == csr
            assert lab2.frozen
            assert np.array_equal(lab2.offsets, labeling.offsets)
            assert np.array_equal(lab2.hubs_flat, labeling.hubs_flat)
            assert np.array_equal(lab2.dists_flat, labeling.dists_flat)
            assert (
                lab2.ordering.vertex_array().tolist()
                == labeling.ordering.vertex_array().tolist()
            )
            borrowed.close()
        finally:
            arena.close()
            arena.unlink()
        _assert_no_new_segments(before)


@pytest.mark.parametrize("algorithm", ["bfs_all", "batched"])
def test_shm_serial_bit_identical(algorithm):
    g = barabasi_albert(150, 3, seed=4)
    edges = sorted(g.edges())[:30]
    before = list_segments()
    serial, _ = SIEFBuilder(g, build_pll(g), "bfs_all").build(edges=edges)
    shm, _ = build_sief_parallel(
        g, build_pll(g), algorithm=algorithm, workers=2, edges=edges
    )
    assert set(serial.supplements) == set(shm.supplements)
    for edge, si in serial.supplements.items():
        other = shm.supplements[edge]
        assert si == other
        for t, sl in si.labels.items():
            assert sl.ranks == other.labels[t].ranks
            assert sl.dists == other.labels[t].dists
    _assert_no_new_segments(before)


def test_shm_metrics_flow_to_parent():
    from repro.obs import MetricsRegistry, TraceRecorder, installed

    g = barabasi_albert(80, 2, seed=7)
    registry = MetricsRegistry()
    recorder = TraceRecorder(capacity=64)
    with installed(registry, recorder):
        build_sief_parallel(
            g, build_pll(g), workers=2, edges=sorted(g.edges())[:8]
        )
    counters = registry.snapshot()["counters"]
    assert counters.get("sief.shm.segments_published") == 1
    assert counters.get("sief.shm.worker_attaches", 0) >= 1
    assert counters.get("sief.build.cases") == 8


def test_no_leak_when_worker_raises(monkeypatch):
    g = barabasi_albert(60, 2, seed=5)
    labeling = build_pll(g)
    before = list_segments()

    def boom(*args, **kwargs):
        raise RuntimeError("injected worker failure")

    # Fork workers inherit the patched module state, so every chunk dies.
    monkeypatch.setattr(parallel_mod, "build_one_case", boom)
    with pytest.raises(RuntimeError, match="injected worker failure"):
        build_sief_parallel(g, labeling, workers=2)
    _assert_no_new_segments(before)


_SIGINT_CHILD = """\
import sys
sys.path.insert(0, {src!r})
from repro.graph.generators import barabasi_albert
from repro.labeling.pll import build_pll
from repro.core.parallel import build_sief_parallel

g = barabasi_albert(400, 2, seed=11)
labeling = build_pll(g)
build_sief_parallel(g, labeling, algorithm="bfs_all", workers=2)
print("BUILD-FINISHED", flush=True)
"""


def test_no_leak_on_parent_sigint(tmp_path):
    """SIGINT mid-build: the publisher's finally still unlinks."""
    script = tmp_path / "child.py"
    script.write_text(_SIGINT_CHILD.format(src=SRC), encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    prefix = f"sief-{child.pid}-"
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if any(s.startswith(prefix) for s in list_segments()):
                break
            if child.poll() is not None:
                pytest.fail(
                    "child exited before publishing a segment: "
                    + child.stderr.read()
                )
            time.sleep(0.05)
        else:
            pytest.fail("child never published a shared-memory segment")
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert "BUILD-FINISHED" not in out, "SIGINT landed after the build"
    assert child.returncode != 0
    leftover = [s for s in list_segments() if s.startswith(prefix)]
    assert leftover == [], f"segments leaked after SIGINT: {leftover}"
