"""Failure-injection tests: corrupted persisted data must fail loudly.

The segment store (``.siefseg``) is the one persisted index format.  Its
contract under corruption: a damaged store either raises a
:class:`~repro.exceptions.ReproError` (a :class:`StoreError` when the
store itself is found inconsistent) or opens and answers; no other
exception may escape — not at open, not in ``to_index()``, and not later
at query time, where a leaked ``IndexError``/``ValueError`` would reach a
server as a client error.  A flip that stays in range can still change
an answer; that needs content checksums, which the format does not have.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import SIEFBuilder
from repro.core.query import SIEFQueryEngine
from repro.core.segstore import (
    LABELING_FILE,
    SEGMENTS_FILE,
    TOC_FILE,
    SegmentStore,
    SegmentWriter,
    write_index,
)
from repro.exceptions import ReproError, SerializationError, StoreError
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.labeling.query import batch_dist_query

STORE_FILES = (LABELING_FILE, SEGMENTS_FILE, TOC_FILE)
FLIPS_PER_SEED = 8  # 30 seeds -> 240 flips over the three store files


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A zero-case (labeling-only) store and a full index store."""
    root = tmp_path_factory.mktemp("fuzz")
    g = generators.erdos_renyi_gnm(14, 24, seed=31)
    labeling = build_pll(g)
    index, _ = SIEFBuilder(g, labeling.copy()).build()
    label_store = SegmentWriter(root / "labeling", labeling).finalize()
    index_store = write_index(index, root / "index").path
    return label_store, index_store


def _all_pairs(n: int) -> np.ndarray:
    s, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.stack([s.ravel(), t.ravel()], axis=1)


def _corrupt_copy(src: Path, dst: Path, name: str, rng: random.Random) -> None:
    """Copy store ``src`` to ``dst`` with one random byte of ``name``
    XOR-ed by a random non-zero mask."""
    shutil.copytree(src, dst)
    data = bytearray((dst / name).read_bytes())
    data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
    (dst / name).write_bytes(bytes(data))


def _open_and_query_labeling(path: Path) -> None:
    labeling = SegmentStore(path).labeling()
    batch_dist_query(labeling, _all_pairs(labeling.num_vertices))


def _open_and_query_index(path: Path) -> None:
    index = SegmentStore(path).to_index()
    engine = SIEFQueryEngine(index)
    pairs = _all_pairs(index.labeling.num_vertices)
    for edge, _si in index.iter_cases():
        engine.batch_query(edge, pairs)


def _only_repro_errors(open_and_query, path: Path) -> None:
    try:
        open_and_query(path)
    except ReproError:
        pass  # loud failure: acceptable
    except Exception as exc:  # noqa: BLE001 - the contract under test
        pytest.fail(f"leaked {type(exc).__name__}: {exc}")


class TestLabelingFuzz:
    """The labeling of a zero-case store."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_byte_flip_never_crashes(self, stores, tmp_path, seed):
        label_store, _ = stores
        rng = random.Random(seed)
        for i in range(FLIPS_PER_SEED):
            dst = tmp_path / f"flip{i}.siefseg"
            _corrupt_copy(label_store, dst, LABELING_FILE, rng)
            _only_repro_errors(_open_and_query_labeling, dst)

    @pytest.mark.parametrize("cut", [0, 7, 8, 9, 30])
    def test_truncations(self, stores, tmp_path, cut):
        label_store, _ = stores
        dst = tmp_path / "cut.siefseg"
        shutil.copytree(label_store, dst)
        data = (dst / LABELING_FILE).read_bytes()
        (dst / LABELING_FILE).write_bytes(data[:cut])
        with pytest.raises(StoreError):
            SegmentStore(dst).labeling()

    def test_empty_input(self, stores, tmp_path):
        label_store, _ = stores
        dst = tmp_path / "empty.siefseg"
        shutil.copytree(label_store, dst)
        (dst / LABELING_FILE).write_bytes(b"")
        with pytest.raises(StoreError):
            SegmentStore(dst).labeling()


class TestIndexFuzz:
    """All three files of a full store, each flip on a fresh copy."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_byte_flip_never_crashes(self, stores, tmp_path, seed):
        _, index_store = stores
        rng = random.Random(seed)
        for i in range(FLIPS_PER_SEED):
            dst = tmp_path / f"flip{i}.siefseg"
            _corrupt_copy(index_store, dst, STORE_FILES[i % 3], rng)
            _only_repro_errors(_open_and_query_index, dst)

    @pytest.mark.parametrize("cut", [0, 7, 8, 23, 24, 100])
    def test_truncations(self, stores, tmp_path, cut):
        _, index_store = stores
        dst = tmp_path / "cut.siefseg"
        shutil.copytree(index_store, dst)
        data = (dst / SEGMENTS_FILE).read_bytes()
        (dst / SEGMENTS_FILE).write_bytes(data[:cut])
        with pytest.raises(StoreError, match="truncated"):
            SegmentStore(dst)

    def test_swapped_magic_types_rejected(self, stores, tmp_path):
        _, index_store = stores
        # Each file in the other's place must be a loud failure.
        dst = tmp_path / "swapped.siefseg"
        shutil.copytree(index_store, dst)
        toc = (dst / TOC_FILE).read_bytes()
        (dst / TOC_FILE).write_bytes((dst / LABELING_FILE).read_bytes())
        (dst / LABELING_FILE).write_bytes(toc)
        with pytest.raises(StoreError):
            SegmentStore(dst).to_index()


class TestEdgeListFuzz:
    @pytest.mark.parametrize(
        "content",
        [
            "a\n",
            "1 2 3 extra is fine\n1\n",
            "\x00\x01 2\n",
        ],
    )
    def test_bad_lines_raise_serialization_error(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        from repro.graph.io import read_edge_list

        try:
            read_edge_list(path)
        except SerializationError:
            pass  # expected for the malformed rows
