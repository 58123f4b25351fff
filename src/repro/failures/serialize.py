"""Persistence for the extension indexes (weighted and directed SIEF).

The core unweighted index persists as a segment store
(:mod:`repro.core.segstore`); the extensions use a self-describing JSON
envelope instead — their distance types differ (floats for weighted,
dual in/out maps for directed) and their scale is secondary to the
paper's evaluation, so clarity wins over byte-shaving here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.affected import AffectedVertices
from repro.core.supplemental import SupplementalIndex, SupplementalLabels
from repro.exceptions import SerializationError
from repro.failures.directed import (
    DirectedAffected,
    DirectedSIEFIndex,
    DirectedSupplemental,
)
from repro.failures.weighted import WeightedSIEFIndex
from repro.labeling.pll_weighted import WeightedLabeling
from repro.labeling.pll_directed import DirectedLabeling
from repro.order.ordering import VertexOrdering

PathLike = Union[str, Path]

_WEIGHTED_KIND = "sief-weighted-1"
_DIRECTED_KIND = "sief-directed-1"


def weighted_index_to_json(index: WeightedSIEFIndex) -> str:
    """Serialize a weighted SIEF index (floats preserved via repr)."""
    labeling = index.labeling
    doc = {
        "kind": _WEIGHTED_KIND,
        "order": labeling.ordering.sequence(),
        "labels": [
            [labeling.hub_ranks[v], labeling.hub_dists[v]]
            for v in range(labeling.num_vertices)
        ],
        "cases": [
            {
                "e": list(edge),
                "au": list(si.affected.side_u),
                "av": list(si.affected.side_v),
                "disc": si.affected.disconnected,
                "sl": {
                    str(t): [sl.ranks, sl.dists]
                    for t, sl in si.iter_labels()
                },
            }
            for edge, si in sorted(index.supplements.items())
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def weighted_index_from_json(text: str) -> WeightedSIEFIndex:
    """Inverse of :func:`weighted_index_to_json`."""
    try:
        doc = json.loads(text)
        if doc.get("kind") != _WEIGHTED_KIND:
            raise SerializationError(
                f"expected {_WEIGHTED_KIND}, got {doc.get('kind')!r}"
            )
        ordering = VertexOrdering([int(v) for v in doc["order"]])
        labeling = WeightedLabeling(
            ordering,
            [[int(r) for r in ranks] for ranks, _ in doc["labels"]],
            [[float(d) for d in dists] for _, dists in doc["labels"]],
        )
        index = WeightedSIEFIndex(labeling)
        for case in doc["cases"]:
            u, v = case["e"]
            affected = AffectedVertices(
                u=u,
                v=v,
                side_u=tuple(case["au"]),
                side_v=tuple(case["av"]),
                disconnected=bool(case.get("disc", False)),
            )
            si = SupplementalIndex(affected)
            for key, (ranks, dists) in case["sl"].items():
                si.labels[int(key)] = SupplementalLabels(
                    [int(r) for r in ranks], [float(d) for d in dists]
                )
            index.add_supplement((u, v), si)
        return index
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"bad weighted index JSON: {error}"
        ) from error


def directed_index_to_json(index: DirectedSIEFIndex) -> str:
    """Serialize a directed SIEF index."""
    labeling = index.labeling
    doc = {
        "kind": _DIRECTED_KIND,
        "order": labeling.ordering.sequence(),
        "out": [
            [labeling.out_ranks[v], labeling.out_dists[v]]
            for v in range(labeling.num_vertices)
        ],
        "in": [
            [labeling.in_ranks[v], labeling.in_dists[v]]
            for v in range(labeling.num_vertices)
        ],
        "cases": [
            {
                "a": list(arc),
                "s": list(si.affected.side_s),
                "t": list(si.affected.side_t),
                "disc": si.affected.disconnected,
                "li": {str(k): list(v) for k, v in si.labels_in.items()},
                "lo": {str(k): list(v) for k, v in si.labels_out.items()},
            }
            for arc, si in sorted(index.supplements.items())
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def directed_index_from_json(text: str) -> DirectedSIEFIndex:
    """Inverse of :func:`directed_index_to_json`."""
    try:
        doc = json.loads(text)
        if doc.get("kind") != _DIRECTED_KIND:
            raise SerializationError(
                f"expected {_DIRECTED_KIND}, got {doc.get('kind')!r}"
            )
        ordering = VertexOrdering([int(v) for v in doc["order"]])
        labeling = DirectedLabeling(ordering)
        for v, (ranks, dists) in enumerate(doc["out"]):
            labeling.out_ranks[v] = [int(r) for r in ranks]
            labeling.out_dists[v] = [int(d) for d in dists]
        for v, (ranks, dists) in enumerate(doc["in"]):
            labeling.in_ranks[v] = [int(r) for r in ranks]
            labeling.in_dists[v] = [int(d) for d in dists]
        index = DirectedSIEFIndex(labeling)
        for case in doc["cases"]:
            u, v = case["a"]
            affected = DirectedAffected(
                u=u,
                v=v,
                side_s=[int(x) for x in case["s"]],
                side_t=[int(x) for x in case["t"]],
                disconnected=bool(case.get("disc", False)),
            )
            si = DirectedSupplemental(affected)
            si.labels_in = {
                int(k): ([int(r) for r in rs], [int(d) for d in ds])
                for k, (rs, ds) in case["li"].items()
            }
            si.labels_out = {
                int(k): ([int(r) for r in rs], [int(d) for d in ds])
                for k, (rs, ds) in case["lo"].items()
            }
            index.add_supplement((u, v), si)
        return index
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"bad directed index JSON: {error}"
        ) from error


def save_weighted_index(index: WeightedSIEFIndex, path: PathLike) -> None:
    """Write a weighted index to ``path``."""
    Path(path).write_text(weighted_index_to_json(index), encoding="utf-8")


def load_weighted_index(path: PathLike) -> WeightedSIEFIndex:
    """Read a weighted index written by :func:`save_weighted_index`."""
    return weighted_index_from_json(Path(path).read_text(encoding="utf-8"))


def save_directed_index(index: DirectedSIEFIndex, path: PathLike) -> None:
    """Write a directed index to ``path``."""
    Path(path).write_text(directed_index_to_json(index), encoding="utf-8")


def load_directed_index(path: PathLike) -> DirectedSIEFIndex:
    """Read a directed index written by :func:`save_directed_index`."""
    return directed_index_from_json(Path(path).read_text(encoding="utf-8"))
