"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately minimal — PLL-family deployments live and
die by label-size and query-time telemetry, and the instruments here are
exactly the ones those numbers need:

* :class:`Counter` — monotonically increasing totals (cases built,
  queries answered, cache hits);
* :class:`Gauge` — last-written point-in-time values (index entry
  counts, resident cases);
* :class:`Histogram` — distributions over **fixed bucket edges** chosen
  at creation time.  Edges never move, so snapshots taken at different
  times (or in different worker processes) are always mergeable
  bucket-by-bucket, and tests can assert on bucket counts without any
  wall-clock assumptions.

Registries are process-local and single-threaded by design (CPython's
unit of parallelism here is the process — see
:mod:`repro.core.parallel`, which gives each worker chunk its own
registry and merges the snapshots at join).  Nothing in this module
imports the rest of the library, so any layer may depend on it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

Number = Union[int, float]

LATENCY_SECONDS_EDGES: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)
"""Default bucket edges for wall-clock durations in seconds."""

SIZE_EDGES: Tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)
"""Default bucket edges for counts/sizes (label lengths, batch sizes)."""

REQUEST_LATENCY_EDGES: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0, 30.0,
)
"""Bucket edges for served request latencies (seconds).

Wider and denser than :data:`LATENCY_SECONDS_EDGES`: an in-RAM serving
path answers in the 100µs–10ms band, but a demand-paged store
(``sief serve --cache-cases``) adds LRU-miss cliffs that land requests
in the 10ms–1s band, and a drain or timeout can take seconds — p99
under paging is meaningless if everything past 10ms falls into two
buckets.  1-2.5-5 per decade keeps quantile interpolation error under
~2.5x anywhere in the range.  Pinned by a regression test; changing
these breaks mergeability with recorded snapshots.
"""


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value; last write wins (also across merges)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A distribution over fixed, strictly increasing bucket edges.

    ``counts[i]`` holds observations ``<= edges[i]``; the final slot
    holds the overflow (``> edges[-1]``), mirroring Prometheus's
    ``+Inf`` bucket.  ``sum``/``count`` track the usual aggregates.
    """

    __slots__ = ("name", "edges", "counts", "sum", "count")

    def __init__(self, name: str, edges: Sequence[Number]) -> None:
        edges = tuple(edges)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing: {edges}"
            )
        self.name = name
        self.edges: Tuple[Number, ...] = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Iterable[Number]) -> None:
        for v in values:
            self.observe(v)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, sum={self.sum})"
        )


class Family(dict):
    """One name family (``serve.http.<status>``) as a dict of instruments.

    ``family[label]`` is ``make(label)``, created on first use and cached,
    so a hot path resolves each instrument once instead of formatting
    its name and looking it up in the registry on every event.
    """

    def __init__(self, make: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, label: Hashable) -> object:
        instrument = self[label] = self.make(label)
        return instrument


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first access and cached by name; asking
    for an existing histogram with *different* edges is an error (fixed
    edges are the mergeability contract).  ``snapshot()`` returns a
    plain-dict form that pickles/JSON-serializes cleanly, and
    ``merge_snapshot()`` folds such a snapshot back in — the pair is how
    per-worker registries combine at join.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_unique(name, self._counters)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_unique(name, self._gauges)
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, edges: Optional[Sequence[Number]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_unique(name, self._histograms)
            h = self._histograms[name] = Histogram(
                name, LATENCY_SECONDS_EDGES if edges is None else edges
            )
        elif edges is not None and tuple(edges) != h.edges:
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{h.edges}, requested {tuple(edges)}"
            )
        return h

    def _check_unique(self, name: str, own: Dict[str, object]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric name {name!r} already registered as a "
                    "different instrument type"
                )

    # -- introspection ------------------------------------------------------

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def counter_value(self, name: str) -> Number:
        """The counter's total, or 0 if it was never touched."""
        c = self._counters.get(name)
        return 0 if c is None else c.value

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (pickle/JSON friendly)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges take the snapshot's
        value (last write wins).  Histogram edges must match exactly.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snap.get("histograms", {}).items():
            h = self.histogram(name, data["edges"])
            counts = data["counts"]
            if len(counts) != len(h.counts):
                raise ValueError(
                    f"histogram {name!r} snapshot has {len(counts)} buckets, "
                    f"registry has {len(h.counts)}"
                )
            for i, c in enumerate(counts):
                h.counts[i] += c
            h.sum += data["sum"]
            h.count += data["count"]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (same semantics as merge_snapshot)."""
        self.merge_snapshot(other.snapshot())

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
