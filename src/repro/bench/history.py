"""Benchmark run history and noise-aware regression detection.

The repo's ``BENCH_*.json`` files are point-in-time snapshots; this
module makes the perf trajectory a first-class artifact.  Three pieces:

* :func:`env_metadata` — the host/toolchain fingerprint stamped into
  every recorded run (python/numpy versions, platform, CPU count, git
  SHA, hostname).  Timing numbers without it are not comparable;
  :func:`compare` *refuses* cross-host comparisons unless explicitly
  overridden.
* :class:`BenchHistory` — an append-only JSON-lines store of
  :class:`BenchRun` records, keyed by benchmark id and grouped into
  named runs (one ``record`` invocation = one run label covering
  several benchmark ids).  JSONL so records append atomically, diff
  cleanly, and concatenate across CI artifacts.
* :func:`compare` / :func:`compare_runs` — the regression verdict.
  Noise-aware by construction: each run stores **all k repetition
  samples**, and the verdict compares a robust statistic (min-of-k by
  default — the standard estimator for "how fast can this code go",
  since timing noise is one-sided — or the median).  The relative
  threshold is configurable; the samples are injectable, so the tests
  that pin PASS/FAIL behaviour never touch a wall clock.

Deployed labeling schemes (Hop-Doubling, IS-LABEL) report
order-of-magnitude sensitivity of index time/size to implementation
constants — exactly the kind of erosion an append-only history plus a
machine-checked compare catches the week it happens, instead of the
month after.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

# Canonical implementation lives in repro.obs.events (the serving layer
# exports it as a /metrics gauge and must not depend on repro.bench);
# re-exported here because every bench sidecar imports it from this module.
from repro.obs.events import peak_rss_bytes  # noqa: F401

SCHEMA_VERSION = 1

STATISTICS = ("min", "median", "mean")
"""Supported comparison statistics (min-of-k is the default)."""

DEFAULT_THRESHOLD = 0.10
"""Default relative regression threshold (candidate > baseline * 1.10)."""


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_metadata() -> Dict[str, object]:
    """Host/toolchain fingerprint for one benchmark result.

    Everything that moves timing numbers between machines: interpreter
    and numpy versions, platform triple, CPU count, hostname — plus the
    git SHA (when available) so a history line names the code it
    measured, and the effective kernel tier (``numpy``/``cext``)
    so a tier switch can never masquerade as a regression or
    an improvement: :func:`compare` refuses cross-tier comparisons the
    same way it refuses cross-host ones.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        from repro.kernels import effective_tier

        kernel_tier = effective_tier()
    except Exception:  # pragma: no cover - misconfigured explicit tier
        kernel_tier = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
        "git_sha": _git_sha(),
        "kernel_tier": kernel_tier,
        "peak_rss_bytes": peak_rss_bytes(),
    }


@dataclass(frozen=True)
class BenchRun:
    """One recorded benchmark: all repetition samples plus provenance."""

    bench_id: str
    samples: Tuple[float, ...]
    run: str = ""
    unit: str = "seconds"
    meta: Mapping[str, object] = field(default_factory=dict)
    extra: Mapping[str, object] = field(default_factory=dict)
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError(
                f"benchmark {self.bench_id!r} recorded with no samples"
            )
        if any(s < 0 for s in self.samples):
            raise ValueError(
                f"benchmark {self.bench_id!r} has negative samples: "
                f"{self.samples}"
            )

    def value(self, statistic: str = "min") -> float:
        """The run's representative value under ``statistic``."""
        if statistic == "min":
            return min(self.samples)
        if statistic == "median":
            return float(median(self.samples))
        if statistic == "mean":
            return sum(self.samples) / len(self.samples)
        raise ValueError(
            f"unknown statistic {statistic!r}; choose from {STATISTICS}"
        )

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "bench_id": self.bench_id,
            "run": self.run,
            "samples": list(self.samples),
            "unit": self.unit,
            "meta": dict(self.meta),
            "extra": dict(self.extra),
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "BenchRun":
        return cls(
            bench_id=obj["bench_id"],
            samples=tuple(obj["samples"]),
            run=obj.get("run", ""),
            unit=obj.get("unit", "seconds"),
            meta=dict(obj.get("meta", {})),
            extra=dict(obj.get("extra", {})),
            timestamp=obj.get("timestamp", 0.0),
        )


class CrossHostError(ValueError):
    """Baseline and candidate were measured on different hosts.

    Timing ratios across hosts are meaningless; :func:`compare` raises
    this (with both hostnames in the message) unless the caller passes
    ``allow_cross_host=True``.
    """


class CrossTierError(ValueError):
    """Baseline and candidate were measured on different kernel tiers.

    A numpy-tier baseline against a cext candidate measures the
    tier switch, not the code change under test; :func:`compare` raises
    this (with both tiers in the message) unless the caller passes
    ``allow_cross_tier=True`` — which is exactly what a deliberate
    cross-tier speedup measurement should do.
    """


class BenchHistory:
    """Append-only JSON-lines store of :class:`BenchRun` records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, run: BenchRun) -> None:
        """Append one record (creates the file and parents on first use)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(run.to_json()) + "\n")

    def load(
        self,
        bench_id: Optional[str] = None,
        run: Optional[str] = None,
    ) -> List[BenchRun]:
        """All records, in file order, optionally filtered."""
        if not self.path.exists():
            return []
        out: List[BenchRun] = []
        for lineno, line in enumerate(
            self.path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{self.path}:{lineno}: not valid JSON ({exc})"
                ) from exc
            rec = BenchRun.from_json(obj)
            if bench_id is not None and rec.bench_id != bench_id:
                continue
            if run is not None and rec.run != run:
                continue
            out.append(rec)
        return out

    def run_labels(self) -> List[str]:
        """Distinct run labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for rec in self.load():
            seen.setdefault(rec.run)
        return list(seen)

    def latest(
        self, bench_id: str, run: Optional[str] = None
    ) -> Optional[BenchRun]:
        """The most recently appended record for ``bench_id``."""
        recs = self.load(bench_id=bench_id, run=run)
        return recs[-1] if recs else None


@dataclass(frozen=True)
class Comparison:
    """The verdict for one benchmark id between two runs."""

    bench_id: str
    baseline_value: float
    candidate_value: float
    ratio: float
    threshold: float
    statistic: str
    regressed: bool
    improved: bool

    @property
    def verdict(self) -> str:
        return "FAIL" if self.regressed else "PASS"

    def describe(self) -> str:
        """One printable verdict line with the id and the ratio."""
        trend = (
            "slower" if self.ratio > 1 else "faster" if self.ratio < 1 else ""
        )
        note = f" ({'improved' if self.improved else trend})" if trend else ""
        return (
            f"{self.verdict} {self.bench_id}: {self.ratio:.2f}x"
            f"{note}  [{self.statistic} {self.baseline_value:.6g}s -> "
            f"{self.candidate_value:.6g}s, threshold +{self.threshold:.0%}]"
        )


def compare(
    baseline: BenchRun,
    candidate: BenchRun,
    threshold: float = DEFAULT_THRESHOLD,
    statistic: str = "min",
    allow_cross_host: bool = False,
    allow_cross_tier: bool = False,
) -> Comparison:
    """Noise-aware regression verdict for one benchmark id.

    ``regressed`` iff ``candidate / baseline > 1 + threshold`` under the
    chosen statistic; ``improved`` is the symmetric speedup flag.  Both
    runs must carry the same ``bench_id`` and (unless overridden) the
    same recorded hostname and kernel tier — comparing timings across
    hosts or tiers answers a question nobody asked.
    """
    if baseline.bench_id != candidate.bench_id:
        raise ValueError(
            f"cannot compare different benchmarks: "
            f"{baseline.bench_id!r} vs {candidate.bench_id!r}"
        )
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    base_host = baseline.meta.get("hostname")
    cand_host = candidate.meta.get("hostname")
    if (
        not allow_cross_host
        and base_host is not None
        and cand_host is not None
        and base_host != cand_host
    ):
        raise CrossHostError(
            f"benchmark {baseline.bench_id!r}: baseline was recorded on "
            f"host {base_host!r} but candidate on {cand_host!r}; timing "
            "ratios across hosts are not meaningful "
            "(pass allow_cross_host=True / --allow-cross-host to override)"
        )
    base_tier = baseline.meta.get("kernel_tier")
    cand_tier = candidate.meta.get("kernel_tier")
    if (
        not allow_cross_tier
        and base_tier is not None
        and cand_tier is not None
        and base_tier != cand_tier
    ):
        raise CrossTierError(
            f"benchmark {baseline.bench_id!r}: baseline was recorded on "
            f"kernel tier {base_tier!r} but candidate on {cand_tier!r}; "
            "that ratio measures the tier switch, not the change under "
            "test (pass allow_cross_tier=True / --allow-cross-tier to "
            "override)"
        )
    base = baseline.value(statistic)
    cand = candidate.value(statistic)
    if base <= 0:
        # A zero-time baseline can only mean injected samples; any
        # positive candidate is then "infinitely" slower.
        ratio = float("inf") if cand > 0 else 1.0
    else:
        ratio = cand / base
    return Comparison(
        bench_id=baseline.bench_id,
        baseline_value=base,
        candidate_value=cand,
        ratio=ratio,
        threshold=threshold,
        statistic=statistic,
        regressed=ratio > 1.0 + threshold,
        improved=ratio < 1.0 - threshold,
    )


def compare_runs(
    history: BenchHistory,
    baseline_run: str,
    candidate_run: str,
    threshold: float = DEFAULT_THRESHOLD,
    statistic: str = "min",
    allow_cross_host: bool = False,
    allow_cross_tier: bool = False,
) -> Tuple[List[Comparison], List[str]]:
    """Compare every benchmark id present in both runs.

    Returns ``(comparisons, missing)`` where ``missing`` lists bench ids
    present in exactly one of the two runs (a silent disappearance is a
    gating bug, so callers should surface it).
    """
    base_recs = {r.bench_id: r for r in history.load(run=baseline_run)}
    cand_recs = {r.bench_id: r for r in history.load(run=candidate_run)}
    if not base_recs:
        raise ValueError(f"no records for baseline run {baseline_run!r}")
    if not cand_recs:
        raise ValueError(f"no records for candidate run {candidate_run!r}")
    comparisons = [
        compare(
            base_recs[bid],
            cand_recs[bid],
            threshold=threshold,
            statistic=statistic,
            allow_cross_host=allow_cross_host,
            allow_cross_tier=allow_cross_tier,
        )
        for bid in sorted(set(base_recs) & set(cand_recs))
    ]
    missing = sorted(set(base_recs) ^ set(cand_recs))
    return comparisons, missing


def default_run_label(clock=time.time) -> str:
    """A unique-enough run label when the caller didn't name one."""
    return f"run-{int(clock() * 1000)}"
