"""Compiled kernel tiers for the SIEF hot loops, behind one dispatcher.

Profiling the 10k-vertex batched build and the batch query path puts
essentially all the time in four tight loops: single-source CSR BFS
(IDENTIFY), the 64-lane bit-parallel sweep, the RELABEL direction pass
(sweep + late redundancy filter — the filter dominates), and the
hub-join of :func:`repro.labeling.query.batch_dist_query`.  This package
provides a compiled implementation of those kernels and routes callers
to it when it is available:

``cext``
    The same kernels in C (``_csrc/siefkernels.c``), compiled on demand
    with the system C compiler and bound via ctypes
    (:mod:`repro.kernels.cext_backend`) — no build-time dependency, and
    the seam a cython backend could slot into later.
``numpy``
    No kernel at all: :func:`resolve` returns ``None`` and the caller
    runs its existing pure-numpy implementation.  Always available.

**Bit-identity contract.**  Every backend must produce byte-for-byte the
results of the numpy tier — distances, supplemental entries *in append
order*, settlement counters, hub-join minima.  The differential fuzz
adapters (``sief-batch-kernels``, ``sief-kernels-build``) and the parity
suites in ``tests/test_kernel_parity.py`` enforce this, so a tier switch
can never change an answer, only its speed.

**Selection.**  ``auto`` (the default) picks ``cext``, or ``numpy`` when
the C backend is unavailable; an explicit tier that is unavailable
raises :class:`~repro.exceptions.KernelTierError` instead of silently
degrading.
Precedence: :func:`set_tier` (the CLI's ``--kernels``) beats the
``SIEF_KERNELS`` environment variable beats ``auto``.  ``set_tier`` also
exports ``SIEF_KERNELS`` so forked/spawned build workers inherit the
choice.  Probing is lazy — importing this package never compiles
anything.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import KernelTierError

KERNEL_NAMES = ("bfs", "bitparallel", "relabel", "hub_join", "pll")
"""The dispatched kernels, in the order capability reports list them."""

TIERS = ("cext", "numpy")
"""Known tiers, in ``auto``'s preference order (fastest first)."""

CHOICES = ("auto",) + TIERS
"""Valid values for ``SIEF_KERNELS`` / ``sief --kernels``."""

HUB_JOIN_DTYPES = frozenset(
    (np.dtype(np.int32), np.dtype(np.int64), np.dtype(np.float64))
)
"""Frozen-label distance dtypes the compiled hub-join handles."""

RELABEL_DTYPES = frozenset((np.dtype(np.int32),))
"""Frozen-label distance dtypes the compiled relabel pass handles
(unweighted builds; other dtypes fall back to the numpy path)."""

_requested: Optional[str] = None
_resolution: Dict[str, Dict[str, Tuple[str, Optional[Callable]]]] = {}


def requested_tier() -> str:
    """The selected tier: ``set_tier`` > ``$SIEF_KERNELS`` > ``auto``."""
    if _requested is not None:
        return _requested
    env = os.environ.get("SIEF_KERNELS", "").strip().lower()
    if env:
        if env not in CHOICES:
            raise KernelTierError(
                f"SIEF_KERNELS={env!r} is not one of {'/'.join(CHOICES)}"
            )
        return env
    return "auto"


def set_tier(tier: Optional[str]) -> None:
    """Select a tier programmatically (``None`` reverts to env/auto).

    Exports ``SIEF_KERNELS`` too, so parallel build workers — forked or
    spawned — resolve the same tier as the parent process.
    """
    global _requested
    if tier is not None:
        tier = tier.strip().lower()
        if tier not in CHOICES:
            raise KernelTierError(
                f"kernel tier {tier!r} is not one of {'/'.join(CHOICES)}"
            )
        os.environ["SIEF_KERNELS"] = tier
    _requested = tier
    _resolution.clear()


@contextmanager
def use_tier(tier: Optional[str]) -> Iterator[None]:
    """Scoped :func:`set_tier` — the parity adapters' A/B switch."""
    global _requested
    prev_req = _requested
    prev_env = os.environ.get("SIEF_KERNELS")
    try:
        set_tier(tier)
        yield
    finally:
        _requested = prev_req
        if prev_env is None:
            os.environ.pop("SIEF_KERNELS", None)
        else:
            os.environ["SIEF_KERNELS"] = prev_env
        _resolution.clear()


def _resolve_all(req: str) -> Dict[str, Tuple[str, Optional[Callable]]]:
    if req != "numpy":
        from repro.kernels import cext_backend

        info = cext_backend.probe()
        if info.get("available"):
            return {
                name: ("cext", cext_backend.KERNELS[name])
                for name in KERNEL_NAMES
            }
        if req == "cext":
            raise KernelTierError(
                f"kernel tier {req!r} was requested but is unavailable: "
                f"{info.get('error', 'unknown reason')}"
            )
    # numpy, or auto without a working C backend
    return {name: ("numpy", None) for name in KERNEL_NAMES}


def resolve(name: str) -> Tuple[str, Optional[Callable]]:
    """``(tier, kernel)`` for one kernel under the current selection.

    ``kernel`` is ``None`` exactly when the caller should run its own
    numpy implementation.  Resolution is cached per requested tier, so
    the hot paths pay one dict lookup per call.
    """
    req = requested_tier()
    cache = _resolution.get(req)
    if cache is None:
        cache = _resolve_all(req)
        _resolution[req] = cache
    return cache[name]


def effective_tier() -> str:
    """The tier kernels actually resolve to right now (never ``auto``)."""
    return resolve("bfs")[0]


def reset() -> None:
    """Drop every cache and probe result (test isolation)."""
    global _requested
    _requested = None
    _resolution.clear()
    from repro.kernels import cext_backend

    cext_backend.reset()


def capability_report() -> Dict[str, Any]:
    """Everything ``sief kernels`` prints and ``env_metadata`` samples.

    Keys: ``requested`` (selection in force), ``effective`` (tier the
    kernels resolve to), ``backends`` (per-backend probe details —
    versions, compiler, errors), ``kernels`` (kernel name → tier).
    """
    from repro.kernels import cext_backend

    try:
        requested = requested_tier()
    except KernelTierError as exc:
        return {
            "requested": os.environ.get("SIEF_KERNELS"),
            "effective": None,
            "error": str(exc),
            "backends": {},
            "kernels": {},
        }
    report: Dict[str, Any] = {
        "requested": requested,
        "backends": {
            "cext": cext_backend.probe(),
            "numpy": {"available": True, "numpy_version": np.__version__},
        },
    }
    try:
        report["kernels"] = {
            name: resolve(name)[0] for name in KERNEL_NAMES
        }
        report["effective"] = effective_tier()
    except KernelTierError as exc:
        report["kernels"] = {}
        report["effective"] = None
        report["error"] = str(exc)
    return report
