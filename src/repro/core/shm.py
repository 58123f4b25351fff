"""Zero-copy publication of build inputs over POSIX shared memory.

Every pool of the parallel build (:mod:`repro.core.parallel`) receives
its read-only inputs through one named
:class:`multiprocessing.shared_memory.SharedMemory` segment rather than
by pickling the graph and labeling into each worker — an
``O(workers × index size)`` cost that would dwarf small builds and
double peak memory on large ones:

* the parent packs the six numpy arrays that fully describe the build
  inputs — CSR ``indptr``/``indices``, frozen labeling
  ``offsets``/``hubs``/``dists``, and the ordering's ``vertex_at``
  permutation — into a single segment at 64-byte aligned offsets;
* workers receive only a tiny picklable *spec* (segment name + per-array
  dtype/shape/offset), attach, and wrap zero-copy read-only views;
* the parent owns the segment's lifetime: ``close()`` + ``unlink()`` run
  in a ``finally`` so the segment disappears on success, worker
  exception, and ``KeyboardInterrupt`` alike.

Resource-tracker interplay: Python ≤3.12 registers shared memory on
*attach* as well as create, but pool children (fork *and* spawn) inherit
the parent's tracker process, so those registrations land in the same
name set the parent's ``create`` already populated — idempotent adds.
The parent's ``unlink()`` unregisters once, leaving the tracker clean;
workers must **not** unregister themselves (the first would strip the
parent's registration and the rest would crash the tracker with
``KeyError``).  If the parent is killed outright, the surviving tracker
unlinks the segment at shutdown — the backstop against leaks.

Segment names carry a ``sief-`` prefix so tests (and operators) can audit
``/dev/shm`` for leaks with a simple glob.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.labeling.label import Labeling
from repro.obs import hooks as _obs
from repro.order.ordering import VertexOrdering

_ALIGN = 64
"""Array offsets are rounded up to cache-line multiples."""

SEGMENT_PREFIX = "sief"
"""All segments are named ``sief-<pid>-<hex>`` — greppable in /dev/shm."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArena:
    """One named shared-memory segment holding several aligned arrays.

    Create with :meth:`publish` (parent, owns the segment) or
    :meth:`attach` (worker, borrows it).  ``arrays()`` returns zero-copy
    read-only numpy views into the segment's buffer; they stay valid
    until :meth:`close`.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: List[Tuple[str, str, Tuple[int, ...], int]],
        owner: bool,
    ) -> None:
        self._segment = segment
        self._layout = layout
        self._owner = owner
        self._closed = False

    # -- creation ----------------------------------------------------------

    @classmethod
    def publish(cls, arrays: Dict[str, np.ndarray]) -> "SharedArena":
        """Copy ``arrays`` into one fresh segment owned by the caller."""
        layout: List[Tuple[str, str, Tuple[int, ...], int]] = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _aligned(offset)
            layout.append((key, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{os.urandom(4).hex()}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(offset, 1)
        )
        arena = cls(segment, layout, owner=True)
        view = None
        try:
            for (key, dtype, shape, off), arr in zip(layout, arrays.values()):
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=off
                )
                view[...] = arr
        except BaseException:
            # The segment is visible in /dev/shm before the copy ends; a
            # KeyboardInterrupt here must not leave it behind, since the
            # caller never receives the arena and cannot unlink it.
            view = None  # close() refuses while a view exports the buffer
            arena.unlink()
            arena.close()
            raise
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.shm.segments_published").inc()
            reg.gauge("sief.shm.bytes").set(segment.size)
        return arena

    @classmethod
    def attach(cls, spec: dict) -> "SharedArena":
        """Attach to a published arena from its picklable :meth:`spec`.

        Attaching re-registers the name with the (shared) resource
        tracker, which is an idempotent set-add; only the publisher's
        ``unlink()`` unregisters (see module docstring).
        """
        segment = shared_memory.SharedMemory(name=spec["name"], create=False)
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.shm.attaches").inc()
        return cls(segment, list(spec["arrays"]), owner=False)

    # -- access ------------------------------------------------------------

    def spec(self) -> dict:
        """A small picklable description workers attach from."""
        return {"name": self._segment.name, "arrays": list(self._layout)}

    @property
    def name(self) -> str:
        """The segment's name (its /dev/shm filename)."""
        return self._segment.name

    @property
    def nbytes(self) -> int:
        """Size of the backing segment in bytes."""
        return self._segment.size

    def arrays(self) -> Dict[str, np.ndarray]:
        """Zero-copy read-only views of every packed array."""
        out: Dict[str, np.ndarray] = {}
        for key, dtype, shape, off in self._layout:
            view = np.ndarray(
                tuple(shape),
                dtype=np.dtype(dtype),
                buffer=self._segment.buf,
                offset=off,
            )
            view.flags.writeable = False
            out[key] = view
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if not self._closed:
            self._closed = True
            self._segment.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner only, idempotent)."""
        if self._owner:
            self._owner = False
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


# -- build-input packing ----------------------------------------------------


def publish_build_inputs(csr: CSRGraph, labeling: Labeling) -> SharedArena:
    """Publish everything a build worker needs as one shared segment.

    ``labeling`` must be frozen (the caller freezes it; freezing is
    idempotent, in place, and never changes query results).
    """
    if not labeling.frozen:
        raise ValueError("labeling must be frozen before shm publication")
    return SharedArena.publish(
        {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "offsets": labeling.offsets,
            "hubs": labeling.hubs_flat,
            "dists": labeling.dists_flat,
            "vertex_at": labeling.ordering.vertex_array(),
        }
    )


def attach_build_inputs(
    spec: dict,
) -> Tuple[SharedArena, CSRGraph, Labeling]:
    """Rebuild ``(arena, csr, labeling)`` from a published spec.

    The CSR and labeling wrap the shared buffers directly — no copies.
    The returned arena must stay referenced (and eventually closed) for
    as long as the views are in use.
    """
    arena = SharedArena.attach(spec)
    arrays = arena.arrays()
    csr = CSRGraph(arrays["indptr"], arrays["indices"])
    ordering = VertexOrdering(arrays["vertex_at"].tolist())
    labeling = Labeling.from_flat(
        ordering, arrays["offsets"], arrays["hubs"], arrays["dists"]
    )
    return arena, csr, labeling


def list_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live shared segments with our prefix (POSIX /dev/shm).

    The leak-check oracle for tests: after any build — successful,
    crashed, or interrupted — this must not list segments the finished
    build published.  Returns ``[]`` on platforms without /dev/shm.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-POSIX
        return []
    return sorted(e for e in entries if e.startswith(prefix + "-"))
