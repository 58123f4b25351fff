"""Request-scoped context: trace ids, stage decomposition, fault attribution.

Aggregate histograms answer "how slow is the service"; they cannot
answer "why was *this* request slow".  A :class:`RequestContext` is the
unit of that second question: one per served request, carrying

* a **trace id** — accepted from the client (W3C ``traceparent`` header,
  an ``X-Trace-Id`` header, or the optional trailer of an SFB1 binary
  frame) or generated, and echoed back on every response so one id
  correlates the client log, the server event log, the batch flush that
  computed the answer, and any LRU paging activity it triggered;
* a **stage decomposition** — named wall-clock stages (``parse``,
  ``queue``, ``batch``, ``compute``, ``serialize``) accumulated as the
  request moves through the serving pipeline.  Stages are disjoint by
  construction, so their sum is ≤ the request's total wall time;
* a **page-fault tally** — demand-paged index misses
  (``sief.lazy.cache.misses``) attributed to the requests that were
  waiting on the flush that faulted the case in.

The attribution seam is a :mod:`contextvars` scope rather than a
parameter: the micro-batcher computes one ``batch_query`` for *many*
requests at once, and the paged index deep inside the engine cannot
take a per-request argument without changing query signatures (and the
bit-identity contract says the engine must not know it is being
traced).  During a flush the batcher enters :func:`scope` with every
live context in the group; a cache miss calls
:func:`attribute_page_fault`, which charges every request in scope —
each of them was waiting on that fault.  With no scope entered (the
default everywhere outside a flush), the cost of an attribution point
is one ``ContextVar.get`` returning ``None``.

Nothing in this module imports the rest of the library, so any layer
(including :mod:`repro.core.lazy`) may depend on it.
"""

from __future__ import annotations

import os
import re
import time
from contextvars import ContextVar
from typing import Dict, Optional, Tuple

_TRACEPARENT_RE = re.compile(
    r"^[0-9a-f]{2}-(?P<trace_id>[0-9a-f]{32})-[0-9a-f]{16}-[0-9a-f]{2}$"
)
_TRACE_ID_RE = re.compile(r"^[0-9A-Za-z_\-]{1,64}$")


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def parse_traceparent(value: Optional[str]) -> Optional[str]:
    """The trace id out of a W3C ``traceparent`` header, or ``None``.

    Accepts exactly the 4-field form ``version-traceid-spanid-flags``
    with lowercase hex fields; an all-zero trace id is invalid per the
    spec and rejected.  Anything malformed returns ``None`` (the server
    generates an id instead of failing the request over a bad header).
    """
    if not value:
        return None
    match = _TRACEPARENT_RE.match(value.strip())
    if match is None:
        return None
    trace_id = match.group("trace_id")
    if trace_id == "0" * 32:
        return None
    return trace_id


def valid_trace_id(value: Optional[str]) -> bool:
    """True iff ``value`` is acceptable as a client-supplied trace id.

    Deliberately broader than W3C hex (an ``X-Trace-Id`` header may
    carry any short opaque token) but bounded: 1–64 characters from
    ``[0-9A-Za-z_-]``, so ids embed safely in JSON, log lines and
    Prometheus label values without escaping surprises.
    """
    return bool(value) and _TRACE_ID_RE.match(value) is not None


class RequestContext:
    """Per-request trace state: id, stage timings, page-fault tally.

    Mutable and single-owner: exactly one request's handler (and the
    batcher flush acting on its behalf) writes to it.  ``meta`` is a
    free-form dict for route/status/batch annotations the event log and
    debug endpoints surface.
    """

    __slots__ = (
        "trace_id",
        "started",
        "stages",
        "pages_faulted",
        "meta",
        "_clock",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        clock=time.perf_counter,
    ) -> None:
        self.trace_id = trace_id if trace_id else new_trace_id()
        self._clock = clock
        self.started: float = clock()
        self.stages: Dict[str, float] = {}
        self.pages_faulted = 0
        self.meta: Dict[str, object] = {}

    # -- stage accounting ---------------------------------------------------

    def add_stage(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into stage ``name`` (repeats add up)."""
        if seconds < 0:
            seconds = 0.0
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def stage(self, name: str) -> "_Stage":
        """Time a block into stage ``name`` (records even on exception)."""
        return _Stage(self, name)

    def stage_total(self) -> float:
        """Sum of all recorded stages (≤ wall time by construction)."""
        return sum(self.stages.values())

    def elapsed(self) -> float:
        """Wall-clock seconds since the context was created."""
        return self._clock() - self.started

    # -- page faults --------------------------------------------------------

    def note_page_fault(self, n: int = 1) -> None:
        self.pages_faulted += n

    # -- export -------------------------------------------------------------

    def decomposition(self) -> dict:
        """The latency decomposition as a JSON-friendly dict."""
        return {
            "trace_id": self.trace_id,
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "pages_faulted": self.pages_faulted,
        }

    def __repr__(self) -> str:
        return (
            f"RequestContext({self.trace_id!r}, "
            f"stages={sorted(self.stages)}, "
            f"pages_faulted={self.pages_faulted})"
        )


class _Stage:
    """The context manager :meth:`RequestContext.stage` returns.

    A class rather than a generator: it runs twice per served request.
    """

    __slots__ = ("ctx", "name", "t0")

    def __init__(self, ctx: RequestContext, name: str) -> None:
        self.ctx = ctx
        self.name = name

    def __enter__(self) -> None:
        self.t0 = self.ctx._clock()

    def __exit__(self, *exc) -> None:
        ctx = self.ctx
        ctx.add_stage(self.name, ctx._clock() - self.t0)


_scope: "ContextVar[Optional[Tuple[RequestContext, ...]]]" = ContextVar(
    "sief_request_scope", default=None
)


def current_contexts() -> Optional[Tuple[RequestContext, ...]]:
    """The contexts in the active attribution scope, or ``None``."""
    return _scope.get()


class scope:
    """Attribute library-level events inside the block to ``contexts``.

    The micro-batcher enters this around each per-group ``batch_query``
    call with every request waiting on that group; nested scopes shadow
    (innermost wins) and the previous scope is restored on exit.
    """

    __slots__ = ("contexts", "token")

    def __init__(self, *contexts: RequestContext) -> None:
        self.contexts = contexts

    def __enter__(self) -> None:
        self.token = _scope.set(self.contexts)

    def __exit__(self, *exc) -> None:
        _scope.reset(self.token)


def attribute_page_fault(n: int = 1) -> None:
    """Charge ``n`` demand-paging faults to every request in scope.

    Called by the lazy/paged index on a cache miss.  A fault during a
    batch flush blocked *every* request in that flush, so each one is
    charged — the tally answers "did paging make this request slow",
    not "how many distinct segment reads happened" (the
    ``sief.lazy.cache.misses`` counter answers that).  No scope, no
    cost beyond one ``ContextVar.get``.
    """
    contexts = _scope.get()
    if contexts:
        for ctx in contexts:
            ctx.note_page_fault(n)
