"""``repro.serve`` — the asyncio distance-query serving layer.

A long-lived daemon (``sief serve``) that serves a ``.siefseg`` segment
store demand-paged through :class:`~repro.core.lazy.PagedSIEFIndex`
(memory-mapped, so N worker processes share one physical copy), answers failure distance queries
over HTTP/JSON plus a length-prefixed binary batch endpoint, and
coalesces concurrent in-flight requests into the vectorized
:meth:`~repro.core.query.SIEFQueryEngine.batch_query` path through a
micro-batching queue.  See ``docs/serving.md`` for the protocol spec and
the operational runbook.
"""

from repro.serve.batcher import LoadShedError, MicroBatcher
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.inprocess import InProcessServer
from repro.serve.protocol import (
    BINARY_MAGIC,
    TRACE_TRAILER_BYTES,
    ProtocolError,
    decode_batch_request,
    decode_batch_response,
    encode_batch_request,
    encode_batch_response,
)
from repro.serve.server import ServeConfig, SIEFServer

__all__ = [
    "AsyncServeClient",
    "BINARY_MAGIC",
    "TRACE_TRAILER_BYTES",
    "InProcessServer",
    "LoadShedError",
    "MicroBatcher",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "SIEFServer",
    "decode_batch_request",
    "decode_batch_response",
    "encode_batch_request",
    "encode_batch_response",
]
