"""The ``cext`` kernel backend: ctypes bindings over a self-compiled .so.

The C source lives in ``_csrc/siefkernels.c`` and is compiled **on
demand** with the system C compiler (``$SIEF_KERNELS_CC``, else ``cc``,
else ``gcc``) into a content-addressed shared object under
``$SIEF_KERNELS_CACHE`` (default ``~/.cache/sief-kernels``).  The cache
key is the SHA-1 of the source plus the compiler command line, so
editing the C file or switching compilers recompiles automatically and
repeat imports pay only a ``dlopen``.

Everything crosses the boundary as raw typed pointers — no ``Python.h``
dependency, so the backend works with any CPython the container ships.
When no compiler is present (or ``SIEF_KERNELS_CC`` is set to ``none``)
:func:`probe` reports unavailability and the dispatcher falls through to
the numpy tier; nothing in this module raises at import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

_SRC = os.path.join(os.path.dirname(__file__), "_csrc", "siefkernels.c")

_lock = threading.Lock()
_probe_result: Optional[Dict[str, Any]] = None
_lib = None

_i64 = ctypes.c_int64
_p_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_p_i32 = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_p_u64 = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_p_u8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_p_f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_U64 = np.zeros(0, dtype=np.uint64)
_EMPTY_U8 = np.zeros(0, dtype=np.uint8)


def _compiler() -> Optional[str]:
    cc = os.environ.get("SIEF_KERNELS_CC")
    if cc is not None:
        cc = cc.strip()
        if cc == "" or cc.lower() == "none":
            return None  # explicit opt-out (used by the fallback tests)
        return cc
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> str:
    return os.environ.get("SIEF_KERNELS_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "sief-kernels"
    )


def _build_library(cc: str) -> Tuple[str, bool]:
    """Compile (or reuse) the shared object; returns ``(path, cached)``."""
    with open(_SRC, "rb") as fh:
        source = fh.read()
    argv = [cc, "-O3", "-fPIC", "-shared"]
    key = hashlib.sha1(source + b"\0" + "\0".join(argv).encode()).hexdigest()
    cache = _cache_dir()
    so_path = os.path.join(cache, f"siefkernels-{key[:16]}.so")
    if os.path.exists(so_path):
        return so_path, True
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            argv + ["-o", tmp, _SRC],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path, False


def _bind(lib: ctypes.CDLL) -> None:
    lib.sief_bfs.restype = ctypes.c_int32
    lib.sief_bfs.argtypes = [
        _i64, _p_i64, _p_i32, _i64, _i64, _i64, ctypes.c_int32, _p_u8, _p_i32,
    ]
    lib.sief_bitparallel.restype = _i64
    lib.sief_bitparallel.argtypes = [
        _i64, _p_i64, _p_i32, _i64, _p_i64,
        _i64, _p_i64, _p_u64, ctypes.c_int32, _p_u64, _p_i32,
    ]
    lib.sief_relabel.restype = ctypes.c_int32
    lib.sief_relabel.argtypes = [
        _i64, _p_i64, _p_i32, _i64, _i64,
        _i64, _i64, _p_i64, _p_i64, _i64, _p_i64, _p_i64,
        _p_i64, _p_i32, _p_i32, _p_i64,
        _i64, _p_i64, _p_i64, _p_i64, _p_i64,
    ]
    for suffix, ptr in (("i32", _p_i32), ("i64", _p_i64), ("f64", _p_f64)):
        fn = getattr(lib, f"sief_hub_join_{suffix}")
        fn.restype = ctypes.c_int32
        fn.argtypes = [_p_i64, _p_i32, ptr, _i64, _p_i64, _p_i64, _p_f64]
    lib.sief_pll_build.restype = ctypes.c_void_p
    lib.sief_pll_build.argtypes = [_i64, _p_i64, _p_i32, _p_i64, _p_i64]
    lib.sief_pll_export.restype = ctypes.c_int32
    lib.sief_pll_export.argtypes = [
        ctypes.c_void_p, _p_i64, _p_i32, _p_i32,
    ]
    lib.sief_pll_free.restype = None
    lib.sief_pll_free.argtypes = [ctypes.c_void_p]


def probe() -> Dict[str, Any]:
    """Detect (and if needed compile) the C extension; cached per process.

    Returns a dict with ``available`` plus diagnostic fields surfaced by
    :func:`repro.kernels.capability_report`: the compiler used, the
    shared-object path, whether the compile was a cache hit, and the
    failure reason when unavailable.
    """
    global _probe_result, _lib
    with _lock:
        if _probe_result is not None:
            return _probe_result
        cc = _compiler()
        if cc is None:
            _probe_result = {
                "available": False,
                "compiler": None,
                "error": "no C compiler (set SIEF_KERNELS_CC to override)",
            }
            return _probe_result
        try:
            so_path, cached = _build_library(cc)
            lib = ctypes.CDLL(so_path)
            _bind(lib)
        except Exception as exc:  # compile or dlopen failure → fall through
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError):
                detail = (exc.stderr or "").strip()[:500]
            _probe_result = {
                "available": False,
                "compiler": cc,
                "error": f"{type(exc).__name__}: {exc} {detail}".strip(),
            }
            return _probe_result
        _lib = lib
        _probe_result = {
            "available": True,
            "compiler": cc,
            "library": so_path,
            "compile_cached": cached,
        }
        return _probe_result


def reset() -> None:
    """Forget the probe result (tests re-probe under different env vars)."""
    global _probe_result, _lib
    with _lock:
        _probe_result = None
        _lib = None


# ---------------------------------------------------------------------------
# kernel wrappers (contract documented in repro.kernels)
# ---------------------------------------------------------------------------


def bfs(indptr, indices, source, avoid0, avoid1, allowed, dist) -> None:
    n = len(indptr) - 1
    if allowed is None:
        has_allowed, allowed_u8 = 0, _EMPTY_U8
    else:
        has_allowed = 1
        allowed_u8 = np.ascontiguousarray(allowed, dtype=np.uint8)
    rc = _lib.sief_bfs(
        n, indptr, indices, source, avoid0, avoid1, has_allowed,
        allowed_u8, dist,
    )
    if rc != 0:
        raise MemoryError("sief_bfs scratch allocation failed")


def bitparallel(indptr, indices, roots, mask_pos, mask_keep, needed, dist):
    n = len(indptr) - 1
    if mask_pos is None:
        mask_pos, mask_keep = _EMPTY_I64, _EMPTY_U64
    if needed is None:
        has_needed, needed_u64 = 0, _EMPTY_U64
    else:
        has_needed, needed_u64 = 1, needed
    settled = _lib.sief_bitparallel(
        n, indptr, indices, len(roots), roots,
        len(mask_pos), mask_pos, mask_keep, has_needed, needed_u64,
        dist.reshape(-1),
    )
    if settled < 0:
        raise MemoryError("sief_bitparallel scratch allocation failed")
    return int(settled)


def relabel(
    indptr, indices, avoid0, avoid1,
    roots, root_ranks, live, targets, target_ranks,
    L_offsets, L_hubs, L_dists, vertex_at,
):
    n = len(indptr) - 1
    cap = 4 * (len(roots) + len(targets)) + 64
    stats = np.zeros(2, dtype=np.int64)
    while True:
        out_t = np.empty(cap, dtype=np.int64)
        out_rank = np.empty(cap, dtype=np.int64)
        out_dist = np.empty(cap, dtype=np.int64)
        rc = _lib.sief_relabel(
            n, indptr, indices, avoid0, avoid1,
            len(roots), live, roots, root_ranks,
            len(targets), targets, target_ranks,
            L_offsets, L_hubs, L_dists, vertex_at,
            cap, out_t, out_rank, out_dist, stats,
        )
        if rc == 0:
            m = int(stats[0])
            return out_t[:m], out_rank[:m], out_dist[:m], int(stats[1])
        if rc == -1:
            cap *= 2
            continue
        raise MemoryError("sief_relabel scratch allocation failed")


def hub_join(offsets, hubs, dists, src, dst, out) -> None:
    if dists.dtype == np.int32:
        fn = _lib.sief_hub_join_i32
    elif dists.dtype == np.int64:
        fn = _lib.sief_hub_join_i64
    elif dists.dtype == np.float64:
        fn = _lib.sief_hub_join_f64
    else:  # pragma: no cover - dispatcher checks HUB_JOIN_DTYPES first
        raise TypeError(f"unsupported label dtype {dists.dtype}")
    fn(offsets, hubs, dists, len(src), src, dst, out)


def pll(indptr, indices, vertex_at):
    """Full PLL build; returns the frozen flat ``(offsets, hubs, dists)``."""
    n = len(indptr) - 1
    total = np.zeros(1, dtype=np.int64)
    handle = _lib.sief_pll_build(n, indptr, indices, vertex_at, total)
    if not handle:
        raise MemoryError("sief_pll_build allocation failed")
    try:
        offsets = np.empty(n + 1, dtype=np.int64)
        hubs = np.empty(int(total[0]), dtype=np.int32)
        dists = np.empty(int(total[0]), dtype=np.int32)
        _lib.sief_pll_export(handle, offsets, hubs, dists)
    finally:
        _lib.sief_pll_free(handle)
    return offsets, hubs, dists


KERNELS = {
    "bfs": bfs,
    "bitparallel": bitparallel,
    "relabel": relabel,
    "hub_join": hub_join,
    "pll": pll,
}
