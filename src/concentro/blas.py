"""One BLAS thread for the norm solvers.

The alternating solver makes thousands of small GEMMs (about a millisecond
each) and the exact norms small SVDs.  A threaded BLAS splits each of them
over its threads and waits for the slowest, so on a machine whose cores are
shared the time of a call follows the busiest core while the work gains
nothing from the second thread.  ``single_threaded`` pins numpy's OpenBLAS
to one thread for its duration and then restores the previous count; with
any other BLAS, or where the library cannot be found, it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np  # noqa: F401  (loads the BLAS that is looked up below)

_lock = threading.Lock()
_depth = 0
_saved = 1


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def single_threaded():
    """OpenBLAS runs on one thread inside the block.  Nested and concurrent
    blocks share one count: the first to enter saves the thread count, the
    last to leave restores it."""
    global _depth, _saved
    api = _openblas()
    if api is None:
        yield
        return
    get, put = api
    with _lock:
        if _depth == 0:
            _saved = get()
            put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                put(_saved)
