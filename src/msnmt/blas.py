"""Hold numpy's BLAS to one thread for the span of a call.

The matrix products this program makes are small: at hidden size 64 and
batch 16 the largest is a [16, 128] x [128, 256] decoder-gate product.
OpenBLAS splits products of that size across its thread pool, and between
products its workers spin waiting for the next one.  A second thread does
not make training faster at these sizes; it makes every split product wait
for a second free CPU, so training slows whenever anything else runs.  On a
2-vCPU KVM guest (Xeon, Sapphire Rapids) the multi-localp-long training run
took 9-11 s with one BLAS thread or two, at half the CPU time with one; with
a busy loop on the other vCPU it took 16.7 s with two and 10.1 s with one.

``one_thread`` sets the OpenBLAS pool to one thread and puts the previous
count back on exit.  Only OpenBLAS is handled, found among the shared objects
the process has mapped; with any other BLAS, or where none is found, it does
nothing.  The count is process-wide, so two threads that train at once share
it.
"""

import ctypes
import functools
from contextlib import contextmanager

import numpy as np  # noqa: F401  (loads the BLAS looked for below)

# Exported names of the thread-count functions across OpenBLAS builds: plain,
# 64-bit-integer ("64_") and the scipy-openblas wheels numpy ships with.
_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_")


@functools.lru_cache(maxsize=None)
def openblas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextmanager
def one_thread():
    """Run the body with a one-thread OpenBLAS pool; restore the count after."""
    fns = openblas_threads()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
