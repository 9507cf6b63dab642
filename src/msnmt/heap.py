"""Keep the heap memory that training frees, for the next batch to reuse.

Training holds one backward tape at a time, thousands of small numpy arrays
(26.9 MB for the largest multi-localp-long batch), and frees it once its
backward pass returns.  Under glibc's dynamic thresholds, ``free`` then
trims that memory from the top of the heap and the next batch faults it
back in: training single-none took 356k minor page faults, against 26.0k
with two tapes kept alive and 2.1k with the setting below (seed 41; glibc
2.36, 2-vCPU Xeon guest).

``keep_freed_heap`` sets, through glibc's ``mallopt``, a trim threshold of
64 MiB and an mmap threshold of 32 MiB, the ceiling glibc's dynamic one
would reach.  Setting either one turns the dynamic thresholds off, so the
trim threshold alone would freeze the mmap threshold at 128 KiB and map
every larger array afresh (multi-localp-long: 28.2k faults, against 9.1k
with both).  Unlike ``blas.one_thread`` this cannot be undone: glibc has no
getter for either value, so it holds for the rest of the process.  Without
glibc, or where ``mallopt`` is not found, nothing is set.
"""

import ctypes
import functools

# mallopt parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_BYTES = 64 << 20
MMAP_BYTES = 32 << 20


@functools.lru_cache(maxsize=None)
def glibc_mallopt():
    """glibc's ``mallopt(param, value)``, or None outside glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return None
    fn = getattr(libc, "mallopt", None)
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


def keep_freed_heap():
    """Set the trim and mmap thresholds above; a no-op without glibc."""
    mallopt = glibc_mallopt()
    if mallopt is None:
        return
    mallopt(M_TRIM_THRESHOLD, TRIM_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_BYTES)
