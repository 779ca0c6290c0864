"""One OpenBLAS thread for as long as a Monte Carlo call runs.

OpenBLAS splits a factorization over its own thread pool. Under the Monte
Carlo worker pool that oversubscribes the cores, and at large shapes the
split moves the last bits of a result with the thread count.
``one_blas_thread`` wraps a function so that every OpenBLAS the process
has loaded runs on one thread while the function runs. The setting is
process-wide, so overlapping calls share it: the first one in saves each
library's thread count and sets 1, the last one out restores the saved
counts, also when it raises.

The libraries are found once, among the shared objects already mapped
into the process (``/proc/self/maps``) after numpy's import, and driven
through OpenBLAS's own get/set-thread-count functions under their plain
or scipy-openblas names. Where none is found (another BLAS, or no
``/proc``) the wrapper returns the function unchanged.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

import numpy  # noqa: F401  (maps the OpenBLAS that numpy.linalg calls)

# (get, set) symbol pairs, tried in order: reference OpenBLAS, then the
# scipy-openblas builds in numpy's wheels (64- and 32-bit integers).
# openblas_set_num_threads_local is not used: some builds export it
# without making it thread-local.
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _loaded_openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into the process."""
    try:
        with open("/proc/self/maps") as maps:
            # address, perms, offset, device, inode, then the path if any
            fields = (line.rstrip("\n").split(maxsplit=5) for line in maps)
            paths = {f[5] for f in fields if len(f) == 6}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # only what is loaded
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_count = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                found.append((get, set_count))
                break
    return tuple(found)


class _OneThread:
    """Reference-counted one-thread scope over (get, set) thread-count pairs.

    The first entry saves each count and sets 1; the last exit restores
    the saved counts. Entries from any thread share the one scope, as the
    counts they drive are process-wide.
    """

    def __init__(self, libs: tuple):
        self.libs = libs
        self._lock = threading.Lock()
        self._active = 0
        self._saved: list = []

    def __enter__(self) -> None:
        with self._lock:
            if self._active == 0:
                self._saved = [get() for get, _ in self.libs]
                for _, set_count in self.libs:
                    set_count(1)
            self._active += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0:
                for (_, set_count), count in zip(self.libs, self._saved):
                    set_count(count)


_SCOPE = _OneThread(_loaded_openblas())


def one_blas_thread(fn):
    """fn, run with one thread in every OpenBLAS found (see the module docstring)."""
    if not _SCOPE.libs:
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _SCOPE:
            return fn(*args, **kwargs)

    return wrapper
