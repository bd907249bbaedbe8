"""One BLAS thread per process: cap every loaded OpenBLAS at a single thread.

NumPy and SciPy wheels each bundle their own OpenBLAS
(``numpy.libs/libscipy_openblas64_*.so`` and
``scipy.libs/libscipy_openblas-*.so``), and each copy keeps its own thread
pool.  Generated programs interleave NumPy ``@`` (GEMM) with SciPy solves
(SYSV, POSV), so with default threading one library's idle threads spin
while the other library runs: at n = 200 a GEMM + SYSV + GEMM sequence took
12-15 ms with default threads and 4.5-4.8 ms with one thread per library
on a 2-CPU machine (min of 5 x 50 calls).  A service worker is one process
per core, so its parallelism comes from the number of workers, not from
BLAS threads -- the setting under which Linnea (Barthels, Psarras &
Bientinesi, ACM TOMS 2021) times its generated code.

:func:`limit_blas_threads` finds every OpenBLAS mapped into the process and
sets it to one thread through its exported ``*set_num_threads*`` symbol;
:func:`blas_threads` reads the counts back.  Where no OpenBLAS is found
(another BLAS vendor, a platform without ``/proc/self/maps``) both are
silent no-ops.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, List, Tuple

# Imported for its side effect: SciPy loads its own OpenBLAS copy only once
# scipy.linalg is imported, and both copies must be mapped to be found.
import scipy.linalg  # noqa: F401

__all__ = ["blas_threads", "limit_blas_threads"]

#: Symbol prefixes of the thread-count setters and getters: the renamed
#: ``scipy_openblas`` builds of the NumPy/SciPy wheels, then plain OpenBLAS.
_PREFIXES = ("scipy_openblas", "openblas")

#: Symbol suffixes: the ILP64 build NumPy bundles, then the LP64 one.
_SUFFIXES = ("64_", "")


def _openblas_libraries() -> List[Tuple[str, ctypes.CDLL]]:
    """``(file name, handle)`` of every OpenBLAS already mapped into this
    process (never loads a new one)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            }
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            handle = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        libraries.append((os.path.basename(path), handle))
    return libraries


def _symbol(handle: ctypes.CDLL, verb: str, argtypes: list, restype):
    """The library's ``<prefix>_<verb>_num_threads<suffix>`` function with
    its C signature declared, or ``None`` when it exports none of the
    names."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(handle, f"{prefix}_{verb}_num_threads{suffix}", None)
            if function is not None:
                function.argtypes = argtypes
                function.restype = restype
                return function
    return None


def blas_threads() -> Dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library file name."""
    counts = {}
    for name, handle in _openblas_libraries():
        getter = _symbol(handle, "get", [], ctypes.c_int)
        if getter is not None:
            counts[name] = getter()
    return counts


def limit_blas_threads() -> Dict[str, int]:
    """Set every loaded OpenBLAS to one thread; return :func:`blas_threads`.

    A library already at one thread is left alone: in a process forked
    after its parent was limited, setting the count would rebuild
    OpenBLAS's thread pool, whose new threads spin while the worker boots.
    """
    for _, handle in _openblas_libraries():
        getter = _symbol(handle, "get", [], ctypes.c_int)
        setter = _symbol(handle, "set", [ctypes.c_int], None)
        if setter is not None and (getter is None or getter() != 1):
            setter(1)
    return blas_threads()
