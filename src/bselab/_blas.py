"""Pin the OpenBLAS that numpy loads to one thread.

bselab parallelises only through a campaign's `threads` workers. An OpenBLAS
pool under them oversubscribes the cores, and its thread count changes the
summation order inside LAPACK and so the last bits of the partial-transpose
eigenvalues. The count is process-global, so one pin covers every worker, and
overlapping pins share it.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from functools import cache
from typing import Callable, NamedTuple

from numpy.linalg import _umath_linalg


class _OpenBLAS(NamedTuple):
    library: str
    get_config: Callable[[], bytes]
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@cache
def _openblas() -> tuple[_OpenBLAS, ...]:
    """Each loaded OpenBLAS once. numpy wheels bundle a scipy-openblas
    build, which exports `scipy_openblas_*` (suffixed `64_` in the
    64-bit-integer build) from `libscipy_openblas*`; a system build exports
    `openblas_*`. bselab's BLAS/LAPACK calls go through numpy's
    `_umath_linalg`; dlsym on its handle resolves through its dependencies
    to the OpenBLAS it loads."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return ()
    found = {}
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            try:
                get_config, get_n, set_n = (
                    getattr(lib, f"{prefix}openblas_{name}{suffix}")
                    for name in ("get_config", "get_num_threads", "set_num_threads"))
            except AttributeError:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_n.argtypes, get_n.restype = [], ctypes.c_int
            set_n.argtypes, set_n.restype = [ctypes.c_int], None
            found.setdefault(ctypes.cast(get_n, ctypes.c_void_p).value, _OpenBLAS(
                f"lib{prefix}openblas{suffix}", get_config, get_n, set_n))
    return tuple(found.values())


def openblas_threads() -> list[dict]:
    """Each loaded OpenBLAS: library, build string and current thread count."""
    return [{"library": lib.library,
             "config": lib.get_config().decode(errors="replace"),
             "num_threads": lib.get_num_threads()}
            for lib in _openblas()]


_pin_lock = threading.Lock()
#: one entry per pin in force, each the thread counts the outermost pin saved
_pins: list[list[int]] = []


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS on one thread. Pins may
    overlap, on any threads: the first to enter saves the thread counts and
    the last to exit restores them. Does nothing where no OpenBLAS exports
    the calls."""
    libs = _openblas()
    with _pin_lock:
        _pins.append(_pins[0] if _pins else [lib.get_num_threads() for lib in libs])
        for lib in libs:
            lib.set_num_threads(1)
    try:
        yield
    finally:
        with _pin_lock:
            saved = _pins.pop()
            if not _pins:
                for lib, n in zip(libs, saved):
                    lib.set_num_threads(n)
