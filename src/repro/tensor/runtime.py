"""Process runtime policy: one BLAS thread and a heap that stays mapped.

:func:`runtime_policy` applies the policy the first time it is called,
which :mod:`repro.tensor` does on import (spawned :mod:`repro.parallel`
workers import it too, so they get the same policy).  It has no knob;
later calls report what was applied, and run records stamp that into their
``run_start`` event.

* **BLAS threads.**  numpy's bundled OpenBLAS is pinned to one thread via
  ``scipy_openblas_set_num_threads64_``.  A threaded ``dgemm`` splits its
  reduction differently from a serial one, so bit-identical training (and
  the committed run records) would otherwise depend on ``nproc`` and
  ``OPENBLAS_NUM_THREADS``.
* **Allocator.**  On glibc, ``mallopt`` raises ``M_MMAP_THRESHOLD`` to
  32 MiB and ``M_TRIM_THRESHOLD`` to 512 MiB.  The autograd tape frees and
  re-allocates the same few hundred MiB every epoch; with the defaults glibc
  returns that memory to the kernel after each epoch and page-faults it back
  in during the next.  See docs/PERF.md, "Gradient ownership and the
  allocator policy".

On any other platform (or numpy build) the corresponding field is ``None``.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

__all__ = ["blas_threads", "runtime_policy"]

# glibc <malloc.h> parameter numbers.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 512 << 20

_policy: Optional[Dict[str, Any]] = None
_blas_get: Optional[Callable[[], int]] = None


def _bundled_openblas() -> Optional[ctypes.CDLL]:
    """numpy's own OpenBLAS (``numpy.libs/libscipy_openblas64_*``), if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def _pin_blas() -> Optional[int]:
    global _blas_get
    lib = _bundled_openblas()
    if lib is None:
        return None
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    _blas_get = lib.scipy_openblas_get_num_threads64_
    _blas_get.argtypes, _blas_get.restype = [], ctypes.c_int
    set_threads(1)
    return blas_threads()


def _glibc_version() -> Optional[str]:
    try:
        found = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None
    return found.split()[-1] if found and found.startswith("glibc") else None


def _keep_heap_mapped() -> Optional[Dict[str, int]]:
    """Raise the glibc thresholds; ``None`` unless every ``mallopt`` returned 1."""
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    statuses = [
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
    ]
    if statuses != [1, 1]:
        return None
    return {"mmap_threshold": MMAP_THRESHOLD_BYTES, "trim_threshold": TRIM_THRESHOLD_BYTES}


def runtime_policy() -> Dict[str, Any]:
    """Apply the policy (once per process) and return what was applied.

    Keys: ``blas_threads`` (int, or ``None`` without numpy's bundled
    OpenBLAS), ``glibc`` (version string or ``None``) and ``malloc`` (the
    thresholds set, or ``None`` off glibc or when ``mallopt`` refused them).
    """
    global _policy
    if _policy is None:
        glibc = _glibc_version()
        _policy = {
            "blas_threads": _pin_blas(),
            "glibc": glibc,
            "malloc": _keep_heap_mapped() if glibc else None,
        }
    return dict(_policy)


def blas_threads() -> Optional[int]:
    """Threads numpy's bundled OpenBLAS uses right now (``None`` if not bundled)."""
    return None if _blas_get is None else int(_blas_get())
