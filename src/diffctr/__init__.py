"""diffctr: generative pretraining for CTR models via absorbing-mask corruption.

Two-stage training: mask-corruption generative pretraining over
(features, label) records, then full parameter transfer into a
supervised fine-tune on the click label. Includes exact small-scale
oracles for every closed-form identity the pipeline relies on.
"""

import ctypes
import os

import numpy as np

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h). By default glibc unmaps each
# large freed array and trims the heap top, so each B=2048 fine-tune step
# (~200 MB of temporaries) and each 4096-row scoring chunk page-faults its
# arrays in again. 32 MiB is glibc's 64-bit ceiling for the mmap threshold
# and covers the largest array at the default sizes (18.9 MB); fixing
# either value also stops glibc's history-dependent threshold adjustment.
# One arena: ctr_score's worker threads then reuse the heap that
# fine-tuning freed instead of each growing an arena of its own.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MALLOPT_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30), (_M_ARENA_MAX, 1))


def _fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds and its arena count; True if all were set.

    Returns False, raising nothing, on other C libraries or where mallopt
    refuses a value. Once set, freed memory stays in the process for
    reuse, so RSS holds at the run's high-water mark; results are unchanged.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) for param, value in _MALLOPT_SETTINGS)


_ALLOCATOR = "glibc-fixed" if _fix_malloc_thresholds() else "default"


# numpy's wheels bundle OpenBLAS as scipy-openblas in the numpy.libs
# directory beside the package. By default it runs each call on every CPU;
# ctr_score, sft_loss and adam_step already run a thread per CPU, each
# driving its own BLAS calls, so those threads would contend for the
# CPUs. An explicit OPENBLAS_NUM_THREADS is overridden too: the parallel
# paths are built for one BLAS thread per call, and results do not
# depend on it.


def _bundled_blas():
    """numpy's bundled scipy-openblas library, or None where numpy bundles none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = min(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
        return ctypes.CDLL(os.path.join(libs, name))
    except (OSError, ValueError):  # no directory, no library
        return None


def _pin_blas_threads():
    """Set numpy's bundled OpenBLAS to one thread; return its thread count read back.

    Returns None, raising nothing and changing nothing, where numpy
    bundles no scipy-openblas library or the library lacks the calls.
    """
    try:
        blas = _bundled_blas()
        set_threads = blas.scipy_openblas_set_num_threads64_
        get_threads = blas.scipy_openblas_get_num_threads64_
    except AttributeError:  # no library, or no symbol
        return None
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    get_threads.restype = ctypes.c_int
    set_threads(1)
    return get_threads()


def _blas_core() -> str:
    """The kernel the bundled OpenBLAS runs on this CPU (SkylakeX, Haswell, ...), or "unknown".

    OpenBLAS picks it at load time, or OPENBLAS_CORETYPE names it; GEMM
    bits can differ between kernels.
    """
    try:
        corename = _bundled_blas().scipy_openblas_get_corename64_
    except AttributeError:  # no library, or no symbol
        return "unknown"
    corename.argtypes = ()
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _simd_targets() -> str:
    """numpy's enabled SIMD dispatch targets, space-separated, or "unknown".

    The CPU and NPY_ENABLE_CPU_FEATURES decide them, and numpy's loops can
    sum in another order under each.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # a numpy without these tables
        return "unknown"
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


_BLAS_THREADS = _pin_blas_threads()
_BLAS_CORE = _blas_core()
_SIMD = _simd_targets()
