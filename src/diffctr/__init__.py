"""diffctr: generative pretraining for CTR models via absorbing-mask corruption.

Two-stage training: mask-corruption generative pretraining over
(features, label) records, then full parameter transfer into a
supervised fine-tune on the click label. Includes exact small-scale
oracles for every closed-form identity the pipeline relies on.
"""

import ctypes

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
