"""Distributionally robust multi-agent chute-mapping toolkit."""

import ctypes
import sys

# glibc's malloc maps a block above its mmap threshold (128 KiB at start)
# with fresh pages, raises that threshold to the size of each such block
# freed, and hands free memory at the heap top back to the kernel once it
# exceeds the trim threshold. So whether the 0.1-2 MiB temporaries of a
# batched forward or simulator step reuse warm heap memory or page-fault
# in anew on every step depended on what the process had run before: one
# evaluate_policy call took ~6,700 minor faults and 1.3-1.5x its time in
# some stretches of a run, none in others. Fixing both thresholds, which
# also stops their adjustment, keeps blocks up to 32 MiB on the heap and
# at most 64 MiB of free memory at its top.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_warm() -> None:
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_heap_warm()
