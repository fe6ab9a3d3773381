"""Host-speed reference: a fixed pure-Python kernel timed next to the work.

The machine the benchmark was built on runs each vCPU at a speed that changes
by up to about 1.6x from one second to the next, and the two vCPUs change
independently.  Every process of a run is pinned to one CPU, and the
reference kernel is timed on it right before and after each measured
interval.  A time is then rescaled to the reference speed:

    t_ref = t * REFERENCE_S / (mean of the two adjacent kernel times)

The kernel imports nothing, so it can run at interpreter start, before numpy.
"""

from __future__ import annotations

import os
import time

# median pass time on the reference machine (2-vCPU x86-64 Linux VM,
# Python 3.11); it only fixes the scale of rescaled times
REFERENCE_S = 0.0055


def _one_pass() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += i * 0.5
    return time.perf_counter() - t0


def reference_s() -> float:
    """Time the reference kernel: the median of three passes, in seconds.

    The median drops a pass that an interrupt or a cold cache slowed.
    """
    return sorted(_one_pass() for _ in range(3))[1]


def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Rescale a time measured between two kernel timings to the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (kernel_before + kernel_after)


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the children it starts later) to its lowest usable CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
