"""Machine-speed scaling for timings taken on a shared host.

Other tenants of a shared host slow this process by up to ~40% for
seconds at a time, which no count of repeats averages away.  The
benchmark therefore times a fixed pure-Python kernel right before and
right after each short stretch of work and reports the stretch scaled to
the speed at which the kernel takes REFERENCE_KERNEL_S.  A stretch longer
than SCALE_MAX_S spans several of those swings, so the samples at its
ends say little about it; it counts as measured.  Standard library only,
so set-up can be scaled before numpy is imported.
"""

import statistics
import time

# seconds the kernel takes on an unloaded 2.1 GHz x86-64 core
REFERENCE_KERNEL_S = 2.0e-3
SCALE_MAX_S = 2.0


def _kernel():
    x = 0.0
    table = {}
    for i in range(20000):
        x += i * 0.5
        if i % 64 == 0:
            table[i] = [x, i]
    return x + len(table)


def sample():
    """Seconds the kernel takes now (median of three)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds, before, after):
    """A stretch of `seconds`, scaled by the kernel samples around it."""
    if seconds > SCALE_MAX_S:
        return seconds
    return seconds * REFERENCE_KERNEL_S / (0.5 * (before + after))
