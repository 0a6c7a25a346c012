"""A fixed slice of plain Python work that measures how fast the machine runs.

The shared VM the benchmark was built on runs the same Python code up to
half again slower in stretches of seconds to minutes.  Timing this slice
next to each job and scaling the job's time by ``REF_S / slice time``
removes most of that drift: per-job time over repeated passes spread by
0.37 raw and 0.11 scaled (distance between quartiles over the median,
``census`` jobs in a busy stretch).  The slice calls nothing of the
program, so a change to the program cannot move it.
"""

import time

# Seconds the slice took on the VM the benchmark was built on in a calm
# stretch.  It only fixes the scale: scaled times read as the seconds the
# work would take on a machine that runs the slice in REF_S seconds.
REF_S = 0.010
ITERATIONS = 60000


def slice_s():
    """Wall seconds of one calibration slice (about REF_S)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def scale(seconds, slices):
    """Seconds scaled to the reference speed by the mean of ``slices``."""
    return seconds * REF_S * len(slices) / sum(slices)
