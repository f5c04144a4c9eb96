"""The calibration kernel by which ``run.py`` normalises times to the host's speed.

The worker times it after the set-up and after every operation, and
``run.py`` times it just before it starts a worker, so that each measured
time can be scaled by how fast the host ran this kind of work around it.
"""

from __future__ import annotations

import gc
import time

MODULUS = 4099  # the kernel's graph has this many vertices
REPEATS = 3


def calibrate() -> float:
    """Mean time of a fixed pure-Python BFS, the program's kind of work.

    The collector is off while it runs, so that the program's objects and
    collector settings do not change the kernel's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(REPEATS):
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in ((3 * x + 1) % MODULUS, (7 * x + 5) % MODULUS,
                              (x + 11) % MODULUS):
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
        return (time.perf_counter() - started) / REPEATS
    finally:
        if was_enabled:
            gc.enable()
