"""The fixed reference loop that op times are divided by.

The host this benchmark was built on drifts in speed by tens of percent
over seconds, and a longer run cannot average that away.  Timing a fixed
piece of pure-Python work right before and right after each op measures
the host's speed at that moment, so ``op wall / reference wall`` stays put
while both drift.

The loop shares no code with ``repro``.  It runs with the garbage
collector disabled and allocates no GC-tracked object (only ints, which
the collector does not track), so the size of the program's heap cannot
change its speed.  Its tables are built once, at import.
"""

from __future__ import annotations

import gc
from time import perf_counter

_TABLE = tuple(range(1024))
_MAP = {index: (index * 7919) & 1023 for index in range(1024)}


def spin(iterations: int) -> int:
    """Integer arithmetic plus list and dict lookups, ``iterations`` times."""
    table, mapping = _TABLE, _MAP
    acc = 0
    for index in range(iterations):
        slot = mapping[(acc + index) & 1023]
        acc = (acc * 31 + table[slot]) & 0xFFFFF
    return acc


def timed(iterations: int) -> float:
    """Wall seconds of one :func:`spin` with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        spin(iterations)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()

