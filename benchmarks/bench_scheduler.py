"""Benchmark: base list scheduling, occupancy-indexed vs. full scan.

Every campaign base-maps each kernel before any RS/RP design point is
evaluated, and on a cold store that step is most of the run.  The
production :class:`~repro.mapping.loop_pipelining.LoopPipeliningScheduler`
skips placement probes that cannot succeed: a busy-row mask per
``(cycle, column)`` rejects full columns and busy PEs without a probe, and
once an operation class finds no slot in a cycle the rest of that class
waits for the next cycle.  The reference is the test-side
:class:`ScanningScheduler` (``tests/properties/scanning_scheduler.py``),
which probes every PE for every ready operation.

Both schedule the paper suite on the base architecture in the same run,
sampled alternately; the schedules must be identical entry for entry and
the indexed scheduler must be at least ``SPEEDUP_FLOOR`` times faster in
total (best of ``REPEATS``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "properties"))

from scanning_scheduler import ScanningScheduler, schedule_entries  # noqa: E402

from repro.arch import base_architecture  # noqa: E402
from repro.kernels import paper_suite  # noqa: E402
from repro.mapping.loop_pipelining import LoopPipeliningScheduler  # noqa: E402
from repro.utils.tabulate import format_table  # noqa: E402

#: Best-of-N timing repetitions per scheduler and kernel.
REPEATS = 3
#: Minimum total speedup of the indexed scheduler over the full scan.
SPEEDUP_FLOOR = 5.0


def best_of_interleaved(schedulers, dfg, name):
    """Best wall time of each scheduler on ``dfg``, sampled alternately."""
    bests = [float("inf")] * len(schedulers)
    for _ in range(REPEATS):
        for position, scheduler in enumerate(schedulers):
            started = time.perf_counter()
            scheduler.schedule(dfg, kernel_name=name)
            bests[position] = min(bests[position], time.perf_counter() - started)
    return bests


def test_indexed_scheduler_beats_the_full_scan(bench_metrics):
    architecture = base_architecture()
    indexed = LoopPipeliningScheduler(architecture)
    scanning = ScanningScheduler(architecture)
    rows = []
    indexed_total = scanning_total = 0.0
    for kernel in paper_suite():
        dfg = kernel.build()
        # Identical schedules first: the index must not move any placement.
        assert schedule_entries(indexed.schedule(dfg, kernel.name)) == schedule_entries(
            scanning.schedule(dfg, kernel.name)
        ), kernel.name
        scanning_seconds, indexed_seconds = best_of_interleaved(
            (scanning, indexed), dfg, kernel.name
        )
        scanning_total += scanning_seconds
        indexed_total += indexed_seconds
        rows.append(
            [
                kernel.name,
                len(dfg),
                round(scanning_seconds * 1e3, 1),
                round(indexed_seconds * 1e3, 1),
                f"{scanning_seconds / indexed_seconds:.1f}x",
            ]
        )
    speedup = scanning_total / indexed_total
    rows.append(
        ["total", "", round(scanning_total * 1e3, 1), round(indexed_total * 1e3, 1),
         f"{speedup:.1f}x"]
    )
    print()
    print(
        format_table(
            rows,
            headers=["kernel", "ops", "scan (ms)", "indexed (ms)", "speedup"],
            title=f"base list scheduling, paper suite (best of {REPEATS})",
        )
    )
    bench_metrics.update(
        scanning_seconds=round(scanning_total, 4),
        indexed_seconds=round(indexed_total, 4),
        speedup=round(speedup, 2),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed scheduler only {speedup:.1f}x faster than the full scan "
        f"({indexed_total:.3f}s vs {scanning_total:.3f}s); floor {SPEEDUP_FLOOR}x"
    )
