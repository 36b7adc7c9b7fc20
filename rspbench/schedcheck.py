"""Independent schedule checker.

Re-derives the mapping constraints from the architecture description and
the DFG alone; it shares no code with ``repro.mapping.placement`` (the
tracker the scheduler and the rearrangement both use), so a scheduler that
gets faster by breaking a constraint fails the benchmark instead of
scoring a gain.  Checked:

* every compute/memory operation of the DFG is scheduled exactly once, on
  a PE inside the array;
* dependencies plus latency: an operation issues no earlier than each
  scheduled producer's issue cycle plus the producer's latency
  (multiplications take the pipeline depth, everything else one cycle);
  producers are followed through constants and no-ops, which are not
  scheduled;
* one operation per PE per cycle, over the cycles the PE is held (a
  multiplication sent to a shared multiplier holds its PE for the issue
  cycle only);
* row bus limits: at most ``read_buses`` loads and ``write_buses`` stores
  per row per cycle;
* shared multipliers: on a sharing design every multiplication is bound to
  a unit reachable from its PE, and each unit accepts one issue per cycle.
  A schedule built with ``unlimited_shared`` (the stall-free reference of
  the rearrangement) lifts that cap by definition, so only the binding
  itself is checked there.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

#: Operation kinds that are resolved at configuration time, not scheduled.
_UNSCHEDULED = ("CONST", "NOP")


def _scheduled_producers(dfg, name: str, scheduled: Dict[str, object]) -> List[str]:
    """Nearest scheduled producers of ``name``, looking through unscheduled ops."""
    producers: List[str] = []
    seen = set()
    frontier = list(dfg.predecessors(name))
    while frontier:
        pred = frontier.pop()
        if pred in seen:
            continue
        seen.add(pred)
        if pred in scheduled:
            producers.append(pred)
        elif dfg.operation(pred).optype.name in _UNSCHEDULED:
            frontier.extend(dfg.predecessors(pred))
    return producers


def check_schedule(schedule, dfg, architecture, unlimited_shared: bool = False) -> List[str]:
    """Every constraint violation of ``schedule`` (empty when it is valid)."""
    violations: List[str] = []
    rows, cols = architecture.array.rows, architecture.array.cols
    buses = architecture.array.row_buses
    rows_shared = architecture.sharing.rows_shared
    cols_shared = architecture.sharing.cols_shared
    sharing = rows_shared > 0 or cols_shared > 0
    multiplier_latency = architecture.pipelining.stages

    entries = {}
    for entry in schedule.operations():
        if entry.operation.name in entries:
            violations.append(f"{entry.operation.name}: scheduled twice")
        entries[entry.operation.name] = entry
    wanted = {
        op.name for op in dfg.operations() if op.optype.name not in _UNSCHEDULED
    }
    for name in sorted(wanted - entries.keys()):
        violations.append(f"{name}: never scheduled")
    for name in sorted(entries.keys() - wanted):
        violations.append(f"{name}: scheduled but not a compute/memory op of the DFG")

    def latency(entry) -> int:
        return multiplier_latency if entry.operation.optype.name == "MUL" else 1

    pe_busy: Counter = Counter()
    loads: Counter = Counter()
    stores: Counter = Counter()
    issues: Counter = Counter()
    for name, entry in entries.items():
        kind = entry.operation.optype.name
        cycle, row, col = entry.cycle, entry.row, entry.col
        if cycle < 0 or not (0 <= row < rows and 0 <= col < cols):
            violations.append(f"{name}: placed at cycle {cycle} on PE ({row},{col})")
        if entry.latency != latency(entry):
            violations.append(f"{name}: latency {entry.latency}, expected {latency(entry)}")
        shared = kind == "MUL" and sharing
        held = 1 if shared else latency(entry)
        for busy_cycle in range(cycle, cycle + held):
            pe_busy[(busy_cycle, row, col)] += 1
        if kind == "LOAD":
            loads[(cycle, row)] += 1
        elif kind == "STORE":
            stores[(cycle, row)] += 1
        if shared:
            unit = entry.shared_unit
            if unit is None:
                violations.append(f"{name}: multiplication bound to no shared unit")
                continue
            axis, index, ordinal = unit
            if unlimited_shared:
                reachable = axis == "row" and index == row
            elif axis == "row":
                reachable = index == row and 0 <= ordinal < rows_shared
            else:
                reachable = axis == "col" and index == col and 0 <= ordinal < cols_shared
            if not reachable:
                violations.append(f"{name}: shared unit {unit} unreachable from ({row},{col})")
            issues[(unit, cycle)] += 1
        elif entry.shared_unit is not None:
            violations.append(f"{name}: bound to shared unit {entry.shared_unit} without sharing")

    for (cycle, row, col), count in sorted(pe_busy.items()):
        if count > 1:
            violations.append(f"PE ({row},{col}) holds {count} ops at cycle {cycle}")
    for (cycle, row), count in sorted(loads.items()):
        if count > buses.read_buses:
            violations.append(f"row {row} issues {count} loads at cycle {cycle}")
    for (cycle, row), count in sorted(stores.items()):
        if count > buses.write_buses:
            violations.append(f"row {row} issues {count} stores at cycle {cycle}")
    if not unlimited_shared:
        for (unit, cycle), count in sorted(issues.items()):
            if count > 1:
                violations.append(f"shared unit {unit} accepts {count} issues at cycle {cycle}")

    for name, entry in entries.items():
        for producer in _scheduled_producers(dfg, name, entries):
            ready = entries[producer].cycle + latency(entries[producer])
            if entry.cycle < ready:
                violations.append(
                    f"{name}: issues at cycle {entry.cycle} before {producer} "
                    f"is ready at cycle {ready}"
                )
    return violations
