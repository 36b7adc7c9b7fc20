"""Reference scheduler: the list scheduler before its occupancy index.

:class:`ScanningScheduler` keeps the scheduling loop of
:class:`repro.mapping.loop_pipelining.LoopPipeliningScheduler` as it was
before the busy-row masks, the per-cycle "no slot" memo and the hoisted
adjacency: every ready operation probes every PE of the array through
:meth:`ResourceTracker.placement_feasible`, and the DFG is queried inside
the loop.  It shares only the latency model and the priority function
with the production scheduler, so the oracle test
(``test_scheduler_oracle.py``) and ``benchmarks/bench_scheduler.py`` can
check that the indexed scheduler places every operation exactly where
this one does.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.errors import SchedulingError
from repro.ir.dfg import DFG, Operation, OpType
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.placement import ResourceTracker, column_preference
from repro.mapping.schedule import Schedule, ScheduledOperation

_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)


class ScanningScheduler(LoopPipeliningScheduler):
    """The list scheduler with a full rows x cols scan per ready operation."""

    def schedule(self, dfg: DFG, kernel_name: Optional[str] = None) -> Schedule:
        name = kernel_name or dfg.name
        result = Schedule(self.architecture, kernel_name=name)
        schedulable = [op for op in dfg.operations() if op.optype not in _UNSCHEDULED_OPTYPES]
        if not schedulable:
            return result

        priorities = self._downstream_priorities(dfg)
        pending_preds: Dict[str, int] = {}
        earliest: Dict[str, int] = {}
        for op in schedulable:
            real_preds = [
                pred
                for pred in dfg.predecessors(op.name)
                if dfg.operation(pred).optype not in _UNSCHEDULED_OPTYPES
            ]
            pending_preds[op.name] = len(real_preds)
            earliest[op.name] = 0

        ready: Set[str] = {op.name for op in schedulable if pending_preds[op.name] == 0}
        unscheduled = {op.name for op in schedulable}
        tracker = ResourceTracker(self.architecture)
        placements: Dict[str, Tuple[int, int]] = {}

        limit = self.max_cycles or (10 * len(schedulable) + 1000)
        cycle = 0
        while unscheduled:
            if cycle > limit:
                raise SchedulingError(f"kernel {name!r} did not finish within {limit} cycles")
            candidates = sorted(
                (op_name for op_name in ready if earliest[op_name] <= cycle),
                key=lambda op_name: (
                    dfg.operation(op_name).iteration,
                    -priorities[op_name],
                    op_name,
                ),
            )
            for op_name in candidates:
                operation = dfg.operation(op_name)
                latency = self.latency_of(operation)
                occupancy = self.occupancy_of(operation)
                placement = self._scan(operation, cycle, occupancy, tracker, dfg, placements)
                if placement is None:
                    continue
                row, col, shared_unit = placement
                tracker.claim(operation, cycle, row, col, occupancy, shared_unit)
                result.add(
                    ScheduledOperation(
                        operation=operation,
                        cycle=cycle,
                        row=row,
                        col=col,
                        latency=latency,
                        occupancy=occupancy,
                        shared_unit=shared_unit,
                    )
                )
                placements[op_name] = (row, col)
                ready.discard(op_name)
                unscheduled.discard(op_name)
                finish = cycle + latency
                for successor in dfg.successors(op_name):
                    if dfg.operation(successor).optype in _UNSCHEDULED_OPTYPES:
                        continue
                    earliest[successor] = max(earliest[successor], finish)
                    pending_preds[successor] -= 1
                    if pending_preds[successor] == 0:
                        ready.add(successor)
            cycle += 1
        return result

    def _scan(
        self,
        operation: Operation,
        cycle: int,
        duration: int,
        tracker: ResourceTracker,
        dfg: DFG,
        placements: Dict[str, Tuple[int, int]],
    ):
        """First feasible PE in column-preference x operand-locality order."""
        spec = self.architecture.array
        preferred_rows = [
            placements[pred][0] for pred in dfg.predecessors(operation.name) if pred in placements
        ]
        row_order = list(dict.fromkeys(preferred_rows)) + [
            row for row in range(spec.rows) if row not in preferred_rows
        ]
        if operation.is_multiplication:
            rank = {row: index for index, row in enumerate(row_order)}
            row_order = sorted(
                row_order,
                key=lambda row: (tracker.multiplications_in_row(cycle, row), rank[row]),
            )
        for col in column_preference(operation.iteration, spec.cols):
            for row in row_order:
                feasible, shared_unit = tracker.placement_feasible(
                    operation, cycle, row, col, duration
                )
                if feasible:
                    return row, col, shared_unit
        return None


def schedule_entries(schedule: Schedule):
    """Every field the oracle compares, entry by entry in schedule order."""
    return [
        (
            entry.name,
            entry.cycle,
            entry.row,
            entry.col,
            entry.latency,
            entry.occupancy,
            entry.shared_unit,
        )
        for entry in schedule.operations()
    ]
