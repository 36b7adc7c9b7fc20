"""Loop-pipelining mapper (the base scheduling step of the RSP flow).

The paper assumes loop-pipelining execution in the style of Lee, Choi and
Dutt's CGRA mapping work [7][8]: the iterations of a kernel loop are
distributed over the columns of the array and their operations execute in a
software-pipelined fashion, so heterogeneous operations of different
iterations run simultaneously (the property that makes resource sharing and
pipelining attractive in the first place).

This module implements that mapping as a resource-constrained list
scheduler:

* every operation occupies one PE for its full latency,
* every row sustains at most ``read_buses`` loads and ``write_buses``
  stores per cycle (the row data buses of paper Figure 1),
* on sharing architectures every multiplication must acquire an issue slot
  of a reachable shared multiplier (one new issue per multiplier per
  cycle),
* multiplications take :attr:`ArchitectureSpec.multiplier_latency` cycles
  (1 when combinational, the pipeline depth when pipelined),
* operations prefer the column ``iteration mod columns`` (which yields the
  staggered column pattern of paper Figure 2) and may spill to neighbouring
  columns when their preferred column is full.

Ready operations compete in (iteration, criticality) order, matching the
paper's rule that shared resources are granted in loop-iteration order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.arch.template import ArchitectureSpec
from repro.errors import SchedulingError
from repro.ir.dfg import DFG, Operation, OpType
from repro.mapping.placement import ResourceTracker, column_preference
from repro.mapping.schedule import Schedule, ScheduledOperation

#: Operation types that never occupy a PE slot (resolved at configuration time).
_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)


class LoopPipeliningScheduler:
    """Resource-constrained list scheduler for one architecture design point."""

    def __init__(self, architecture: ArchitectureSpec, max_cycles: Optional[int] = None) -> None:
        self.architecture = architecture
        self.max_cycles = max_cycles

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def latency_of(self, operation: Operation) -> int:
        """Cycles from issue until the operation's result is available."""
        if operation.is_multiplication:
            return self.architecture.multiplier_latency
        return 1

    def occupancy_of(self, operation: Operation) -> int:
        """Cycles the issuing PE stays busy with ``operation``.

        A multiplication sent to a *shared* multiplier only occupies its PE
        for the issue cycle (the operands are latched by the bus switch and
        the remaining stages run in the shared unit); every other operation
        holds its PE until the result is available.
        """
        if operation.is_multiplication and self.architecture.uses_sharing:
            return 1
        return self.latency_of(operation)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, dfg: DFG, kernel_name: Optional[str] = None) -> Schedule:
        """Map ``dfg`` onto the architecture and return the schedule."""
        name = kernel_name or dfg.name
        result = Schedule(self.architecture, kernel_name=name)
        operations = {
            op.name: op for op in dfg.operations() if op.optype not in _UNSCHEDULED_OPTYPES
        }
        if not operations:
            return result

        # Everything the cycle loop reads from the DFG, read once.
        priorities = self._downstream_priorities(dfg)
        predecessors = {
            op_name: [pred for pred in dfg.predecessors(op_name) if pred in operations]
            for op_name in operations
        }
        successors = {
            op_name: [succ for succ in dfg.successors(op_name) if succ in operations]
            for op_name in operations
        }
        order_key = {
            op_name: (operation.iteration, -priorities[op_name], op_name)
            for op_name, operation in operations.items()
        }
        slot_class = {
            op_name: (self._slot_kind(operation), self.occupancy_of(operation))
            for op_name, operation in operations.items()
        }
        pending_preds = {op_name: len(preds) for op_name, preds in predecessors.items()}
        earliest = dict.fromkeys(operations, 0)
        ready: Set[str] = {op_name for op_name, count in pending_preds.items() if count == 0}
        unscheduled = len(operations)
        tracker = ResourceTracker(self.architecture)
        placed_row: Dict[str, int] = {}

        limit = self.max_cycles or (10 * len(operations) + 1000)
        cycle = 0
        while unscheduled:
            if cycle > limit:
                raise SchedulingError(
                    f"kernel {name!r} did not finish scheduling within {limit} cycles "
                    f"on architecture {self.architecture.name!r}"
                )
            candidates = sorted(
                (op_name for op_name in ready if earliest[op_name] <= cycle),
                key=order_key.__getitem__,
            )
            # Slot classes that found no PE in this cycle.  Skipping the rest
            # of such a class is exact because (1) claims made inside a cycle
            # only ever add occupancy, and (2) every _find_placement call
            # scans all rows x cols, so its success depends only on the
            # class, never on the operation's row or column preference.
            full_classes: Set[Tuple[Optional[OpType], int]] = set()
            for op_name in candidates:
                op_class = slot_class[op_name]
                if op_class in full_classes:
                    continue
                operation = operations[op_name]
                occupancy = op_class[1]
                placement = self._find_placement(
                    operation,
                    cycle,
                    occupancy,
                    tracker,
                    [placed_row[pred] for pred in predecessors[op_name]],
                )
                if placement is None:
                    full_classes.add(op_class)
                    continue
                row, col, shared_unit = placement
                latency = self.latency_of(operation)
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
                placed_row[op_name] = row
                ready.discard(op_name)
                unscheduled -= 1
                finish = cycle + latency
                for successor in successors[op_name]:
                    earliest[successor] = max(earliest[successor], finish)
                    pending_preds[successor] -= 1
                    if pending_preds[successor] == 0:
                        ready.add(successor)
            cycle += 1
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _downstream_priorities(self, dfg: DFG) -> Dict[str, int]:
        """Longest downstream dependence chain of every operation (in cycles)."""
        priorities: Dict[str, int] = {}
        for op_name in reversed(dfg.topological_order()):
            operation = dfg.operation(op_name)
            latency = self.latency_of(operation) if operation.optype not in _UNSCHEDULED_OPTYPES else 0
            downstream = 0
            for successor in dfg.successors(op_name):
                downstream = max(downstream, priorities[successor])
            priorities[op_name] = latency + downstream
        return priorities

    def _slot_kind(self, operation: Operation) -> Optional[OpType]:
        """The resources besides a free PE that ``operation`` needs to issue.

        A load or a store also needs a slot on its row's read or write bus,
        a multiplication on a sharing architecture needs a shared-unit issue
        slot; every other operation needs only the PE.
        """
        if operation.is_memory:
            return operation.optype
        if operation.is_multiplication and self.architecture.uses_sharing:
            return OpType.MUL
        return None

    def _find_placement(
        self,
        operation: Operation,
        cycle: int,
        duration: int,
        tracker: ResourceTracker,
        predecessor_rows: List[int],
    ) -> Optional[Tuple[int, int, Optional[Tuple[str, int, int]]]]:
        """Pick a PE (and shared unit) for ``operation`` at ``cycle``.

        Columns are visited in preference order (the iteration's column
        first); within a column, rows already holding the operation's
        predecessors are preferred so operands stay local.  The busy-row
        mask of each column skips a full column at once and never probes a
        busy PE; every other candidate goes through
        :meth:`ResourceTracker.placement_feasible`.
        """
        spec = self.architecture.array
        row_order = list(dict.fromkeys(predecessor_rows)) + [
            row for row in range(spec.rows) if row not in predecessor_rows
        ]
        if operation.is_multiplication:
            # Spread concurrent multiplications over the rows so the per-row
            # demand on row-shared multipliers stays balanced; ties fall back
            # to the operand-locality order computed above.
            rank = {row: index for index, row in enumerate(row_order)}
            row_order = sorted(
                row_order,
                key=lambda row: (tracker.multiplications_in_row(cycle, row), rank[row]),
            )
        all_rows = (1 << spec.rows) - 1
        for col in column_preference(operation.iteration, spec.cols):
            busy = tracker.busy_rows(cycle, col, duration)
            if busy == all_rows:
                continue
            for row in row_order:
                if (busy >> row) & 1:
                    continue
                feasible, shared_unit = tracker.placement_feasible(
                    operation, cycle, row, col, duration
                )
                if feasible:
                    return row, col, shared_unit
        return None
