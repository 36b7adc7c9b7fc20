"""Tests for the schedule data structure and its validation."""

from __future__ import annotations

import pytest

from repro.arch import base_architecture, rs_architecture
from repro.errors import SchedulingError
from repro.ir import DFGBuilder, Operation, OpType
from repro.mapping.schedule import Schedule, ScheduledOperation


def tiny_dfg():
    builder = DFGBuilder("tiny")
    a = builder.load("x", 0)
    b = builder.load("y", 0)
    c = builder.mul(a, b)
    builder.store("z", 0, c)
    return builder.build(), (a, b, c)


def entry(op: Operation, cycle: int, row: int, col: int, latency: int = 1, shared=None):
    return ScheduledOperation(operation=op, cycle=cycle, row=row, col=col,
                              latency=latency, shared_unit=shared)


class TestScheduledOperation:
    def test_finish_cycle_and_position(self):
        op = Operation("m", OpType.MUL)
        scheduled = entry(op, cycle=3, row=1, col=2, latency=2)
        assert scheduled.finish_cycle == 5
        assert scheduled.position == (1, 2)
        assert scheduled.is_multiplication

    def test_invalid_values_rejected(self):
        op = Operation("m", OpType.MUL)
        with pytest.raises(SchedulingError):
            entry(op, cycle=-1, row=0, col=0)
        with pytest.raises(SchedulingError):
            entry(op, cycle=0, row=0, col=0, latency=0)
        with pytest.raises(SchedulingError):
            ScheduledOperation(operation=op, cycle=0, row=-1, col=0)


class TestScheduleBasics:
    def test_add_and_length(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch, "tiny")
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, 0, 0, latency=2))
        assert len(schedule) == 3
        assert schedule.length == 3
        assert schedule.get(c).cycle == 1
        assert len(schedule.operations_at(0)) == 2

    def test_duplicate_operation_rejected(self, base_arch):
        dfg, (a, _, _) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        with pytest.raises(SchedulingError):
            schedule.add(entry(dfg.operation(a), 1, 0, 0))

    def test_out_of_array_placement_rejected(self, base_arch):
        dfg, (a, _, _) = tiny_dfg()
        schedule = Schedule(base_arch)
        with pytest.raises(SchedulingError):
            schedule.add(entry(dfg.operation(a), 0, 9, 0))

    def test_missing_operation_lookup(self, base_arch):
        with pytest.raises(SchedulingError):
            Schedule(base_arch).get("ghost")

    def test_empty_schedule_statistics(self, base_arch):
        schedule = Schedule(base_arch)
        assert schedule.length == 0
        assert schedule.max_multiplications_per_cycle() == 0
        assert schedule.pe_utilisation() == 0.0


class TestScheduleStatistics:
    def test_multiplications_in_flight_counts_pipeline_stages(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(c), 2, 0, 0, latency=2))
        assert [m.name for m in schedule.multiplications_at(2)] == [c]
        assert len(schedule.multiplications_in_flight_at(2)) == 1
        assert len(schedule.multiplications_in_flight_at(3)) == 1
        assert len(schedule.multiplications_in_flight_at(4)) == 0
        assert schedule.max_multiplications_per_cycle() == 1
        assert schedule.max_multiplication_issues_per_cycle() == 1

    def test_busy_pes_tracking(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(c), 0, 3, 4, latency=2))
        assert (3, 4) in schedule.busy_pes_at(1)
        assert schedule.busy_pes_at(2) == []


class TestScheduleValidation:
    def build_valid(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch, "tiny")
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, 0, 0))
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        return dfg, schedule

    def test_valid_schedule_passes(self, base_arch):
        dfg, schedule = self.build_valid(base_arch)
        schedule.validate(dfg)

    def test_missing_operation_detected(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        with pytest.raises(SchedulingError, match="not scheduled"):
            schedule.validate(dfg)

    def test_dependence_violation_detected(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 0, 2, 0))  # consumes a/b too early
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 1, 2, 0))
        with pytest.raises(SchedulingError, match="dependence violated"):
            schedule.validate(dfg)

    def test_pe_double_booking_detected(self, base_arch):
        builder = DFGBuilder()
        first = builder.load("x", 0)
        second = builder.load("y", 0)
        dfg = builder.build()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(first), 0, 0, 0))
        schedule.add(entry(dfg.operation(second), 0, 0, 0))
        with pytest.raises(SchedulingError, match="double-booked"):
            schedule.validate(dfg)

    def test_bus_oversubscription_detected(self, base_arch):
        builder = DFGBuilder()
        loads = [builder.load("x", index) for index in range(3)]
        dfg = builder.build()
        schedule = Schedule(base_arch)
        for col, name in enumerate(loads):
            schedule.add(entry(dfg.operation(name), 0, 0, col))
        with pytest.raises(SchedulingError, match="read buses"):
            schedule.validate(dfg)

    def test_shared_unit_required_on_sharing_architecture(self):
        arch = rs_architecture(1)
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, 0, 0))  # no shared unit bound
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        with pytest.raises(SchedulingError, match="no shared multiplier"):
            schedule.validate(dfg)

    def test_shared_unit_reachability_checked(self):
        arch = rs_architecture(1)
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        # Multiplication on row 0 bound to the row-5 multiplier: unreachable.
        schedule.add(entry(dfg.operation(c), 1, 0, 0, shared=("row", 5, 0)))
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        with pytest.raises(SchedulingError, match="multiplier of row 5"):
            schedule.validate(dfg)

    def shared_mult_schedule(self, arch, row, col, unit):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, row, col, shared=unit))
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        return dfg, schedule

    def test_existing_shared_units_pass(self):
        # RS#4 shares two multipliers per row and two per column.
        for unit in (("row", 0, 0), ("row", 0, 1), ("col", 0, 0), ("col", 0, 1)):
            dfg, schedule = self.shared_mult_schedule(rs_architecture(4), 0, 0, unit)
            schedule.validate(dfg)

    def test_row_ordinal_beyond_rows_shared_rejected(self):
        # RS#1 has one multiplier per row: ordinal 7 does not exist.
        dfg, schedule = self.shared_mult_schedule(rs_architecture(1), 0, 0, ("row", 0, 7))
        with pytest.raises(SchedulingError, match="row multiplier 7"):
            schedule.validate(dfg)

    def test_column_unit_without_column_sharing_rejected(self):
        # RS#2 shares per row only (cols_shared = 0).
        dfg, schedule = self.shared_mult_schedule(rs_architecture(2), 0, 3, ("col", 3, 0))
        with pytest.raises(SchedulingError, match="shares 0 per column"):
            schedule.validate(dfg)

    def test_column_ordinal_beyond_cols_shared_rejected(self):
        dfg, schedule = self.shared_mult_schedule(rs_architecture(3), 0, 3, ("col", 3, 1))
        with pytest.raises(SchedulingError, match="column multiplier 1"):
            schedule.validate(dfg)

    def test_unknown_shared_unit_scope_rejected(self):
        dfg, schedule = self.shared_mult_schedule(rs_architecture(4), 0, 0, ("diag", 0, 0))
        with pytest.raises(SchedulingError, match="unknown scope 'diag'"):
            schedule.validate(dfg)

    def test_shared_unit_issue_conflict_detected(self):
        arch = rs_architecture(1)
        builder = DFGBuilder()
        a = builder.load("x", 0)
        b = builder.load("y", 0)
        c = builder.load("w", 1)
        d = builder.load("v", 1)
        m1 = builder.mul(a, b)
        m2 = builder.mul(c, d)
        dfg = builder.build()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 0, 2, 0))
        schedule.add(entry(dfg.operation(d), 0, 3, 0))
        schedule.add(entry(dfg.operation(m1), 1, 0, 0, shared=("row", 0, 0)))
        schedule.add(entry(dfg.operation(m2), 1, 0, 1, shared=("row", 0, 0)))
        with pytest.raises(SchedulingError, match="two issues"):
            schedule.validate(dfg)
