"""The indexed list scheduler places every operation where a full scan does.

The reference is :class:`scanning_scheduler.ScanningScheduler`: the same
scheduling loop with no busy-row masks, no per-cycle "no slot" memo and no
hoisted adjacency.  Schedules must agree entry for entry (name, cycle, row,
column, latency, occupancy, shared unit).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scanning_scheduler import ScanningScheduler, schedule_entries
from test_mapping_properties import random_kernel_dfg

from repro.arch import (
    ArchitectureSpec,
    PipeliningSpec,
    base_architecture,
    default_array_spec,
    rs_architecture,
    rsp_architecture,
)
from repro.kernels import get_kernel, h264_kernels, paper_suite
from repro.mapping.loop_pipelining import LoopPipeliningScheduler

#: Small arrays and few shared units make slots run out within a cycle, so
#: the "no slot" memo and the full-column skip are exercised; the pipelined
#: per-PE multiplier (no sharing) gives multiplications an occupancy > 1.
oracle_architectures = st.sampled_from(
    [
        base_architecture(),
        base_architecture(4, 4),
        base_architecture(2, 8),
        rs_architecture(1),
        rs_architecture(4),
        rs_architecture(1, rows=2, cols=8),
        rs_architecture(3, rows=4, cols=4),
        rsp_architecture(1),
        rsp_architecture(2, stages=3),
        rsp_architecture(1, rows=4, cols=4, stages=3),
        rsp_architecture(4, rows=2, cols=8),
        ArchitectureSpec(
            name="pipelined-per-PE",
            array=default_array_spec(2, 8),
            pipelining=PipeliningSpec(stages=3),
        ),
    ]
)


@given(random_kernel_dfg(), oracle_architectures)
@settings(max_examples=60, deadline=None)
def test_indexed_scheduler_matches_the_scanning_reference(dfg, architecture):
    indexed = LoopPipeliningScheduler(architecture).schedule(dfg)
    reference = ScanningScheduler(architecture).schedule(dfg)
    assert schedule_entries(indexed) == schedule_entries(reference)
    indexed.validate(dfg)


def assert_same_schedule(architecture, kernel):
    dfg = kernel.build()
    indexed = LoopPipeliningScheduler(architecture).schedule(dfg, kernel_name=kernel.name)
    reference = ScanningScheduler(architecture).schedule(dfg, kernel_name=kernel.name)
    assert schedule_entries(indexed) == schedule_entries(reference)


@pytest.mark.parametrize(
    "kernel", paper_suite() + list(h264_kernels()), ids=lambda kernel: kernel.name
)
def test_base_schedules_of_every_paper_and_h264_kernel_match(kernel):
    assert_same_schedule(base_architecture(), kernel)


@pytest.mark.parametrize("name", ["2D-FDCT", "FFT"])
def test_shared_multiplier_schedules_match_on_rs1(name):
    # One shared multiplier per row runs out within a cycle on these
    # multiplication-heavy kernels while PEs are still free, so a memo that
    # lumped shared multiplications in with plain PE operations would skip
    # placeable operations (2D-FDCT catches it).
    assert_same_schedule(rs_architecture(1), get_kernel(name))
