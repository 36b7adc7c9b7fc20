"""Regenerate expected.json, the outputs every op is checked against.

Run from the repository root:  PYTHONPATH=src python3 rspbench/make_expected.py

Each campaign is explored once over every stage count a seed can draw.
Feasibility is a property of each candidate alone, so feasible counts are
recorded per stage count and summed over whichever stages an op draws.
The selection is recorded once: the script asserts that the Pareto front
of the full grid holds only stage-1 and stage-2 points and that the
{1, 2}-only grid selects the same design, so every drawn grid (which
always contains stages 1 and 2) has the same front and selection.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner
from repro.eval import tables

from workloads import _SUITE_FIELDS, COLD_EXTRA_STAGES, GRID_EXTRA_STAGES

HERE = Path(__file__).resolve().parent


def explore(suites, max_shared, stages):
    runner = CampaignRunner(
        CampaignSpec(
            name="expected",
            suites=tuple(suites),
            max_rows_shared=max_shared,
            max_cols_shared=max_shared,
            stage_options=tuple(stages),
            backend="serial",
            workers=1,
        )
    )
    try:
        return runner.run()
    finally:
        runner.close()


def campaign_block(suites, max_shared, extra_stages):
    stages = [1, 2, *extra_stages]
    report, results = explore(suites, max_shared, stages)
    minimal, _ = explore(suites, max_shared, [1, 2])
    block = {}
    for suite, small in zip(report.suites, minimal.suites):
        result = results[suite.suite]
        front_stages = {point.parameters.pipeline_stages for point in result.pareto}
        assert front_stages <= {1, 2}, (suite.suite, front_stages)
        entry = {field: getattr(suite, field) for field in _SUITE_FIELDS}
        assert entry == {field: getattr(small, field) for field in _SUITE_FIELDS}, suite.suite
        per_stage = Counter(
            point.parameters.pipeline_stages
            for point in result.evaluated
            if point.parameters.kind != "base"
        )
        assert len(set(per_stage.values())) == 1, per_stage
        feasible = Counter(
            point.parameters.pipeline_stages
            for point in result.feasible
            if point.parameters.kind != "base"
        )
        entry["base_feasible"] = int(result.base in result.feasible)
        entry["candidates_per_stage"] = per_stage[1]
        entry["feasible_by_stage"] = {str(stage): feasible[stage] for stage in stages}
        block[suite.suite] = entry
    return block


def table_block(table):
    return {
        kernel: {arch: [record.cycles, record.stalls] for arch, record in per_arch.items()}
        for kernel, per_arch in table.records.items()
    }


def main() -> None:
    expected = {
        "campaign_cold": campaign_block(("paper", "h264"), 2, COLD_EXTRA_STAGES),
        "grid": campaign_block(("paper",), 8, GRID_EXTRA_STAGES),
        "tables": [table_block(tables.table4_livermore()), table_block(tables.table5_dsp())],
    }
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
