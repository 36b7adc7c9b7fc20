"""The four workloads: what one op runs, what it needs prepared, how it is checked.

Each op calls the program's public entry points in-process:
``repro.engine.__main__.main(argv)`` with ``--backend serial --workers 1``,
or ``repro.eval.tables.table4_livermore`` / ``table5_dsp``.  Preparation,
checking and clean-up happen outside the op's timed call.

Stage counts come from the seed: stages 1 and 2 are always in the grid and
the number of extra stage counts is fixed, so the grid size never depends
on the seed.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.engine.__main__ as cli
from repro.arch.template import base_architecture
from repro.engine.artifacts import ArtifactStore
from repro.eval import tables
from repro.kernels.registry import dsp_suite, livermore_suite
from repro.mapping.mapper import RSPMapper

from schedcheck import check_schedule

#: Extra stage counts are drawn from these ranges (expected.json covers them).
COLD_EXTRA_STAGES = range(3, 13)
GRID_EXTRA_STAGES = range(3, 17)

#: Deterministic-report fields compared between grid_stream and grid_warm.
_SUITE_FIELDS = (
    "kernels",
    "selected",
    "selected_kind",
    "num_pareto",
    "base_area_slices",
    "base_execution_time_ns",
    "selected_area_slices",
    "selected_execution_time_ns",
)


def tree_bytes(*roots: Path) -> int:
    """Total size of the regular files under ``roots``."""
    return sum(
        path.stat().st_size
        for root in roots
        if root.exists()
        for path in root.rglob("*")
        if path.is_file()
    )


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def stage_of(label: str) -> Optional[int]:
    match = re.search(r"stages=(\d+)", label)
    return int(match.group(1)) if match else None


def check_suites(
    suites: Sequence[dict], expected: Dict[str, dict], stages: Sequence[int]
) -> List[str]:
    """Report suites against expected.json for this op's stage set."""
    errors: List[str] = []
    names = [suite["suite"] for suite in suites]
    if sorted(names) != sorted(expected):
        return [f"suites {names}, expected {list(expected)}"]
    for suite in suites:
        want = expected[suite["suite"]]
        for field in _SUITE_FIELDS:
            if suite[field] != want[field]:
                errors.append(f"{suite['suite']}.{field} = {suite[field]!r}, expected {want[field]!r}")
        candidates = 1 + want["candidates_per_stage"] * len(stages)
        feasible = want["base_feasible"] + sum(want["feasible_by_stage"][str(s)] for s in stages)
        if suite["num_candidates"] != candidates:
            errors.append(f"{suite['suite']}: {suite['num_candidates']} candidates, expected {candidates}")
        if suite["num_feasible"] != feasible:
            errors.append(f"{suite['suite']}: {suite['num_feasible']} feasible, expected {feasible}")
    return errors


def check_stage_counts(
    suite: str, feasible_labels: Iterable[str], want: dict, stages: Sequence[int]
) -> List[str]:
    """Feasible candidates per stage count against expected.json."""
    counts = Counter(stage_of(label) for label in feasible_labels)
    counts.pop(None, None)
    expected = {s: want["feasible_by_stage"][str(s)] for s in stages}
    if dict(counts) != {s: n for s, n in expected.items() if n}:
        return [f"{suite}: feasible per stage {dict(sorted(counts.items()))}, expected {expected}"]
    return []


class Op:
    """One op: ``call`` is the timed part, ``finish`` checks and cleans up."""

    def __init__(self, call: Callable[[], object], check: Callable[[object], List[str]],
                 directory: Path, watched: Sequence[Path] = ()) -> None:
        self.call_fn = call
        self.check = check
        self.directory = directory
        self.watched = tuple(watched)
        self.bytes_before = tree_bytes(directory, *self.watched)
        self.result: object = None

    def call(self) -> None:
        self.result = self.call_fn()

    def finish(self, error: Optional[str]) -> Tuple[List[str], int]:
        """(errors, bytes the op left behind); removes the op's directory."""
        if error:
            errors = [error]
        else:
            try:
                errors = self.check(self.result)
            except Exception:
                errors = [traceback.format_exc(limit=3)]
        written = tree_bytes(self.directory, *self.watched) - self.bytes_before
        shutil.rmtree(self.directory, ignore_errors=True)
        return errors, written


class Workload:
    name = ""
    #: Reference-loop iterations: each bracket is 7-10% of one op on the
    #: reference host (half that gave a noisier ratio).
    ref_iterations = 0
    #: Evaluation jobs per op (the campaign workloads' grid sizes).
    jobs = 0

    def __init__(self, work: Path, seed: int, expected: dict) -> None:
        self.work = work
        self.expected = expected
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        """Untimed preparation before the first op."""

    def setup_spec(self) -> dict:
        """What the set-up probe builds: see setup_probe.py."""
        raise NotImplementedError

    def new_op(self, index: int) -> Op:
        raise NotImplementedError

    def check_counts(self, counts: Dict[str, int]) -> List[str]:
        """Checks on a traced op's layer counts."""
        return []


class CampaignWorkload(Workload):
    suites: Tuple[str, ...] = ()
    max_shared = 2
    expected_key = ""

    def argv(self, cache: Path, output: Path, artifacts: Optional[Path] = None,
             stream: Optional[Path] = None) -> List[str]:
        argv = [arg for suite in self.suites for arg in ("--suite", suite)]
        argv += [
            "--backend", "serial", "--workers", "1",
            "--max-rows-shared", str(self.max_shared),
            "--max-cols-shared", str(self.max_shared),
            "--stages", *map(str, self.stages),
            "--cache-dir", str(cache), "--output", str(output), "--quiet",
        ]
        if artifacts is not None:
            argv += ["--artifact-dir", str(artifacts)]
        if stream is not None:
            argv += ["--stream", str(stream)]
        return argv

    def setup_spec(self) -> dict:
        probe = self.work / "setup-probe"
        return {
            "suites": list(self.suites),
            "max_shared": self.max_shared,
            "stages": list(self.stages),
            "cache_dir": str(probe / "cache"),
        }

    def run_cli(self, argv: List[str]) -> Path:
        """The timed call: one campaign through the CLI; returns its report path."""
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"python -m repro.engine exited with {code}")
        return Path(argv[argv.index("--output") + 1])

    @property
    def jobs(self) -> int:
        expected = self.expected[self.expected_key]
        return sum(1 + expected[s]["candidates_per_stage"] * len(self.stages) for s in self.suites)

    def check_report(self, suites: Sequence[dict]) -> List[str]:
        return check_suites(suites, self.expected[self.expected_key], self.stages)


class CampaignCold(CampaignWorkload):
    """paper + h264 (all 11 distinct kernels) against empty stores."""

    name = "campaign_cold"
    ref_iterations = 1_000_000
    suites = ("paper", "h264")
    expected_key = "campaign_cold"

    def __init__(self, work: Path, seed: int, expected: dict) -> None:
        super().__init__(work, seed, expected)
        self.stages = [1, 2] + sorted(self.rng.sample(COLD_EXTRA_STAGES, 1))

    def new_op(self, index: int) -> Op:
        directory = self.work / f"op-{index}"
        argv = self.argv(directory / "cache", directory / "report.json")
        return Op(lambda: self.run_cli(argv), self.check, directory)

    def check(self, output: Path) -> List[str]:
        report = load(output)["report"]
        errors = self.check_report(report["suites"])
        if report["cache_hits"] or report["artifact_hits"]:
            errors.append(
                f"cold stores served {report['cache_hits']} evaluation and "
                f"{report['artifact_hits']} artifact hits"
            )
        # Per-stage feasibility from the records this op wrote, one cache
        # file per suite: feasible = the base, or strictly smaller area.
        expected = self.expected[self.expected_key]
        for suite, path in zip(report["suites"], report["cache_path"].split(";")):
            records = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
            base_area = next(r["area_slices"] for r in records if r["label"] == "Base")
            feasible = [r["label"] for r in records if r["area_slices"] < base_area]
            errors += check_stage_counts(suite["suite"], feasible, expected[suite["suite"]], self.stages)
        return errors


class GridWorkload(CampaignWorkload):
    suites = ("paper",)
    max_shared = 8
    expected_key = "grid"

    def __init__(self, work: Path, seed: int, expected: dict) -> None:
        super().__init__(work, seed, expected)
        self.stages = [1, 2] + sorted(self.rng.sample(GRID_EXTRA_STAGES, 10))
        self.artifacts = work / "artifacts"

    def check_counts(self, counts: Dict[str, int]) -> List[str]:
        # Every base schedule comes from the warm artifact store, so the
        # scheduler never runs, whatever the report says about hits.
        return [
            f"{name} = {counts[name]} on warm artifacts, expected 0"
            for name in ("mapping.schedule.calls", "mapping.placement.probes")
            if counts.get(name, 0)
        ]

    def check_stream(self, output: Path, stream: Path) -> List[str]:
        """A --stream op's deterministic report and event journal."""
        errors = self.check_report(load(output)["suites"])
        results = [
            event["data"]
            for event in map(json.loads, (stream / "events.jsonl").read_text().splitlines())
            if event["type"] == "result"
        ]
        served = [data["label"] for data in results if data["source"] != "computed"]
        if served:
            errors.append(f"empty evaluation cache served {len(served)} results")
        feasible = [data["label"] for data in results if data["feasible"]]
        suite = self.suites[0]
        errors += check_stage_counts(suite, feasible, self.expected[self.expected_key][suite], self.stages)
        return errors


class GridStream(GridWorkload):
    """961-candidate --stream campaign: exploration, cache writes, checkpoints.

    The shared artifact store starts empty: the untimed warm-up op fills it.
    """

    name = "grid_stream"
    ref_iterations = 1_100_000

    def new_op(self, index: int) -> Op:
        directory = self.work / f"op-{index}"
        stream = directory / "stream"
        argv = self.argv(directory / "evals", directory / "report.json", self.artifacts, stream)
        return Op(
            lambda: self.run_cli(argv),
            lambda output: self.check_stream(output, stream),
            directory,
            [self.artifacts],
        )


class GridWarm(GridWorkload):
    """The grid_stream campaign re-run without --stream against warm stores."""

    name = "grid_warm"
    ref_iterations = 160_000

    def prepare(self) -> None:
        # One cold --stream run fills both stores and gives the
        # deterministic report every warm op must reproduce.
        self.evals = self.work / "evals"
        stream = self.work / "prep-stream"
        argv = self.argv(self.evals, self.work / "prep-report.json", self.artifacts, stream)
        output = self.run_cli(argv)
        self.stream_report = load(output)
        errors = self.check_stream(output, stream)
        if errors:
            raise RuntimeError(f"preparation failed: {errors}")

    def new_op(self, index: int) -> Op:
        directory = self.work / f"op-{index}"
        argv = self.argv(self.evals, directory / "report.json", self.artifacts)
        return Op(lambda: self.run_cli(argv), self.check, directory, [self.evals, self.artifacts])

    def check(self, output: Path) -> List[str]:
        report = load(output)["report"]
        errors = self.check_report(report["suites"])
        if report["cache_misses"] or report["artifact_misses"]:
            errors.append(
                f"warm stores missed {report['cache_misses']} evaluations and "
                f"{report['artifact_misses']} artifacts"
            )
        # Every field of grid_stream's deterministic report must match
        # (area_reduction_percent, derived from the areas, is not in the
        # plain report).
        for field, value in self.stream_report.items():
            if field != "suites" and report[field] != value:
                errors.append(f"{field} = {report[field]!r}, --stream report has {value!r}")
        for warm, streamed in zip(report["suites"], self.stream_report["suites"]):
            for field, value in streamed.items():
                if field in warm and warm[field] != value:
                    errors.append(f"{field} = {warm[field]!r}, --stream report has {value!r}")
        return errors


class PaperTables(Workload):
    """Tables 4 and 5: Livermore + DSP kernels on the nine paper architectures."""

    name = "paper_tables"
    ref_iterations = 1_000_000

    def prepare(self) -> None:
        # Base schedules are built here, untimed, and each op starts from a
        # copy of this store; every one is checked independently.
        self.base_store = self.work / "base-artifacts"
        mapper = RSPMapper(store=ArtifactStore(self.base_store))
        base = base_architecture()
        for kernel in list(livermore_suite()) + list(dsp_suite()):
            mapper.map_kernel(kernel, base)
            schedule = mapper.pipeline.base_schedule_artifact(kernel).value
            dfg = mapper.pipeline.dfg_artifact(kernel).value
            violations = check_schedule(schedule, dfg, base)
            if violations:
                raise RuntimeError(f"base schedule of {kernel.name}: {violations[:3]}")

    def setup_spec(self) -> dict:
        return {"artifact_dir": str(self.work / "setup-probe" / "artifacts")}

    def new_op(self, index: int) -> Op:
        directory = self.work / f"op-{index}"
        shutil.copytree(self.base_store, directory / "artifacts")

        def call():
            mapper = RSPMapper(store=ArtifactStore(directory / "artifacts"))
            rendered = [tables.table4_livermore(mapper=mapper), tables.table5_dsp(mapper=mapper)]
            text = "\n\n".join(tables.format_performance_table(t) for t in rendered)
            (directory / "tables.txt").write_text(text + "\n", encoding="utf-8")
            return rendered

        return Op(call, self.check, directory)

    def check(self, rendered) -> List[str]:
        errors: List[str] = []
        for table, want in zip(rendered, self.expected["tables"]):
            got = {
                kernel: {arch: [r.cycles, r.stalls] for arch, r in per_arch.items()}
                for kernel, per_arch in table.records.items()
            }
            if got != want:
                errors.append(f"{table.title}: cycles/stalls differ from expected.json")
        return errors


WORKLOADS = {cls.name: cls for cls in (CampaignCold, GridStream, GridWarm, PaperTables)}
