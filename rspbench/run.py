"""Campaign benchmark of the RSP design-space exploration flow.

Usage (from the repository root):

    python3 rspbench/run.py --workload campaign_cold --seed 1 --seconds 18 --trace 0

Runs one workload as a closed loop -- one client, one process, one
thread; the next op starts only after the previous one ends -- for
``--seconds`` seconds after an untimed preparation and warm-up op, checks
every op's output, and prints a metric table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates plain and traced ops and
reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence

from layers import ROOT, Hooks, Recorder, exclusive_self_times
from refloop import timed
from schedcheck import check_schedule

BENCH = Path(__file__).resolve().parent

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {"op_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "disk_mb": "MB"}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "setup.import_s": "s",
    "host.setup_s": "s",
    "host.op_s": "s",
    "host.ref_s": "s",
    "host.cpu_ratio": "ratio",
    "ir.build_dfg.self_s": "s",
    "ir.build_dfg.calls": "count",
    "mapping.schedule.self_s": "s",
    "mapping.schedule.calls": "count",
    "mapping.schedule.max_kernel_s": "s",
    "mapping.schedule.ops_per_s": "1/s",
    "mapping.placement.probes": "count",
    "mapping.profile.self_s": "s",
    "mapping.rearrange.self_s": "s",
    "mapping.rearrange.calls": "count",
    "mapping.fingerprint.self_s": "s",
    "mapping.pipeline.self_s": "s",
    "flowgraph.run.self_s": "s",
    "core.batch.self_s": "s",
    "core.batch.candidates": "count",
    "engine.explore.self_s": "s",
    "engine.job_hash.self_s": "s",
    "engine.job_hash.per_job": "ratio",
    "engine.checkpoint.save_s": "s",
    "engine.checkpoint.saves": "count",
    "engine.checkpoint.bytes_written": "B",
    "engine.stream.emit_s": "s",
    "engine.stream.events": "count",
    "engine.report.self_s": "s",
    "store.artifact.fetch_s": "s",
    "store.artifact.put_s": "s",
    "store.artifact.hits": "count",
    "store.artifact.misses": "count",
    "store.artifact.hit_ratio": "ratio",
    "store.eval.get_s": "s",
    "store.eval.hits": "count",
    "store.eval.misses": "count",
    "store.eval.hit_ratio": "ratio",
    "store.eval.put_s": "s",
    "store.eval.put_records": "count",
    "eval.tables.self_s": "s",
    "check.schedules": "count",
    "unaccounted_s": "s",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Layers whose self time is reported under another name than ``<layer>.self_s``.
_SELF_TIME_NAMES = {
    "engine.checkpoint": "engine.checkpoint.save_s",
    "engine.stream": "engine.stream.emit_s",
    "store.artifact.fetch": "store.artifact.fetch_s",
    "store.artifact.put": "store.artifact.put_s",
    "store.eval.get": "store.eval.get_s",
    "store.eval.put": "store.eval.put_s",
    "unaccounted": "unaccounted_s",
}

#: Metrics that must repeat exactly between ops and runs of one seed and code.
REPEATED = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count" or name.endswith(
        ("hit_ratio", "per_job")
    )
) + ("engine.checkpoint.bytes_written",)

SETUP_PROBES = 5  # the first is dropped: it may compile bytecode

#: ``setup_s`` is reported in seconds at the speed of the host the benchmark
#: was calibrated on, where :data:`SETUP_REF_ITERATIONS` iterations of the
#: reference loop take :data:`SETUP_REF_NOMINAL_S` seconds.
SETUP_REF_ITERATIONS = 100_000
SETUP_REF_NOMINAL_S = 0.0225


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", type=Path, default=None,
                        help="also write every sample of the run to this JSON file")
    return parser.parse_args(argv)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def code_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *BENCH.glob("*.py"), BENCH / "expected.json"]):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup(root: Path, workload) -> Dict[str, List[float]]:
    """Set-up time in fresh interpreters (see setup_probe.py).

    Each probe's set-up wall is divided by the reference loop timed in the
    same interpreter just before and just after it, as ops are, and scaled
    back to seconds at the nominal reference speed.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples: Dict[str, List[float]] = {"import_s": [], "raw_s": [], "setup_s": []}
    spec = json.dumps(workload.setup_spec())
    for probe in range(SETUP_PROBES):
        shutil.rmtree(workload.work / "setup-probe", ignore_errors=True)
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), spec, str(SETUP_REF_ITERATIONS)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if probe:
            probed = json.loads(done.stdout.splitlines()[-1])
            samples["import_s"].append(probed["import_s"])
            samples["raw_s"].append(probed["setup_s"])
            samples["setup_s"].append(probed["setup_s"] / probed["ref_s"] * SETUP_REF_NOMINAL_S)
    shutil.rmtree(workload.work / "setup-probe", ignore_errors=True)
    return samples


def run_op(workload, index: int, traced: bool) -> dict:
    """One op, bracketed by two reference-loop timings."""
    op = workload.new_op(index)
    gc.collect()
    recorder = Recorder() if traced else None
    hooks = Hooks(recorder) if traced else None
    error = None
    iterations = workload.ref_iterations
    ref_before = timed(iterations)
    cpu_start, start = process_time(), perf_counter()
    try:
        op.call()
    except Exception:
        error = traceback.format_exc(limit=4)
    end, cpu_end = perf_counter(), process_time()
    ref_after = timed(iterations)
    if hooks is not None:
        hooks.restore()
    errors, written = op.finish(error)
    sample = {
        "traced": traced,
        "wall": end - start,
        "cpu": cpu_end - cpu_start,
        "ref": (ref_before + ref_after) / 2,
        "disk_bytes": written,
        "errors": errors,
    }
    if recorder is not None:
        self_times = exclusive_self_times([*recorder.spans, (ROOT, start, end)])
        if abs(sum(self_times.values()) - (end - start)) > 1e-6 * (end - start):
            raise SystemExit("error: layer self times do not add up to the traced op wall time")
        for schedule, dfg, architecture, unlimited in recorder.schedules:
            violations = check_schedule(schedule, dfg, architecture, unlimited)
            if violations:
                errors.append(f"{schedule.kernel_name}@{architecture.name}: {violations[:3]}")
        counts = recorder.totals()
        counts["check.schedules"] = len(recorder.schedules)
        errors += workload.check_counts(counts)
        sample.update(self_times=self_times, counts=counts, max_seconds=dict(recorder.max_seconds))
    if errors:
        print(f"op {index} failed: {errors[:3]}", file=sys.stderr)
    return sample


def layer_metrics(traced: dict, jobs: int, overhead: float) -> Dict[str, float]:
    """Per-layer metrics of one traced op."""
    counts, self_times = traced["counts"], traced["self_times"]
    values: Dict[str, float] = {
        name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()
    }
    for layer, seconds in self_times.items():
        values[_SELF_TIME_NAMES.get(layer, f"{layer}.self_s")] = seconds
    for name in PER_LAYER:
        if name in counts:
            values[name] = counts[name]
    schedule_s = self_times.get("mapping.schedule", 0.0)
    values["mapping.schedule.ops_per_s"] = counts.get("mapping.schedule.ops", 0) / schedule_s if schedule_s else 0.0
    values["mapping.schedule.max_kernel_s"] = traced["max_seconds"].get("mapping.schedule", 0.0)
    values["engine.job_hash.per_job"] = counts.get("engine.job_hash.calls", 0) / jobs if jobs else 0.0
    for store in ("store.artifact", "store.eval"):
        lookups = counts.get(f"{store}.hits", 0) + counts.get(f"{store}.misses", 0)
        values[f"{store}.hit_ratio"] = counts.get(f"{store}.hits", 0) / lookups if lookups else 0.0
    values["trace.op_s"] = traced["wall"]
    values["trace.overhead_ratio"] = overhead
    return values


def check_repeats(samples: List[dict], values: Dict[str, float], state: Path) -> None:
    """Fail loudly unless every count repeats across traced ops and runs."""
    first = samples[0]["counts"]
    for sample in samples[1:]:
        for name in set(first) | set(sample["counts"]):
            if first.get(name, 0) != sample["counts"].get(name, 0):
                raise SystemExit(
                    f"error: count {name} did not repeat between traced ops: "
                    f"{first.get(name, 0)} vs {sample['counts'].get(name, 0)}"
                )
    counts = {name: values[name] for name in REPEATED}
    if state.exists():
        previous = json.loads(state.read_text())
        for name, value in counts.items():
            if previous.get(name) != value:
                raise SystemExit(
                    f"error: count {name} did not repeat across runs of this seed: "
                    f"{previous.get(name)} before, {value} now ({state})"
                )
    else:
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_text(json.dumps(counts, sort_keys=True))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: no src/repro under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, expected)
        if args.workload == "paper_tables":
            print("paper_tables: the seed is unused (the tables have no random inputs)")
        setup = measure_setup(root, workload)
        workload.prepare()
        warmup = run_op(workload, 0, traced=False)
        if warmup["errors"]:
            print(f"error: warm-up op failed: {warmup['errors']}", file=sys.stderr)
            return 1
        samples: List[dict] = []
        deadline = perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            samples.append(run_op(workload, len(samples) + 1, traced))
            plain = [s for s in samples if not s["traced"]]
            enough = not args.trace or len(samples) - len(plain) >= 2
            if perf_counter() >= deadline and enough:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for sample in samples if sample["errors"])
    plain = [s for s in samples if not s["traced"]]
    good = [s for s in plain if not s["errors"]] or plain
    op_ref = [s["wall"] / s["ref"] for s in good]
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        overhead = median([s["wall"] / s["ref"] for s in traced]) / median(op_ref)
        representative = sorted(traced, key=lambda s: s["wall"])[(len(traced) - 1) // 2]
        values = layer_metrics(representative, workload.jobs, overhead)
        values["setup.import_s"] = median(setup["import_s"])
        values["host.setup_s"] = median(setup["raw_s"])
        values["host.op_s"] = median([s["wall"] for s in good])
        values["host.ref_s"] = median([s["ref"] for s in good])
        values["host.cpu_ratio"] = median([s["cpu"] / s["wall"] for s in good])
        check_repeats(traced, values, root / ".bench_state" / f"{args.workload}-{args.seed}-{code_digest(root)}.json")
        units, counts = PER_LAYER, {name: len(traced) for name in PER_LAYER}
        counts.update({"setup.import_s": len(setup["import_s"]), "host.setup_s": len(setup["raw_s"]),
                       "host.op_s": len(good),
                       "host.ref_s": len(good), "host.cpu_ratio": len(good)})
    else:
        values = {
            "op_ref": median(op_ref),
            "setup_s": median(setup["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "disk_mb": median([s["disk_bytes"] for s in good]) / 1e6,
        }
        units = END_TO_END
        counts = {"op_ref": len(op_ref), "setup_s": len(setup["setup_s"]),
                  "peak_rss_mb": 1, "disk_mb": len(good)}
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:>16.6f} {unit:6s} n={counts[name]}")
    if args.details is not None:
        args.details.write_text(json.dumps({"setup": setup, "samples": [
            {k: v for k, v in s.items() if k not in ("self_times", "counts", "max_seconds")}
            for s in samples
        ], "values": values}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
