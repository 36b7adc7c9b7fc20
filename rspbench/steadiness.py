"""Record how steady the benchmark is: many runs per workload, one seed each.

Run from the repository root, e.g.

    python3 rspbench/steadiness.py --runs 10 --seconds 18 --trace 0
    python3 rspbench/steadiness.py --runs 10 --seconds 18 --trace 1

Each run is ``rspbench/run.py --workload W --seed S`` with seeds 1..runs.
For every metric the record keeps all values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median.  Plain runs also record ``host.op_s`` and ``host.setup_s``,
the raw seconds behind ``op_ref`` and ``setup_s``, so the spreads can be
compared.  Results are merged
into rspbench/steadiness.json under ``trace0`` / ``trace1`` (or ``--section``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("campaign_cold", "grid_stream", "grid_warm", "paper_tables")


def summary(values):
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": quartiles[0],
        "q3": quartiles[2],
        "spread": (quartiles[2] - quartiles[0]) / middle if middle else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    details = Path(".bench_work") / f"steadiness-{workload}-{seed}.json"
    details.parent.mkdir(exist_ok=True)
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--details", str(details)],
        capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs\n{done.stderr}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        details_record = json.loads(details.read_text())
        samples = details_record["samples"]
        values["host.op_s"] = statistics.median(s["wall"] for s in samples if not s["errors"])
        values["host.setup_s"] = statistics.median(details_record["setup"]["raw_s"])
    details.unlink()
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--section", help="record section (default: trace<0|1>)")
    args = parser.parse_args()
    path = BENCH / "steadiness.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    section = record.setdefault(args.section or f"trace{args.trace}", {})
    for workload in args.workload or WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in range(1, args.runs + 1)]
        section[workload] = {
            "runs": args.runs,
            "seconds": args.seconds,
            "metrics": {name: summary([run[name] for run in runs]) for name in runs[0]},
        }
        for name, stats in section[workload]["metrics"].items():
            print(f"{workload:14s} {name:34s} median {stats['median']:14.6f} spread {stats['spread']:.3f}")
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
