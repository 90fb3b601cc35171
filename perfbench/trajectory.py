"""Append one point to the benchmark trajectory (``perfbench/trajectory.json``).

Run from the repository root after a change that moves performance::

    python3 perfbench/trajectory.py "short label of the change"

For every workload it runs ``perfbench/run.py`` once untraced and once
traced at seed 0, and appends the end-to-end metrics, the per-layer table
and the environment record under the label, so the trajectory shows every
layer's self time moving across changes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def run(workload: str, trace: int, seconds: int) -> list:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in completed.stdout.strip().splitlines()[-2:]]


def main(label: str) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"label": label, "workloads": {}}
    for workload in (entry["name"] for entry in declared["workloads"]):
        environment, plain = run(workload, 0, declared["run_seconds"])
        _, traced = run(workload, 1, declared["run_seconds"])
        point["environment"] = environment["environment"]
        point["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": {name: m["value"] for name, m in plain["metrics"].items()},
            "per_layer": {
                name: m["value"] for name, m in traced["metrics"].items() if m["value"]
            },
        }
        print(f"{workload}: done", flush=True)
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
