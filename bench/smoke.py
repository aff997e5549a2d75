"""Smoke check of the benchmark harness, at minimal sizes.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it makes one untraced and two traced
runs (``--smoke``: one see-saw restart, d in 2..3 and two acceptance rows
for the probe pipeline) and asserts that

* each run exits 0, is correct, and reports every declared metric, by
  name, with its declared unit;
* the per-layer counts (unit ``count``) of the two traced runs repeat
  exactly.

Exits 0 when every check holds; takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    require(proc.returncode == 0,
            f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list, label: str) -> None:
    require(result["correct"] and result["failed"] == 0, f"{label}: not correct: {result}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_metrics(result, spec["per_layer"], f"{workload} traced")
        differ = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
                  for name in counts
                  if first["metrics"][name]["value"] != second["metrics"][name]["value"]}
        require(not differ, f"{workload}: traced counts differ between runs: {differ}")
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
