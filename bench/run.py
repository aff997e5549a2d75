"""beqpt benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the repository
root; bench/NOTES.md explains them.  Every measurement happens in a fresh
single-threaded client process (bench/client.py).  With ``--trace 0`` the
run reports the end-to-end metrics: ``setup_s`` is the median wall time
of several fresh set-up processes, the rest come from one closed-loop
client, which scales its times to nominal machine speed (bench/speed.py).
With ``--trace 1`` a traced client reports per-layer metrics,
and ``trace.overhead_share`` compares its time per pass with that of an
untraced client on the same workload and seed (taken from the record the
last untraced run left, or measured on the spot).

The last stdout line is the result object; the line before it holds the
details: environment, per-op result digests and failures.  The exit code
is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLIENT = BENCH / "client.py"
RECORDS = BENCH / "work" / "records"
SETUP_SAMPLES = 7
CLIENT_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def client_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_client(args, mode: str) -> tuple[dict, float]:
    argv = [sys.executable, str(CLIENT), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=client_env(), capture_output=True,
                              text=True, timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} client exceeded {CLIENT_TIMEOUT_S} s") from exc
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{mode} client exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def fingerprint(args) -> str:
    """Identifies the code and inputs behind an untraced record."""
    h = hashlib.sha256(f"{args.workload} {args.seed} {args.smoke}".encode())
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:24]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def untraced_unit_s(args) -> tuple[float, str]:
    record = RECORDS / f"{fingerprint(args)}.json"
    if record.is_file():
        return json.loads(record.read_text())["unit_s"], "record"
    result, _ = run_client(args, "plain")
    return result["unit_s"], "measured"


def measure(args, spec: dict) -> tuple[dict, dict]:
    if args.trace:
        base_s, base_source = untraced_unit_s(args)
        result, _ = run_client(args, "traced")
        values = dict(result["layers"])
        values["trace.overhead_share"] = result["unit_s"] / base_s - 1.0
        extra = {"untraced_unit_s": base_s, "untraced_source": base_source,
                 "traced_unit_s": result["unit_s"]}
        wanted = spec["per_layer"]
    else:
        setups = [run_client(args, "setup")[1] for _ in range(SETUP_SAMPLES)]
        result, _ = run_client(args, "plain")
        RECORDS.mkdir(parents=True, exist_ok=True)
        (RECORDS / f"{fingerprint(args)}.json").write_text(
            json.dumps({"unit_s": result["unit_s"]}))
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        extra = {"setup_samples_s": setups,
                 "raw_solve_s": result["raw_solve_s"],
                 "speed_samples": result["speed_samples"]}
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(result["environment"], git_commit=git_commit()),
        "passes": result["passes"],
        "pass_s": result["pass_s"],
        "ops_per_pass": result["ops_per_pass"],
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "digests": result["digests"],
        **extra,
    }
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return details, summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes, for bench/smoke.py")
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "beqpt" / "__init__.py").is_file():
            raise BenchError(f"no beqpt sources under {ROOT / 'src'}")
        details, summary = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
