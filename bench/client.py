"""One workload run in a fresh single-threaded interpreter.

Usage (normally started by run.py, which sets the BLAS thread variables):

    python3 bench/client.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (import, build inputs, warm up, exit), ``plain`` or
``traced``.  The client is one closed-loop caller: it issues the next
operation only after the previous one returned, checks every result, and
prints a single JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# See-saw reference instances.  The cost of one restart depends on its
# random stream far more than on the code (at d=4 one restart takes 0.8 s,
# another 29 s), so a run that solves a seed-dependent instance cannot give
# a steady time.  These are the acceptance row's d=3 call and the d=4 call
# whose second restart exhausts max_outer with 200-iteration projection
# caps; --seed does not change them.
SEESAW = {
    "seesaw-d3": {"d": 3, "seed": 1, "restarts": 20, "gate": (1.15, float("inf"))},
    "seesaw-d4": {"d": 4, "seed": 1, "restarts": 2, "gate": (1.3, 1.5 + 1e-6)},
}
SMOKE_RESTARTS = 1
RESIDUAL_GATE = -1e-7
PIPELINE_DIMS = (2, 3, 4, 5, 6)
SMOKE_DIMS = (2, 3)
SMOKE_ROWS = ("row_ccnr_extremal_4x4", "row_ccnr_extremal_3x3")
RUDOLPH_TRIALS = 4


def _import_beqpt():
    if not (SRC / "beqpt" / "__init__.py").is_file():
        raise SystemExit(f"no beqpt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beqpt

    if Path(beqpt.__file__).resolve().parent != (SRC / "beqpt").resolve():
        raise SystemExit(f"imported beqpt from {beqpt.__file__}, not from {SRC}")
    return beqpt


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not and
    returns (ok, digest of the deterministic results, extra facts)."""

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


# ---------------------------------------------------------------- see-saw

def seesaw_ops(workload: str, smoke: bool) -> tuple[list[Op], int]:
    from beqpt import reports, seesaw

    spec = SEESAW[workload]
    cfg = seesaw.SeesawConfig(d=spec["d"], seed=spec["seed"],
                              restarts=SMOKE_RESTARTS if smoke else spec["restarts"])
    lo, hi = spec["gate"]

    def call():
        return seesaw.optimize(cfg)

    def check(res):
        results = reports.to_jsonable(
            {**res.to_dict(), "best_state": reports.matrix_file(res.best_state)})
        ok = (lo <= res.best_value <= hi
              and res.ppt_residual >= RESIDUAL_GATE
              and res.psd_residual >= RESIDUAL_GATE)
        return ok, _digest(results), {"best_value": res.best_value,
                                      "ppt_residual": res.ppt_residual,
                                      "psd_residual": res.psd_residual}

    return [Op(f"optimize d={cfg.d} seed={cfg.seed} restarts={cfg.restarts}", call, check)], \
        cfg.projection_iters


def seesaw_warmup() -> None:
    from beqpt import seesaw

    seesaw.optimize(seesaw.SeesawConfig(d=2, seed=0, restarts=1, max_outer=3))


# --------------------------------------------------------- probe pipeline

def _zoo(d: int, rng: random.Random) -> list[list[str]]:
    """Every zoo state that exists at local dimension d, with seeded
    parameters."""
    zoo = [
        ["max-entangled", "--d", str(d)],
        ["werner", "--d", str(d), "--f", f"{rng.uniform(-1.0, -0.5):.6g}"],
        ["werner", "--d", str(d), "--v", f"{rng.uniform(0.0, 1.0):.6g}"],
        ["isotropic", "--d", str(d), "--alpha", f"{rng.uniform(0.2, 0.9):.6g}"],
        ["gamma", "--k", str(d), "--n", str(d // 2),
         "--eps", f"{10 ** rng.uniform(-2, 0):.6g}"],
    ]
    if d == 2:
        zoo.append(["bell", "--which", rng.choice(["phi+", "phi-", "psi+", "psi-"])])
    else:
        zoo.append(["filtered-werner", "--d", str(d), "--v", f"{rng.uniform(0.0, 1.0):.6g}"])
    if d == 3:
        zoo.append(["rho-ccnr-3x3"])
    if d == 4:
        zoo.append(["rho-ccnr"])
    return zoo


def _faithful_probe(d: int, rng: random.Random, noisy: bool, turn: int) -> list[str]:
    """The ``turn``-th, cyclically, of the probes the reconstruction
    accepts at d, with seeded parameters.  Noisy runs keep to the better
    conditioned ones: with noise, Werner probes at d >= 5, isotropic ones
    with alpha near 0.2 at d=6 and the 3x3 bound entangled probe make
    reconstruct exit 2 (Choi not PSD within the noise budget, or Choi
    trace not 1), a known exit-code defect outside this benchmark."""
    probes = [
        ["max-entangled", "--d", str(d)],
        ["isotropic", "--d", str(d),
         "--alpha", f"{rng.uniform(0.5 if noisy else 0.2, 0.9):.6g}"],
    ]
    if d <= 4 or not noisy:
        probes.append(["werner", "--d", str(d), "--f", f"{rng.uniform(-1.0, -0.5):.6g}"])
    if d == 2:
        probes.append(["bell", "--which", rng.choice(["phi+", "phi-", "psi+", "psi-"])])
    if d == 3 and not noisy:
        probes.append(["rho-ccnr-3x3"])
    if d == 4:
        probes.append(["rho-ccnr"])
    return probes[turn % len(probes)]


def pipeline_plan(seed: int, smoke: bool) -> list[tuple]:
    """The seeded command mix of one pass: (argv, expected exit code).

    Every pass has the same shape, so its cost barely depends on the seed:
    per d, two diagnoses of every zoo state, a reconstruction through each
    channel (four at the largest d, two of them noisy; at smaller d, two
    of the five are noisy), one through an unfaithful probe (exit 1) and
    one filter analysis; Rudolph checks at d=2 and d=4.  Reconstructions
    take the faithful probes in turn, so each is used about equally
    often.  The seed picks parameters, channel seeds, where the turns
    start, which reconstructions get noise, and how much.  The counts put the
    median op among the diagnoses and the 90th percentile among the
    largest-d reconstructions, not on a gap between two kinds of op.
    """
    rng = random.Random(seed)
    plan = []
    dims = SMOKE_DIMS if smoke else PIPELINE_DIMS
    for d in dims:
        for state in _zoo(d, rng) + _zoo(d, rng):
            plan.append((["diagnose", "--state", *state], 0))
        if d in (2, 4):
            plan.append((["diagnose", "--state", "isotropic", "--d", str(d),
                          "--alpha", f"{rng.uniform(0.2, 0.9):.6g}",
                          "--rudolph-trials", str(RUDOLPH_TRIALS),
                          "--seed", str(rng.randrange(10 ** 6))], 0))
        channels = [
            ["identity", "--channel-d", str(d)],
            ["depolarizing", "--channel-d", str(d), "--p", f"{rng.uniform(0, 1):.6g}"],
            ["dephasing", "--channel-d", str(d), "--p", f"{rng.uniform(0, 1):.6g}"],
            ["random-unitary", "--channel-d", str(d),
             "--channel-seed", str(rng.randrange(10 ** 6))],
            ["random-cptp", "--channel-d", str(d), "--kraus", "3",
             "--channel-seed", str(rng.randrange(10 ** 6))],
        ]
        noisy_at = set(rng.sample(range(len(channels)), 2))
        turns = dict.fromkeys((False, True), rng.randrange(60))
        for i, channel in enumerate(channels):
            noise = (False, True) * 2 if d == dims[-1] else (i in noisy_at,)
            for noisy in noise:
                turns[noisy] += 1
                argv = ["reconstruct", "--probe", *_faithful_probe(d, rng, noisy, turns[noisy]),
                        "--channel", *channel]
                if noisy:
                    argv += ["--noise", f"{10 ** rng.uniform(-6, -3):.6g}",
                             "--seed", str(rng.randrange(10 ** 6))]
                plan.append((argv, 0))
        unfaithful = (["isotropic", "--d", "2", "--alpha", "0"] if d == 2 else
                      ["filtered-werner", "--d", str(d), "--v", f"{rng.uniform(0, 1):.6g}"])
        plan.append((["reconstruct", "--probe", *unfaithful,
                      "--channel", "identity", "--channel-d", str(d)], 1))
        if d == 2:
            plan.append((["filter", "--state", "werner", "--d", "2",
                          "--f", f"{rng.uniform(-1.0, 1.0):.6g}", "--filter", "identity"], 0))
        else:
            plan.append((["filter", "--state", "werner", "--d", str(d),
                          "--v", f"{rng.uniform(0, 1):.6g}", "--filter", "werner"], 0))
    return plan


class _Discard:
    def write(self, s):
        return len(s)

    def flush(self):
        pass


def pipeline_ops(seed: int, smoke: bool, workdir: Path) -> list[Op]:
    import beqpt.cli
    from beqpt import acceptance

    ops = []
    for i, (argv, expected) in enumerate(pipeline_plan(seed, smoke)):
        out = workdir / f"op{i}.json"

        def call(argv=argv, out=out):
            sink = _Discard()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return beqpt.cli.main([*argv, "--out", str(out)])

        def check(code, expected=expected, out=out, cmd=argv[0]):
            extra = {"exit": code}
            if not out.is_file():  # exit 2 writes no report
                return False, "", extra
            report = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
            results = report["results"]
            if cmd == "diagnose" and results["report"]["ppt"]:
                extra["ppt_ccnr"] = results["report"]["ccnr_value"]
            return code == expected, _digest(results), extra

        ops.append(Op(" ".join(argv), call, check))

    # The ten acceptance rows that do not run the see-saw, called one by
    # one; `reproduce` stays out because seesaw-d3 already times its
    # see-saw row.
    rows = [fn.__name__ for fn in acceptance.ROWS if fn.__name__ != "row_seesaw"]
    for name in SMOKE_ROWS if smoke else rows:
        def call(name=name):
            return getattr(acceptance, name)()

        def check(row):
            return row.passed, _digest(row.to_dict()), {}

        ops.append(Op(f"acceptance.{name}", call, check))
    return ops


def pipeline_warmup(workdir: Path) -> None:
    import beqpt.cli

    out = str(workdir / "warmup.json")
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in (["diagnose", "--state", "bell", "--which", "phi+"],
                     ["reconstruct", "--probe", "max-entangled", "--d", "2",
                      "--channel", "identity", "--channel-d", "2"],
                     ["filter", "--state", "werner", "--d", "3", "--v", "0.5",
                      "--filter", "werner"]):
            beqpt.cli.main([*argv, "--out", out])


# -------------------------------------------------------------- run loop

def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {k: cfg["Build Dependencies"]["blas"].get(k)
                for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run(args) -> dict:
    _import_beqpt()
    seesaw = args.workload in SEESAW
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / "work"))
    try:
        projection_iters = 0
        if seesaw:
            ops, projection_iters = seesaw_ops(args.workload, args.smoke)
            seesaw_warmup()
        else:
            ops = pipeline_ops(args.seed, args.smoke, workdir)
            pipeline_warmup(workdir)
        if args.mode == "setup":
            return {}

        sys.path.insert(0, str(BENCH))
        import speed

        tracer = sampler = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            sampler = speed.Sampler(args.seed)
            sampler.start()

        # A pass is one run of every op.  Plain runs repeat passes until
        # --seconds are spent (two at least, so digests are compared
        # across repeats); traced runs make a fixed number of passes so
        # their counts repeat exactly.  An op's time leaves out the time
        # the speed sampler took from it.
        min_passes = 1 if seesaw else 2
        latencies: list[list] = [[] for _ in ops]
        spans: list[list] = [[] for _ in ops]
        pass_s, failures = [], []
        digests: dict[str, str] = {}
        facts: dict[str, dict] = {}
        t_start = time.perf_counter()
        while True:
            this_pass = 0.0
            for op, samples, op_spans in zip(ops, latencies, spans):
                t0 = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # an op that raises is a failed op
                    t1 = time.perf_counter()
                    dt = t1 - t0
                    failures.append(f"{op.name}: raised {exc!r}")
                else:
                    t1 = time.perf_counter()
                    dt = t1 - t0
                    ok, digest, extra = op.check(result)
                    if digests.setdefault(op.name, digest) != digest:
                        ok = False
                        extra["digest_changed"] = True
                    if not ok:
                        failures.append(f"{op.name}: {extra}")
                    facts[op.name] = extra
                if sampler:
                    dt -= sampler.taken(t0, t1)
                samples.append(dt)
                op_spans.append((t0, t1))
                this_pass += dt
            pass_s.append(this_pass)
            if len(pass_s) >= min_passes and (
                    tracer is not None or time.perf_counter() - t_start >= args.seconds):
                break
        if tracer is not None:
            tracer.uninstall()
        if sampler is not None:
            sampler.stop()

        if seesaw:
            best_value = statistics.median(f["best_value"] for f in facts.values())
        else:
            best_value = max(f["ppt_ccnr"] for f in facts.values() if "ppt_ccnr" in f)
        attempted = sum(map(len, latencies))
        busy_s = sum(map(sum, latencies))
        # Each op time is scaled to nominal machine speed by the chunks
        # sampled around it (see speed.py), and each op counts with its
        # median over the passes.
        def scaled(t, span):
            return t * sampler.scale(*span) if sampler else t

        op_ms = [1e3 * statistics.median(map(scaled, v, s)) for v, s in zip(latencies, spans)]
        raw_ms = [1e3 * statistics.median(v) for v in latencies]
        solve_s = sum(op_ms) / 1e3
        out = {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:20],
            "passes": len(pass_s),
            "ops_per_pass": len(ops),
            "unit_s": statistics.mean(pass_s),
            "pass_s": pass_s,
            "raw_solve_s": sum(raw_ms) / 1e3,
            "speed_samples": len(sampler.chunk_s) if sampler else 0,
            "digests": digests,
            "environment": environment(args.seed),
            "metrics": {
                "solve_s": solve_s,
                "best_value": best_value,
                "ops_per_s": len(ops) / solve_s,
                "op_p50_ms": percentile(op_ms, 0.5),
                "op_p90_ms": percentile(op_ms, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
        }
        if tracer is not None:
            out["layers"] = tracer.summary(busy_s, projection_iters)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=[*SEESAW, "probe-pipeline"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--smoke", action="store_true", help="minimal sizes")
    args = p.parse_args(argv)
    (BENCH / "work").mkdir(exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
