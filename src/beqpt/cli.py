"""Command-line front end.

Exit codes: 0 success, 1 domain verdict (unfaithful probe, annihilated
state, failed reference row), 2 malformed input or usage error.  All
stochastic commands require an explicit seed; reports are JSON and the
results section is byte-reproducible for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import acceptance
from . import channels as ch
from . import diagnostics as diag
from . import filtering as filt
from . import seesaw
from . import states
from . import tomography as tomo
from .bipartite import DensityMatrix, haar_unitary, partial_trace, BipartiteOperator, _permute_subsystems
from .reports import (
    load_density_matrix,
    load_local_operator,
    make_report,
    matrix_file,
    report_json,
    write_report,
)

STATE_NAMES = (
    "bell", "max-entangled", "werner", "isotropic", "gamma",
    "rho-ccnr", "rho-ccnr-3x3", "filtered-werner",
)
CHANNEL_NAMES = ("identity", "depolarizing", "dephasing", "random-unitary", "random-cptp")


def _need(args, attr, flag, context):
    value = getattr(args, attr)
    if value is None:
        raise ValueError(f"{context} requires {flag}")
    return value


def build_state(args, prefix: str = "state") -> tuple:
    """Build a state from CLI flags; returns (DensityMatrix, inputs-echo)."""
    name = getattr(args, prefix.replace("-", "_"))
    path = getattr(args, f"{prefix.replace('-', '_')}_file")
    file_flag = "--file" if prefix == "state" else f"--{prefix}-file"
    if (name is None) == (path is None):
        raise ValueError(f"give exactly one of --{prefix} or {file_flag}")
    if path is not None:
        return load_density_matrix(path), {f"{prefix}_file": path}
    echo = {prefix: name}
    if name == "bell":
        which = _need(args, "which", "--which", "bell")
        echo["which"] = which
        return states.bell_state(which), echo
    if name == "max-entangled":
        d = _need(args, "d", "--d", "max-entangled")
        echo["d"] = d
        return states.max_entangled_state(d), echo
    if name == "werner":
        d = _need(args, "d", "--d", "werner")
        echo["d"] = d
        if args.f is not None:
            echo["f"] = args.f
            return states.werner_f(d, args.f), echo
        if args.v is not None:
            echo["v"] = args.v
            return states.werner_v(d, args.v), echo
        raise ValueError("werner requires --f or --v")
    if name == "isotropic":
        d = _need(args, "d", "--d", "isotropic")
        alpha = _need(args, "alpha", "--alpha", "isotropic")
        echo.update(d=d, alpha=alpha)
        return states.isotropic(d, alpha), echo
    if name == "gamma":
        k = _need(args, "k", "--k", "gamma")
        n = _need(args, "n", "--n", "gamma")
        eps = _need(args, "eps", "--eps", "gamma")
        echo.update(k=k, n=n, eps=eps)
        return states.cariello_gamma(states.GammaParams(k=k, n=n, eps=eps)), echo
    if name == "rho-ccnr":
        return states.rho_ccnr(), echo
    if name == "rho-ccnr-3x3":
        return states.rho_ccnr_3x3(), echo
    if name == "filtered-werner":
        d = _need(args, "d", "--d", "filtered-werner")
        v = _need(args, "v", "--v", "filtered-werner")
        echo.update(d=d, v=v)
        return states.filtered_werner_closed_form(d, v), echo
    raise ValueError(f"unknown state {name!r}")


def build_channel(args) -> tuple:
    name = args.channel
    echo = {"channel": name}
    if name == "identity":
        d = _need(args, "channel_d", "--channel-d", "identity channel")
        echo["d"] = d
        return ch.identity_channel(d), echo
    if name == "depolarizing":
        d = _need(args, "channel_d", "--channel-d", "depolarizing")
        p = _need(args, "p", "--p", "depolarizing")
        echo.update(d=d, p=p)
        return ch.depolarizing(d, p), echo
    if name == "dephasing":
        d = _need(args, "channel_d", "--channel-d", "dephasing")
        p = _need(args, "p", "--p", "dephasing")
        echo.update(d=d, p=p)
        return ch.dephasing(d, p), echo
    if name == "random-unitary":
        d = _need(args, "channel_d", "--channel-d", "random-unitary")
        seed = _need(args, "channel_seed", "--channel-seed", "random-unitary")
        echo.update(d=d, channel_seed=seed)
        return ch.unitary_channel(haar_unitary(d, np.random.default_rng(seed))), echo
    if name == "random-cptp":
        d = _need(args, "channel_d", "--channel-d", "random-cptp")
        seed = _need(args, "channel_seed", "--channel-seed", "random-cptp")
        n = args.kraus
        echo.update(d=d, channel_seed=seed, kraus=n)
        return ch.random_cptp(d, n, seed), echo
    raise ValueError(f"unknown channel {name!r}")


def _emit(report: dict, out: str | None, summary_lines) -> None:
    for line in summary_lines:
        print(line)
    if out is not None:
        write_report(report, out)
    else:
        print(report_json(report))


def _trace_out_second_pair(rho: DensityMatrix) -> DensityMatrix:
    """Demote a (AA')|(BB') two-qubit-pair state to its (A)|(B) marginal;
    used to demonstrate that discarding subsystems can move the CCNR
    value either way."""
    mat = _permute_subsystems(rho.mat, (2, 2, 2, 2), (0, 2, 1, 3))  # -> A,B,A',B'
    reduced = partial_trace(BipartiteOperator(mat, 4, 4), "B")
    return DensityMatrix(reduced, 2, 2)


def cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    rho, echo = build_state(args)
    results = {"report": diag.full_report(rho).to_dict()}
    if args.rudolph_trials is not None:
        seed = _need(args, "seed", "--seed", "--rudolph-trials")
        echo["rudolph_trials"] = args.rudolph_trials
        echo["seed"] = seed
        results["rudolph"] = diag.rudolph_checks(rho, args.rudolph_trials, seed).to_dict()
        if rho.dA == rho.dB == 4:
            # tracing out subsystems may move the CCNR value either way;
            # shown for illustration, nothing is asserted about it
            results["trace_out_demo"] = {
                "ccnr_before": results["report"]["ccnr_value"],
                "ccnr_after_tracing_second_pair": diag.ccnr_value(
                    _trace_out_second_pair(rho)
                ),
            }
    if args.dump_state is not None:
        write_report(matrix_file(rho), args.dump_state)
    rep = make_report("diagnose", echo, results,
                      {"total_s": time.perf_counter() - t0})
    r = results["report"]
    _emit(rep, args.out, [
        f"ccnr_value        {r['ccnr_value']:.12g}"
        f"  ({'entangled' if r['ccnr_entangled'] else 'not detected'})",
        f"ppt               {r['ppt']}  (min eig of partial transpose {r['min_eig_pt']:.3e})",
        f"faithful          {r['faithful']}  (operator Schmidt rank {r['schmidt_rank']})",
        f"purity            {r['purity']:.12g}",
    ])
    return 0


def cmd_reconstruct(args) -> int:
    t0 = time.perf_counter()
    probe, probe_echo = build_state(args, prefix="probe")
    channel, ch_echo = build_channel(args)
    inputs = {**probe_echo, **ch_echo, "noise": args.noise, "seed": args.seed}
    try:
        result = tomo.run_aaqpt(channel, probe, noise=args.noise, seed=args.seed)
    except tomo.UnfaithfulProbe as exc:
        rep = make_report(
            "reconstruct", inputs,
            {"verdict": "unfaithful_probe",
             "sigma_min": exc.sigma_min,
             "sigma_max": exc.sigma_max,
             "rel_tol": exc.rel_tol},
            {"total_s": time.perf_counter() - t0},
        )
        _emit(rep, args.out, [f"unfaithful probe: {exc}"])
        return 1
    results = result.to_dict()
    results["verdict"] = "ok"
    d = result.choi_reconstructed.d
    results["choi_reconstructed"] = matrix_file(
        BipartiteOperator(result.choi_reconstructed.mat, d, d))
    results["choi_true"] = matrix_file(BipartiteOperator(result.choi_true.mat, d, d))
    results["superop_reconstructed"] = matrix_file(
        BipartiteOperator(result.superop_reconstructed, d, d))
    rep = make_report("reconstruct", inputs, results,
                      {"total_s": time.perf_counter() - t0})
    _emit(rep, args.out, [
        f"choi trace distance  {result.trace_distance:.6e}",
        f"probe condition      {result.probe_condition_number:.6g}",
    ])
    return 0


def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    keys = ("max_outer", "step", "projection_iters", "projection_tol",
            "objective_tol", "restarts")
    cfg_kwargs = {"d": args.d, "seed": args.seed}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(file_overrides, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        bad = set(file_overrides) - set(keys)
        if bad:
            raise ValueError(f"{args.config}: unknown config keys {sorted(bad)}")
        cfg_kwargs.update(file_overrides)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            cfg_kwargs[key] = value
    cfg = seesaw.SeesawConfig(**cfg_kwargs)
    result = seesaw.optimize(cfg)
    results = result.to_dict()
    results["best_state"] = matrix_file(result.best_state)
    rep = make_report("optimize", cfg.to_dict(), results,
                      {"total_s": time.perf_counter() - t0})
    _emit(rep, args.out, [
        f"best value    {result.best_value:.12g}",
        f"ppt residual  {result.ppt_residual:.3e}",
        f"restarts      {len(result.restarts_summary)}",
    ])
    return 0


def build_filter_pair(args, d: int) -> tuple:
    name = args.filter
    if name == "werner":
        return filt.werner_filters(d), {"filter": "werner"}
    if name == "identity":
        return filt.identity_filters(d), {"filter": "identity"}
    if name == "files":
        a_path = _need(args, "filter_a", "--filter-a", "--filter files")
        b_path = _need(args, "filter_b", "--filter-b", "--filter files")
        pair = filt.FilterPair(load_local_operator(a_path), load_local_operator(b_path))
        return pair, {"filter": "files", "filter_a": a_path, "filter_b": b_path}
    raise ValueError(f"unknown filter {name!r}")


def cmd_filter(args) -> int:
    t0 = time.perf_counter()
    rho, echo = build_state(args)
    pair, filter_echo = build_filter_pair(args, rho.dA)
    inputs = {**echo, **filter_echo}
    try:
        analysis = filt.filter_analysis(rho, pair)
    except filt.AnnihilatedState as exc:
        rep = make_report("filter", inputs, {"verdict": "annihilated_state"},
                          {"total_s": time.perf_counter() - t0})
        _emit(rep, args.out, [f"annihilated state: {exc}"])
        return 1
    results = analysis.to_dict()
    results["verdict"] = "ok"
    rep = make_report("filter", inputs, results,
                      {"total_s": time.perf_counter() - t0})
    _emit(rep, args.out, [
        f"ccnr before  {analysis.before.ccnr_value:.12g}",
        f"ccnr after   {analysis.after.ccnr_value:.12g}",
        f"faithfulness lost  {analysis.faithfulness_lost}",
    ])
    return 0


def cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    timed = acceptance.run_all()
    rows = [row for row, _ in timed]
    lines = []
    for row in rows:
        lines.append(f"[{'PASS' if row.passed else 'FAIL'}] {row.key}: {row.title}")
    all_passed = all(row.passed for row in rows)
    lines.append(f"{sum(r.passed for r in rows)}/{len(rows)} rows passed")
    rep = make_report(
        "reproduce", {},
        {"rows": [row.to_dict() for row in rows], "all_passed": all_passed},
        {"total_s": time.perf_counter() - t0,
         "rows_s": {row.key: seconds for row, seconds in timed}},
    )
    _emit(rep, args.out, lines)
    return 0 if all_passed else 1


def _add_state_flags(p, prefix="state"):
    group = p.add_argument_group(f"{prefix} specification")
    group.add_argument(f"--{prefix}", choices=STATE_NAMES, default=None)
    file_flag = "--file" if prefix == "state" else f"--{prefix}-file"
    group.add_argument(file_flag, dest=f"{prefix}_file", default=None, metavar="PATH")
    if prefix == "state" or prefix == "probe":
        group.add_argument("--d", type=int, default=None)
        group.add_argument("--v", type=float, default=None)
        group.add_argument("--f", type=float, default=None)
        group.add_argument("--alpha", type=float, default=None)
        group.add_argument("--which", choices=("phi+", "phi-", "psi+", "psi-"), default=None)
        group.add_argument("--k", type=int, default=None)
        group.add_argument("--n", type=int, default=None)
        group.add_argument("--eps", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beqpt",
        description="Bound-entangled probes for ancilla-assisted process "
                    "tomography: diagnostics, reconstruction, filtering, and "
                    "the PPT see-saw search.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("diagnose", help="entanglement/faithfulness report for a state")
    _add_state_flags(p)
    p.add_argument("--rudolph-trials", type=int, default=None,
                   help="also run the monotonicity checks with this many trials")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-state", default=None, metavar="PATH",
                   help="write the constructed state as a matrix file")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("reconstruct", help="run the tomography pipeline")
    _add_state_flags(p, prefix="probe")
    p.add_argument("--channel", choices=CHANNEL_NAMES, required=True)
    p.add_argument("--channel-d", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--kraus", type=int, default=3)
    p.add_argument("--channel-seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("optimize", help="see-saw search for PPT states with "
                                        "large realigned trace norm")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--max-outer", type=int, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--projection-iters", type=int, default=None)
    p.add_argument("--projection-tol", type=float, default=None)
    p.add_argument("--objective-tol", type=float, default=None)
    p.add_argument("--config", default=None, metavar="PATH",
                   help="JSON object with config overrides")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("filter", help="apply local filters and compare diagnostics")
    _add_state_flags(p)
    p.add_argument("--filter", choices=("werner", "identity", "files"), required=True)
    p.add_argument("--filter-a", default=None, metavar="PATH")
    p.add_argument("--filter-b", default=None, metavar="PATH")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("reproduce", help="re-derive the published reference "
                                         "values and check every row")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
