"""Command-line front end.

Exit codes: 0 success, 1 domain verdict (unfaithful probe, annihilated
state, noise budget exceeded, failed reference row), 2 malformed input
or usage error.  All stochastic commands require an explicit seed;
reports are JSON and the results section is byte-reproducible for
identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels as ch
from . import diagnostics as diag
from . import filtering as filt
from . import states
from . import tomography as tomo
from .bipartite import DensityMatrix, check_number, haar_unitary
from .reports import (
    load_density_matrix,
    load_local_operator,
    make_report,
    matrix_file,
    report_json,
    write_report,
)

MAX_D = 16  # largest --d, --k, --channel-d; every published state has d <= 6


def seed(text: str) -> int:
    """The argparse type of a seed flag: numpy seeds only from integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class Param:
    """One flag of a table entry, echoed in ``inputs`` under its dest: its
    argparse type (or choices) and, for a size, the largest value allowed.
    ``value`` checks only a size, before anything is allocated; the
    constructors check and name every other parameter."""

    flag: str
    type: Callable = float
    cap: int | None = None
    choices: tuple | None = None
    default: object = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def value(self, args):
        value = getattr(args, self.dest)
        if self.cap is not None:
            check_number(self.flag, value, lo=1, hi=self.cap)
        return value


D = Param("--d", int, cap=MAX_D)
V, F, ALPHA, EPS, P = (Param(flag) for flag in ("--v", "--f", "--alpha", "--eps", "--p"))
WHICH = Param("--which", str, choices=("phi+", "phi-", "psi+", "psi-"))
CHANNEL_D = Param("--channel-d", int, cap=MAX_D)
CHANNEL_SEED = Param("--channel-seed", seed)
RUDOLPH_TRIALS = Param("--rudolph-trials", int, cap=1000)  # 50x the acceptance row's 20
FILE_A, FILE_B = Param("--filter-a", str), Param("--filter-b", str)
# optimize overrides of the SeesawConfig field of the same name; validated there
TUNABLES = (Param("--restarts", int), Param("--max-outer", int))

# name -> parameter sets (ordered params, constructor); the first set whose
# flags are all given is used.  The lambdas look constructors up when they
# run, so a patched module attribute takes effect.
STATES = {
    "bell": [((WHICH,), lambda which: states.bell_state(which))],
    "max-entangled": [((D,), lambda d: states.max_entangled_state(d))],
    "werner": [((D, F), lambda d, f: states.werner_f(d, f)),
               ((D, V), lambda d, v: states.werner_v(d, v))],
    "isotropic": [((D, ALPHA), lambda d, alpha: states.isotropic(d, alpha))],
    "gamma": [((Param("--k", int, cap=MAX_D), Param("--n", int), EPS),
               lambda k, n, eps: states.cariello_gamma(k, n, eps))],
    "rho-ccnr": [((), lambda: states.rho_ccnr())],
    "rho-ccnr-3x3": [((), lambda: states.rho_ccnr_3x3())],
    "filtered-werner": [((D, V), lambda d, v: states.filtered_werner_closed_form(d, v))],
}
CHANNELS = {
    "identity": [((CHANNEL_D,), lambda d: ch.identity_channel(d))],
    "depolarizing": [((CHANNEL_D, P), lambda d, p: ch.depolarizing(d, p))],
    "dephasing": [((CHANNEL_D, P), lambda d, p: ch.dephasing(d, p))],
    "random-unitary": [((CHANNEL_D, CHANNEL_SEED), lambda d, seed: ch.unitary_channel(
        haar_unitary(d, np.random.default_rng(seed))))],
    "random-cptp": [((CHANNEL_D, CHANNEL_SEED, Param("--kraus", int, cap=MAX_D**2, default=3)),
                     lambda d, seed, n: ch.random_cptp(d, n, seed))],
}
# filter constructors take the state's local dimensions dA, dB first
FILTERS = {
    "werner": [((), lambda dA, _dB: filt.werner_filters(dA))],
    "identity": [((), lambda dA, dB: filt.identity_filters(dA, dB))],
    "files": [((FILE_A, FILE_B), lambda _dA, _dB, a, b: filt.FilterPair(
        load_local_operator(a), load_local_operator(b)))],
}

# domain verdicts (exit 1): exception -> (verdict, fields copied into results)
VERDICTS = {
    tomo.UnfaithfulProbe: ("unfaithful_probe", ("sigma_min", "sigma_max", "rel_tol")),
    filt.AnnihilatedState: ("annihilated_state", ()),
    tomo.NoiseBudgetExceeded: ("noise_budget_exceeded", ("clipped_weight", "budget")),
}


def build(table: dict, kind: str, args, inputs: dict, *context):
    """Construct the ``--kind`` entry named on the command line, echoing the
    name and its parameters into ``inputs``."""
    name = getattr(args, kind)
    for params, make in table[name]:
        if all(getattr(args, p.dest) is not None for p in params):
            chosen = " ".join([f"--{kind}", name, *(p.flag for p in params)])
            _reject_unused(table, args, params, chosen)
            values = [p.value(args) for p in params]
            inputs[kind] = name
            inputs.update((p.dest, v) for p, v in zip(params, values))
            return make(*context, *values)
    missing = dict.fromkeys(next(p.flag for p in params if getattr(args, p.dest) is None)
                            for params, _ in table[name])
    raise ValueError(f"--{kind} {name} requires {' or '.join(missing)}")


def build_state(args, inputs: dict, kind: str = "state") -> DensityMatrix:
    """A named state or a matrix file (``--file``, or ``--<kind>-file``)."""
    path = getattr(args, f"{kind}_file")
    if (getattr(args, kind) is None) == (path is None):
        raise ValueError(f"give exactly one of --{kind} or {_file_flag(kind)}")
    if path is None:
        return build(STATES, kind, args, inputs)
    _reject_unused(STATES, args, (), _file_flag(kind))
    inputs[f"{kind}_file"] = path
    return load_density_matrix(path)


def _reject_unused(table: dict, args, used: tuple, chosen: str):
    """Refuse a flag of ``table`` that is set (differs from its default)
    but not among the ``used`` flags of the ``chosen`` entry."""
    for p in _table_params(table):
        if p not in used and getattr(args, p.dest) != p.default:
            raise ValueError(f"{p.flag} is not used by {chosen}")


def _table_params(table: dict):
    return {p.flag: p for sets in table.values() for ps, _ in sets for p in ps}.values()


def _file_flag(kind: str) -> str:
    return "--file" if kind == "state" else f"--{kind}-file"


def _add_table_flags(parser, table: dict, kind: str, required: bool = False):
    # a group, unlike a parser, adds a flag without building a help
    # formatter for it, which would dominate the cost of a short command
    group = parser.add_argument_group(f"{kind} specification")
    group.add_argument(f"--{kind}", choices=tuple(table), required=required)
    _add_params(group, _table_params(table))
    return group


def _add_params(group, params):
    for p in params:
        group.add_argument(p.flag, type=p.type, choices=p.choices, default=p.default)


def cmd_diagnose(args, inputs: dict, timings: dict) -> tuple:
    trials = None if args.rudolph_trials is None else RUDOLPH_TRIALS.value(args)
    if (trials is None) != (args.seed is None):
        raise ValueError("--rudolph-trials and --seed go together")
    rho = build_state(args, inputs)
    report = diag.full_report(rho)
    results = {"report": report}
    if trials is not None:
        inputs.update(rudolph_trials=trials, seed=args.seed)
        results["rudolph"] = diag.rudolph_checks(rho, trials, args.seed)
    if args.dump_state is not None:
        write_report(matrix_file(rho), args.dump_state)
    return results, [
        f"ccnr_value        {report.ccnr_value:.12g}"
        f"  ({'entangled' if report.ccnr_entangled else 'not detected'})",
        f"ppt               {report.ppt}  (min eig of partial transpose {report.min_eig_pt:.3e})",
        f"faithful          {report.faithful}  (operator Schmidt rank {report.schmidt_rank})",
        f"purity            {report.purity:.12g}",
    ], 0


def cmd_reconstruct(args, inputs: dict, timings: dict) -> tuple:
    probe = build_state(args, inputs, "probe")
    channel = build(CHANNELS, "channel", args, inputs)
    inputs.update(noise=args.noise, seed=args.seed)
    result = tomo.run_aaqpt(channel, probe, noise=args.noise, seed=args.seed)
    return {**vars(result), "verdict": "ok"}, [
        f"choi trace distance  {result.trace_distance:.6e}",
        f"probe condition      {result.probe_report.condition_number:.6g}",
    ], 0


def cmd_optimize(args, inputs: dict, timings: dict) -> tuple:
    from . import seesaw  # here, so that a short command loads no optimizer
    overrides = {p.dest: getattr(args, p.dest) for p in TUNABLES}
    cfg = seesaw.SeesawConfig(d=D.value(args), seed=args.seed, **{
        key: value for key, value in overrides.items() if value is not None})
    inputs.update(vars(cfg))
    result = seesaw.optimize(cfg)
    reasons = [s.stop_reason for s in result.restarts]
    # a round is one stacked Dykstra iteration, so the run takes as many as
    # its longest restart, and runs that one alone past the second longest
    iters = sorted((s.dykstra_iters for s in result.restarts), reverse=True) + [0]
    return result, [
        f"best value    {result.best_value:.12g}",
        f"ppt residual  {result.ppt_residual:.3e}",
        f"restarts      {len(reasons)}",
        f"rounds        {iters[0]} (solo {iters[0] - iters[1]})",
        f"best restart  {result.best_restart}; stops: " + ", ".join(
            f"{why} {reasons.count(why)}" for why in seesaw.STOP_REASONS),
    ], 0


def cmd_filter(args, inputs: dict, timings: dict) -> tuple:
    rho = build_state(args, inputs)
    analysis = filt.filter_analysis(rho, build(FILTERS, "filter", args, inputs, rho.dA, rho.dB))
    return {**vars(analysis), "verdict": "ok"}, [
        f"ccnr before  {analysis.before.ccnr_value:.12g}",
        f"ccnr after   {analysis.after.ccnr_value:.12g}",
        f"faithfulness lost  {analysis.faithfulness_lost}",
    ], 0


def cmd_reproduce(args, inputs: dict, timings: dict) -> tuple:
    from . import acceptance  # here for the same reason: its see-saw row
    timed = acceptance.run_all()
    timings["rows_s"] = {row.key: seconds for row, seconds in timed}
    rows = [row for row, _ in timed]
    lines = [f"[{'PASS' if row.passed else 'FAIL'}] {row.key}: {row.title}" for row in rows]
    all_passed = all(row.passed for row in rows)
    lines.append(f"{sum(r.passed for r in rows)}/{len(rows)} rows passed")
    return ({"rows": rows, "all_passed": all_passed},
            lines, 0 if all_passed else 1)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word matching this is a value, not a flag; argparse's own rule
        # misses -1e-3, -5. and -inf, and no flag here looks like a number
        digits = r"\d(?:_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"-(?:(?:{digits}(?:\.(?:{digits})?)?|\.{digits})(?:e[-+]?{digits})?"
            r"|inf(?:inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        # a usage error is malformed input: one "error:" line, exit 2
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a
    short command, and parse_args leaves it unchanged.  The table lambdas
    look their constructors up when they run, so patching one still works."""
    parser = _Parser(
        prog="beqpt",
        description="Bound-entangled probes for ancilla-assisted process "
                    "tomography: diagnostics, reconstruction, filtering, and "
                    "the PPT see-saw search.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def state_flags(p, kind="state"):
        group = _add_table_flags(p, STATES, kind)
        group.add_argument(_file_flag(kind), dest=f"{kind}_file", default=None, metavar="PATH")

    p = sub.add_parser("diagnose", help="entanglement/faithfulness report for a state")
    state_flags(p)
    p.add_argument(RUDOLPH_TRIALS.flag, type=int, default=None,
                   help="also run the monotonicity checks with this many trials "
                        f"(at most {RUDOLPH_TRIALS.cap})")
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--dump-state", default=None, metavar="PATH",
                   help="write the constructed state as a matrix file")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("reconstruct", help="run the tomography pipeline")
    state_flags(p, "probe")
    _add_table_flags(p, CHANNELS, "channel", required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("optimize", help="see-saw search for PPT states with "
                                        "large realigned trace norm")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=seed, required=True)
    _add_params(p.add_argument_group("see-saw overrides"), TUNABLES)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("filter", help="apply local filters and compare diagnostics")
    state_flags(p)
    _add_table_flags(p, FILTERS, "filter", required=True)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("reproduce", help="re-derive the published reference "
                                         "values and check every row")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Run one command, print its summary lines and write its report.  A
    command fills ``inputs`` as it reads them and returns (results, a dict
    or a record, summary lines, exit code); a domain verdict it raises
    becomes a report with exit 1."""
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        inputs, timings = {}, {}
        try:
            results, lines, code = args.func(args, inputs, timings)
        except tuple(VERDICTS) as exc:
            verdict, fields = VERDICTS[type(exc)]
            results = {"verdict": verdict, **{f: getattr(exc, f) for f in fields}}
            lines, code = [f"{verdict.replace('_', ' ')}: {exc}"], 1
        timings = {"total_s": time.perf_counter() - t0, **timings}
        report = make_report(args.cmd, inputs, results, timings)
        if args.out is not None:  # written first, so a failed write prints no summary
            write_report(report, args.out)
        print(*lines, sep="\n")
        if args.out is None:
            print(report_json(report))
        return code
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
