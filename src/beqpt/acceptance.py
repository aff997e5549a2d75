"""Reference-value checks: every published number the toolkit claims to
reproduce, wired as self-contained pass/fail rows.

Each row re-derives its quantities from scratch at the stated tolerance
and reports the measured values; the CLI ``reproduce`` command and the
acceptance test suite both run exactly these functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import diagnostics as diag
from . import filtering as filt
from . import seesaw
from . import states
from . import tomography as tomo
from .bipartite import (
    BipartiteOperator,
    check_realign,
    haar_unitary,
    max_entangled,
    realign,
    singular_values,
    swap_operator,
)
from .reports import Record

_SEED = 20240810


@dataclass(frozen=True)
class RowResult(Record):
    key: str
    title: str
    passed: bool
    measured: dict


def _row(key, title, passed, **measured):
    return RowResult(key=key, title=title, passed=bool(passed), measured=measured)


def row_realignment_fixed_points() -> RowResult:
    """realign(Id) = |u><u|, realign(F) = F, realign(|u><u|) = Id, k in 2..6."""
    worst = 0.0
    for k in range(2, 7):
        ident = np.eye(k * k, dtype=complex)
        f = swap_operator(k)
        u = max_entangled(k)
        uu = np.outer(u, u.conj())
        worst = max(worst, float(np.abs(realign(BipartiteOperator(ident, k, k)) - uu).max()))
        worst = max(worst, float(np.abs(realign(f) - f.mat).max()))
        worst = max(worst, float(np.abs(realign(BipartiteOperator(uu, k, k)) - ident).max()))
    return _row(
        "realignment_fixed_points",
        "realignment fixed points (Id, F, |u><u|), k in 2..6, entrywise 1e-12",
        worst <= 1e-12,
        max_entry_deviation=worst,
    )


def row_ccnr_extremal_4x4() -> RowResult:
    """rho_ccnr: spectrum {1/4, 1/12 x15}, trace norm 1.5, PPT, purity 1/6."""
    rho = states.rho_ccnr()
    s = rho.realigned_spectrum
    expected = np.array([1 / 4] + [1 / 12] * 15)
    spec_dev = float(np.abs(s - expected).max())
    tn = float(s.sum())
    _, min_eig = diag.is_ppt(rho)
    purity = diag.faithfulness(rho)
    passed = (
        spec_dev <= 1e-10
        and abs(tn - 1.5) <= 1e-10
        and min_eig >= -1e-10
        and abs(purity - 1 / 6) <= 1e-10
    )
    return _row(
        "ccnr_extremal_4x4",
        "4x4 bound entangled state: realigned spectrum, trace norm 1.5, PPT, purity 1/6",
        passed,
        spectrum_deviation=spec_dev,
        trace_norm=tn,
        min_eig_pt=min_eig,
        purity=purity,
    )


def row_ccnr_extremal_3x3() -> RowResult:
    """3x3 state: trace norm 1.1891 +- 5e-4, listed spectrum, faithful, PPT to 1e-4."""
    rho = states.rho_ccnr_3x3()
    s = rho.realigned_spectrum
    expected = np.array(states.RHO_CCNR_3X3_SPECTRUM)
    spec_dev = float(np.abs(s - expected).max())
    tn = float(s.sum())
    faithful, _, cond = diag.is_faithful(rho)
    _, min_eig = diag.is_ppt(rho)
    passed = (
        abs(tn - states.RHO_CCNR_3X3_TRACE_NORM) <= 5e-4
        and spec_dev <= 5e-4
        and faithful
        and min_eig >= -1e-4
    )
    return _row(
        "ccnr_extremal_3x3",
        "3x3 full-rank PPT state: trace norm 1.1891, spectrum to 5e-4, faithful",
        passed,
        trace_norm=tn,
        spectrum_deviation=spec_dev,
        faithful=faithful,
        condition_number=cond,
        min_eig_pt=min_eig,
    )


def row_analytic_vs_numeric() -> RowResult:
    """Closed-form trace norms match the realigned SVD on dense grids."""
    worst = 0.0
    boundary = {}
    for d in range(2, 7):
        lo = -1.0 / (d * d - 1)
        for alpha in np.linspace(lo, 1.0, 50):
            got = diag.ccnr_value(states.isotropic(d, float(alpha)))
            want = diag.analytic_ccnr("isotropic", d, float(alpha))
            worst = max(worst, abs(got - want))
        for f in np.linspace(-1.0, 1.0, 50):
            got = diag.ccnr_value(states.werner_f(d, float(f)))
            want = diag.analytic_ccnr("werner", d, float(f))
            worst = max(worst, abs(got - want))
        boundary[f"iso_boundary_d{d}"] = diag.ccnr_value(states.isotropic(d, 1.0 / (d + 1)))
        boundary[f"werner_fm1_d{d}"] = diag.ccnr_value(states.werner_f(d, -1.0))
        boundary[f"max_entangled_d{d}"] = diag.ccnr_value(states.max_entangled_state(d))
    boundary_ok = all(
        abs(boundary[f"iso_boundary_d{d}"] - 1.0) <= 1e-9
        and abs(boundary[f"werner_fm1_d{d}"] - (1.0 + 2.0 / d)) <= 1e-9
        and abs(boundary[f"max_entangled_d{d}"] - d) <= 1e-9
        for d in range(2, 7)
    )
    return _row(
        "analytic_vs_numeric_ccnr",
        "analytic vs numeric CCNR on 50-point grids, d in 2..6, within 1e-9",
        worst <= 1e-9 and boundary_ok,
        max_grid_deviation=worst,
        **boundary,
    )


def row_faithfulness_table() -> RowResult:
    """Purity table at d=4 plus the purity identity on random states."""
    table = {
        "isotropic_boundary": (diag.faithfulness(states.isotropic(4, 1 / 5)), 0.1),
        "werner_fm1": (diag.faithfulness(states.werner_f(4, -1.0)), 0.1667),
        "rho_ccnr": (diag.faithfulness(states.rho_ccnr()), 0.1667),
        "max_entangled": (diag.faithfulness(states.max_entangled_state(4)), 1.0),
    }
    table_ok = all(abs(got - want) <= 1e-4 for got, want in table.values())

    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(100):
        dA = int(rng.integers(2, 5))
        dB = int(rng.integers(2, 5))
        rho = states.random_density_matrix(dA, dB, rng)
        purity = float(np.vdot(rho.mat, rho.mat).real)
        s2 = float((rho.realigned_spectrum ** 2).sum())
        worst = max(worst, abs(purity - s2))
    return _row(
        "faithfulness_table",
        "purity table at d=4 and purity identity on 100 random states",
        table_ok and worst <= 1e-10,
        max_identity_deviation=worst,
        **{k: got for k, (got, _) in table.items()},
    )


def row_gamma_family() -> RowResult:
    """PPT + faithfulness of the Id + F + eps |v><v| family."""
    measured = {}
    ok = True
    for k in (4, 5, 6):
        for eps in (0.01, 0.1, 1.0):
            rho = states.cariello_gamma(states.GammaParams(k=k, n=2, eps=eps))
            ppt, min_eig = diag.is_ppt(rho)
            s = rho.realigned_spectrum
            rel = float(s[-1] / s[0])
            measured[f"k{k}_eps{eps:g}"] = {"min_eig_pt": min_eig, "sigma_min_rel": rel}
            ok = ok and ppt and rel > 1e-8
        tn = diag.ccnr_value(states.cariello_gamma(states.GammaParams(k=k, n=2, eps=1e-8)))
        measured[f"k{k}_trace_norm_small_eps"] = tn
        ok = ok and abs(tn - 1.0) <= 1e-6
    return _row(
        "gamma_family",
        "gamma family (k in 4..6, n=2): PPT, faithful, trace norm -> 1 as eps -> 0",
        ok,
        **measured,
    )


def _roundtrip_channels(d: int):
    rng_unitary = np.random.default_rng([_SEED, d, 1])
    return {
        "identity": ch.identity_channel(d),
        "depolarizing_p0": ch.depolarizing(d, 0.0),
        "depolarizing_p03": ch.depolarizing(d, 0.3),
        "depolarizing_p1": ch.depolarizing(d, 1.0),
        "random_unitary": ch.unitary_channel(haar_unitary(d, rng_unitary)),
        "random_cptp_3": ch.random_cptp(d, 3, seed=_SEED + d),
    }


def row_aaqpt_roundtrip() -> RowResult:
    """Noise-free reconstruction through every probe/channel pair, plus the
    unfaithful-probe rejection."""
    probes = {
        "max_entangled_d4": states.max_entangled_state(4),
        "rho_ccnr": states.rho_ccnr(),
        "werner_fm1_d4": states.werner_f(4, -1.0),
        "isotropic_boundary_d4": states.isotropic(4, 1 / 5),
        "ccnr_extremal_3x3": states.rho_ccnr_3x3(),
    }
    worst = {}
    ok = True
    for pname, probe in probes.items():
        for cname, channel in _roundtrip_channels(probe.dA).items():
            result = tomo.run_aaqpt(channel, probe)
            key = f"{pname}/{cname}"
            worst[key] = result.trace_distance
            ok = ok and result.trace_distance < 1e-8
    rejected = False
    try:
        tomo.run_aaqpt(ch.identity_channel(4), states.filtered_werner_closed_form(4, 0.5))
    except tomo.UnfaithfulProbe:
        rejected = True
    max_td = max(worst.values())
    return _row(
        "aaqpt_roundtrip",
        "AAQPT roundtrip: Choi trace distance < 1e-8 for all probe/channel pairs; "
        "filtered Werner probe rejected",
        ok and rejected,
        max_trace_distance=max_td,
        unfaithful_probe_rejected=rejected,
        cases=len(worst),
    )


def row_werner_filtering() -> RowResult:
    """Direct filtering equals the closed-form block state; the filtered
    states lose all but a handful of realigned singular values."""
    worst = 0.0
    max_nonzero = 0
    ccnr_v0 = {}
    ok = True
    for d in (3, 4, 5):
        pair = filt.werner_filters(d)
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            direct = filt.local_filter(states.werner_v(d, v), pair)
            closed = states.filtered_werner_closed_form(d, v)
            worst = max(worst, float(np.abs(direct.mat - closed.mat).max()))
            s = closed.realigned_spectrum
            nonzero = int(np.count_nonzero(s >= 1e-12))
            max_nonzero = max(max_nonzero, nonzero)
            ok = ok and nonzero <= 16
        before = diag.ccnr_value(states.werner_v(d, 0.0))
        after = diag.ccnr_value(states.filtered_werner_closed_form(d, 0.0))
        ccnr_v0[f"d{d}"] = {"before": before, "after": after}
        ok = ok and after > before and abs(after - 2.0) <= 1e-9 \
            and abs(before - (1 + 2 / d)) <= 1e-9
    return _row(
        "werner_filtering",
        "subspace filtering matches the closed form (1e-12); realigned rank "
        "collapses; CCNR rises from 1 + 2/d to 2 at v=0",
        ok and worst <= 1e-12,
        max_entry_deviation=worst,
        max_nonzero_singular_values=max_nonzero,
        **ccnr_v0,
    )


def row_ccnr_monotonicity() -> RowResult:
    """Local-unitary invariance and the two non-increase properties."""
    rng = np.random.default_rng([_SEED, 9])
    cases = {
        "rho_ccnr": states.rho_ccnr(),
        "werner_fm1_d3": states.werner_f(3, -1.0),
        "random_3x3": states.random_density_matrix(3, 3, rng),
        "random_2x4": states.random_density_matrix(2, 4, rng),
    }
    measured = {}
    ok = True
    for name, rho in cases.items():
        rep = diag.rudolph_checks(rho, trials=20, seed=_SEED)
        measured[name] = {
            "unitary_max_deviation": rep.unitary_max_deviation,
            "ancilla_max_increase": rep.ancilla_max_increase,
            "lueders_max_increase": rep.lueders_max_increase,
        }
        ok = ok and rep.all_passed
    return _row(
        "ccnr_monotonicity",
        "realigned trace norm: unitary-invariant, non-increasing under product "
        "ancillas and Lueders measurements (20 trials each)",
        ok,
        **measured,
    )


def row_seesaw() -> RowResult:
    """See-saw search hits the reference window in d = 2, 3, 4."""
    t0 = time.perf_counter()
    res3 = seesaw.optimize(seesaw.SeesawConfig(d=3, seed=1))
    elapsed3 = time.perf_counter() - t0
    res4 = seesaw.optimize(seesaw.SeesawConfig(d=4, seed=1))
    res2a = seesaw.optimize(seesaw.SeesawConfig(d=2, seed=1))
    res2b = seesaw.optimize(seesaw.SeesawConfig(d=2, seed=1))
    deterministic = res2a.to_dict() == res2b.to_dict()
    feasible = all(
        r.ppt_residual >= -1e-7 and r.psd_residual >= -1e-7
        for r in (res2a, res3, res4)
    )
    passed = (
        res3.best_value >= 1.15
        and elapsed3 < 180.0
        and 1.3 <= res4.best_value <= 1.5 + 1e-6
        and res2a.best_value <= 1.0 + 1e-6
        and feasible
        and deterministic
    )
    return _row(
        "seesaw_optimization",
        "see-saw over PPT states: d=3 >= 1.15 (< 3 min), d=4 in [1.3, 1.5], "
        "d=2 <= 1, feasibility <= 1e-7, deterministic",
        passed,
        best_value_d2=res2a.best_value,
        best_value_d3=res3.best_value,
        best_value_d4=res4.best_value,
        ppt_residual_d3=res3.ppt_residual,
        ppt_residual_d4=res4.ppt_residual,
        deterministic=deterministic,
    )


def row_realign_variant_consistency() -> RowResult:
    """Singular values of (rho^T_B F)^T_A match those of realign(rho)."""
    rng = np.random.default_rng([_SEED, 11])
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(2, 6))
        rho = states.random_density_matrix(d, d, rng)
        s1 = rho.realigned_spectrum
        s2 = singular_values(check_realign(rho))
        worst = max(worst, float(np.abs(s1 - s2).max()))
    return _row(
        "realign_variant_consistency",
        "100 random square-bipartition states: both realignment variants share "
        "their singular values to 1e-10",
        worst <= 1e-10,
        max_deviation=worst,
    )


ROWS = (
    row_realignment_fixed_points,
    row_ccnr_extremal_4x4,
    row_ccnr_extremal_3x3,
    row_analytic_vs_numeric,
    row_faithfulness_table,
    row_gamma_family,
    row_aaqpt_roundtrip,
    row_werner_filtering,
    row_ccnr_monotonicity,
    row_seesaw,
    row_realign_variant_consistency,
)


def run_all() -> list:
    """(row result, wall seconds) for every row, in order."""
    out = []
    for fn in ROWS:
        t0 = time.perf_counter()
        out.append((fn(), time.perf_counter() - t0))
    return out
