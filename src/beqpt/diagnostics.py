"""Entanglement and faithfulness diagnostics built on the realignment map.

The CCNR criterion: every separable state has realigned trace norm at
most 1, so any excess certifies entanglement.  A state is *faithful*
(usable as a tomography probe) exactly when its realigned matrix is
invertible, i.e. has full operator Schmidt rank.

Every CCNR and faithfulness number here is read from the state's
``realigned_spectrum``, which each operator computes once, and every
tolerance is a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    PSD_TOL,
    BipartiteOperator,
    DensityMatrix,
    check_number,
    haar_unitary,
    local_operation,
    operator_schmidt_rank,
    partial_transpose,
    tensor,
    _check_local_pair,
    _kron,
)
from .reports import Record

ENTANGLED_MARGIN = 1e-9
# bound on rudolph_checks' work estimate trials * (4 dA dB)^3, the cost of
# the SVDs of its enlarged states: one trial at dA = dB = 16
RUDOLPH_MAX_WORK = 2**30


@dataclass(frozen=True)
class DiagnosticsReport(Record):
    """Aggregate verdicts for one bipartite state."""

    dims: tuple
    ccnr_value: float
    ccnr_entangled: bool
    ppt: bool
    min_eig_pt: float
    purity: float
    realigned_spectrum: tuple
    faithful: bool
    schmidt_rank: int
    condition_number: float


def ccnr_value(rho: BipartiteOperator) -> float:
    """Realigned trace norm; > 1 (beyond margin) certifies entanglement."""
    return float(rho.realigned_spectrum.sum())


def is_ppt(rho: BipartiteOperator) -> tuple:
    """(flag, min eigenvalue of the partial transpose); PPT within PSD_TOL."""
    min_eig = float(np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dA, rho.dB)).min())
    return min_eig >= -PSD_TOL, min_eig


def purity(rho: DensityMatrix) -> float:
    """Purity Tr(rho^2).  Realignment permutes entries, so it equals the
    squared Frobenius norm of the realigned matrix, the sum of the squared
    realigned singular values."""
    return float(np.vdot(rho.mat, rho.mat).real)


def is_faithful(rho: BipartiteOperator) -> tuple:
    """(flag, sigma_min, condition number) of the realigned matrix.

    Faithful means full operator Schmidt rank, read from
    :func:`operator_schmidt_rank`; the condition number is reported as inf
    otherwise.  Requires dA == dB, since only square realigned matrices
    can be inverted.
    """
    if rho.dA != rho.dB:
        raise ValueError("faithfulness is defined for square bipartitions only")
    s = rho.realigned_spectrum
    ok = operator_schmidt_rank(rho) == rho.dA * rho.dB
    return ok, float(s[-1]), float(s[0] / s[-1]) if ok else float("inf")


def analytic_ccnr(family: str, d: int, param: float) -> float:
    """Closed-form realigned trace norms of the two symmetric families.

    isotropic (param = alpha):  (1 + (d^2-1)|alpha|)/d
    werner    (param = f):      (1 + |d f - 1|)/d

    Both realigned spectra are flat: one singular value 1/d, on the
    maximally entangled vector u = vec(Id), and d^2 - 1 equal ones.  The
    isotropic state realigns to (1-alpha)/d^2 |u><u| + (alpha/d) Id, so
    the others are |alpha|/d; the Werner state realigns to a |u><u| + b F
    with b = (d f - 1)/(d^3 - d), and F is +-1 on the complement of u, so
    the others are |b|.
    """
    check_number("d", d, lo=2)
    if family == "isotropic":
        check_number("alpha", param, real=True, lo=-1.0 / (d * d - 1) - 1e-15, hi=1.0 + 1e-15)
        return (1.0 + (d * d - 1) * abs(param)) / d
    if family == "werner":
        check_number("f", param, real=True, lo=-1, hi=1)
        return (1.0 + abs(d * param - 1.0)) / d
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class RudolphReport(Record):
    """Worst-case margins for the three monotonicity properties of the
    realigned trace norm (local unitaries, product ancillas, Lueders
    measurements)."""

    trials: int
    seed: int
    tol: float
    unitary_max_deviation: float
    unitary_invariant: bool
    ancilla_max_increase: float
    ancilla_nonincreasing: bool
    lueders_max_increase: float
    lueders_nonincreasing: bool
    all_passed: bool


def _random_pure_qubit(rng: np.random.Generator, dA: int, dB: int) -> BipartiteOperator:
    """A Haar-random pure qubit state on the cut dA|dB, 2|1 or 1|2."""
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return BipartiteOperator(np.outer(v, v.conj()), dA, dB)


def lueders_product_measurement(rho: BipartiteOperator, ua: np.ndarray,
                                ub: np.ndarray) -> BipartiteOperator:
    """Dephase in the product basis given by the columns of ua, ub:
    sum_kl (P_k kron Q_l) rho (P_k kron Q_l) with P_k = a_k a_k^dag and
    Q_l = b_l b_l^dag.  Each term is w (w^dag rho w) w^dag for the column
    w = a_k kron b_l of W = ua kron ub, so the sum is one basis change,
    W diag(W^dag rho W) W^dag, for any ua and ub, returned as an operator."""
    _check_local_pair(ua, ub, rho.dA, rho.dB)
    w = _kron(ua, ub)
    wh = w.conj().T
    return BipartiteOperator((w * np.diagonal(wh @ rho.mat @ w)) @ wh, rho.dA, rho.dB)


def rudolph_checks(rho: DensityMatrix, trials: int, seed: int) -> RudolphReport:
    """Check the monotonicity properties of the realigned trace norm on
    seeded random draws.

    (i) invariance under local unitaries, (ii) non-increase when a pure
    product ancilla pair is attached (coarse-grained into the enlarged
    bipartition), (iii) non-increase under local Lueders measurements in
    random product bases.  Each trial uses an RNG stream derived from
    (seed, property, trial); a margin passes up to ENTANGLED_MARGIN.  A
    trial image is an operator scored only by its realigned spectrum, never
    checked as a state (Rudolph, Quantum Inf. Process. 4, 219 (2005)).

    The work is bounded before any trial: a ValueError rejects a run whose
    estimate trials * (4 dA dB)^3, the cubic cost of a trial's enlarged
    (2dA x 2dB) state, exceeds RUDOLPH_MAX_WORK, and names the most trials
    allowed at this size.
    """
    check_number("trials", trials, lo=1)
    check_number("seed", seed, lo=0)
    per_trial = (4 * rho.dA * rho.dB) ** 3
    if trials * per_trial > RUDOLPH_MAX_WORK:
        raise ValueError(
            f"rudolph_checks work estimate trials*(4*dA*dB)^3 = {trials * per_trial:.3g} "
            f"exceeds {RUDOLPH_MAX_WORK:.3g}; dims {(rho.dA, rho.dB)} allow at most "
            f"{RUDOLPH_MAX_WORK // per_trial} trials")
    base = ccnr_value(rho)

    def changes(prop, transform):
        return (ccnr_value(transform(np.random.default_rng([seed, prop, t]))) - base
                for t in range(trials))

    def local_unitaries(rng):
        return haar_unitary(rho.dA, rng), haar_unitary(rho.dB, rng)

    unitary_dev = max(abs(c) for c in changes(0, lambda g: BipartiteOperator(
        local_operation(rho, *local_unitaries(g)), rho.dA, rho.dB)))
    # rho_AB kron sigma_A'' kron tau_B'' as (rho sigma) tau
    ancilla_inc = max(changes(1, lambda g: tensor(
        tensor(rho, _random_pure_qubit(g, 2, 1)), _random_pure_qubit(g, 1, 2))))
    lueders_inc = max(changes(
        2, lambda g: lueders_product_measurement(rho, *local_unitaries(g))))

    invariant, ancilla_ok, lueders_ok = (
        x <= ENTANGLED_MARGIN for x in (unitary_dev, ancilla_inc, lueders_inc))
    return RudolphReport(
        trials=trials,
        seed=seed,
        tol=ENTANGLED_MARGIN,
        unitary_max_deviation=float(unitary_dev),
        unitary_invariant=invariant,
        ancilla_max_increase=float(ancilla_inc),
        ancilla_nonincreasing=ancilla_ok,
        lueders_max_increase=float(lueders_inc),
        lueders_nonincreasing=lueders_ok,
        all_passed=invariant and ancilla_ok and lueders_ok,
    )


def full_report(rho: DensityMatrix) -> DiagnosticsReport:
    """All diagnostics for one state, derived from its one realigned spectrum."""
    ccnr = ccnr_value(rho)
    ppt, min_eig = is_ppt(rho)
    s = rho.realigned_spectrum
    faithful, _, cond = is_faithful(rho) if rho.dA == rho.dB else (False, 0.0, float("inf"))
    return DiagnosticsReport(
        dims=(rho.dA, rho.dB),
        ccnr_value=ccnr,
        ccnr_entangled=bool(ccnr > 1.0 + ENTANGLED_MARGIN),
        ppt=ppt,
        min_eig_pt=min_eig,
        purity=purity(rho),
        realigned_spectrum=tuple(float(x) for x in s),
        faithful=faithful,
        schmidt_rank=operator_schmidt_rank(rho),
        condition_number=cond,
    )
