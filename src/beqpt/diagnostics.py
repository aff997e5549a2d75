"""Entanglement and faithfulness diagnostics built on the realignment map.

The CCNR criterion: every separable state has realigned trace norm at
most 1, so any excess certifies entanglement.  A state is *faithful*
(usable as a tomography probe) exactly when its realigned matrix is
invertible, i.e. has full operator Schmidt rank.

Every number here is read from the state's ``realigned_spectrum``, which
each operator computes once, and every tolerance is a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    BipartiteOperator,
    DensityMatrix,
    check_number,
    haar_unitary,
    operator_schmidt_rank,
    partial_transpose,
    _permute_subsystems,
)
from .reports import Record

ENTANGLED_MARGIN = 1e-9
PPT_TOL = 1e-10
PURITY_IDENTITY_TOL = 1e-10


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


def ccnr_value(rho: DensityMatrix) -> float:
    """Realigned trace norm; > 1 (beyond margin) certifies entanglement."""
    return float(rho.realigned_spectrum.sum())


def is_ppt(rho: BipartiteOperator) -> tuple:
    """(flag, min eigenvalue of the partial transpose); PPT within PPT_TOL."""
    min_eig = float(np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dA, rho.dB)).min())
    return min_eig >= -PPT_TOL, min_eig


def faithfulness(rho: DensityMatrix) -> float:
    """Purity Tr(rho^2), checked against its equal, the squared Frobenius
    norm of the realigned matrix (the sum of squared realigned singular
    values)."""
    purity = float(np.vdot(rho.mat, rho.mat).real)
    s2 = float((rho.realigned_spectrum ** 2).sum())
    if abs(purity - s2) > PURITY_IDENTITY_TOL:
        raise RuntimeError(
            f"purity identity violated: Tr(rho^2)={purity:.17g}, sum s^2={s2:.17g}"
        )
    return purity


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

    isotropic (param = alpha):  d*alpha + (1-alpha)/d      for alpha >= 0,
                                (1 - (d^2-1)*alpha)/d      for alpha < 0.
    werner    (param = f):      2/d - f  for f <= 1/d,  f  for f >= 1/d.

    Both follow from the realigned eigenvalues: the isotropic state
    realigns to (1-alpha)/d^2 |u><u| + (alpha/d) Id, i.e. eigenvalue 1/d
    once and alpha/d with multiplicity d^2 - 1, and singular values take
    absolute values; the Werner state realigns to a |u><u| + b F with
    a d + b = 1/d and the same multiplicity structure.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if family == "isotropic":
        lo = -1.0 / (d * d - 1)
        if not lo - 1e-15 <= param <= 1.0 + 1e-15:
            raise ValueError(f"alpha={param} outside [{lo}, 1]")
        if param >= 0:
            return d * param + (1.0 - param) / d
        return (1.0 - (d * d - 1) * param) / d
    if family == "werner":
        if not -1.0 <= param <= 1.0:
            raise ValueError(f"f={param} outside [-1, 1]")
        if param <= 1.0 / d:
            return 2.0 / d - param
        return float(param)
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


def _random_pure_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def local_unitary_conjugate(rho: DensityMatrix, ua: np.ndarray, ub: np.ndarray) -> DensityMatrix:
    u = np.kron(ua, ub)
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dA, rho.dB)


def attach_product_ancillas(rho: DensityMatrix, sigma: np.ndarray, tau: np.ndarray) -> DensityMatrix:
    """rho_AB kron sigma_A'' kron tau_B'', regrouped into (A A'')|(B B'')."""
    da2 = sigma.shape[0]
    db2 = tau.shape[0]
    big = np.kron(np.kron(rho.mat, sigma), tau)
    big = _permute_subsystems(big, (rho.dA, rho.dB, da2, db2), (0, 2, 1, 3))
    return DensityMatrix(big, rho.dA * da2, rho.dB * db2)


def lueders_product_measurement(rho: DensityMatrix, ua: np.ndarray, ub: np.ndarray) -> DensityMatrix:
    """Dephase in the product basis given by the columns of ua, ub:
    sum_kl (P_k kron Q_l) rho (P_k kron Q_l)."""
    out = np.zeros_like(rho.mat)
    for k in range(rho.dA):
        pk = np.outer(ua[:, k], ua[:, k].conj())
        for l in range(rho.dB):
            ql = np.outer(ub[:, l], ub[:, l].conj())
            proj = np.kron(pk, ql)
            out = out + proj @ rho.mat @ proj
    return DensityMatrix(out, rho.dA, rho.dB)


def rudolph_checks(rho: DensityMatrix, trials: int, seed: int) -> RudolphReport:
    """Check the monotonicity properties of the realigned trace norm on
    seeded random draws.

    (i) invariance under local unitaries, (ii) non-increase when a pure
    product ancilla pair is attached (coarse-grained into the enlarged
    bipartition), (iii) non-increase under local Lueders measurements in
    random product bases.  Each trial uses an RNG stream derived from
    (seed, property, trial); a margin passes up to ENTANGLED_MARGIN.
    """
    check_number("trials", trials)
    check_number("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = ccnr_value(rho)

    def changes(prop, transform):
        return (ccnr_value(transform(np.random.default_rng([seed, prop, t]))) - base
                for t in range(trials))

    def local_unitaries(rng):
        return haar_unitary(rho.dA, rng), haar_unitary(rho.dB, rng)

    unitary_dev = max(abs(c) for c in changes(
        0, lambda g: local_unitary_conjugate(rho, *local_unitaries(g))))
    ancilla_inc = max(changes(
        1, lambda g: attach_product_ancillas(rho, _random_pure_qubit(g), _random_pure_qubit(g))))
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
    if rho.dA == rho.dB:
        faithful, _, cond = is_faithful(rho)
    else:
        faithful, cond = False, float("inf")
    return DiagnosticsReport(
        dims=(rho.dA, rho.dB),
        ccnr_value=ccnr,
        ccnr_entangled=bool(ccnr > 1.0 + ENTANGLED_MARGIN),
        ppt=ppt,
        min_eig_pt=min_eig,
        purity=faithfulness(rho),
        realigned_spectrum=tuple(float(s) for s in rho.realigned_spectrum),
        faithful=faithful,
        schmidt_rank=operator_schmidt_rank(rho),
        condition_number=cond,
    )
