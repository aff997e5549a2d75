"""Entanglement and faithfulness diagnostics built on the realignment map.

The CCNR criterion: every separable state has realigned trace norm at
most 1, so any excess certifies entanglement.  A state is *faithful*
(usable as a tomography probe) exactly when its realigned matrix is
invertible, i.e. has full operator Schmidt rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    BipartiteOperator,
    DensityMatrix,
    haar_unitary,
    partial_transpose,
    realign,
    singular_values,
    _permute_subsystems,
    _schmidt_rank,
)
from .reports import Record

ENTANGLED_MARGIN = 1e-9
FAITHFUL_REL_TOL = 1e-9
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
    return float(singular_values(realign(rho)).sum())


def is_ppt(rho: BipartiteOperator, tol: float = PPT_TOL) -> tuple:
    """(flag, min eigenvalue of the partial transpose)."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    min_eig = float(np.linalg.eigvalsh(partial_transpose(rho, "B").mat).min())
    return min_eig >= -tol, min_eig


def faithfulness(rho: DensityMatrix) -> float:
    """Purity Tr(rho^2), equal to the squared Frobenius norm of the
    realigned matrix (the sum of squared realigned singular values)."""
    return _checked_purity(rho, singular_values(realign(rho)))


def is_faithful(rho: BipartiteOperator, rel_tol: float = FAITHFUL_REL_TOL) -> tuple:
    """(flag, sigma_min, condition number) of the realigned matrix.

    Faithful means sigma_min > rel_tol * sigma_max; the condition number
    is reported as inf below that threshold.  Requires dA == dB, since
    only square realigned matrices can be inverted.
    """
    return _faithful(rho, singular_values(realign(rho)), rel_tol)


# Rules on the descending realigned spectrum ``s`` of ``rho``: one SVD
# per state serves every number derived from it.

def _checked_purity(rho: DensityMatrix, s) -> float:
    """Tr(rho^2), checked against the sum of squared singular values."""
    purity = float(np.vdot(rho.mat, rho.mat).real)
    s2 = float((s ** 2).sum())
    if abs(purity - s2) > PURITY_IDENTITY_TOL:
        raise RuntimeError(
            f"purity identity violated: Tr(rho^2)={purity:.17g}, sum s^2={s2:.17g}"
        )
    return purity


def _faithful(rho: BipartiteOperator, s, rel_tol: float) -> tuple:
    """The faithfulness rule of ``is_faithful``."""
    if rho.dA != rho.dB:
        raise ValueError("faithfulness is defined for square bipartitions only")
    smax = float(s[0])
    smin = float(s[-1])
    if smax <= 0.0:
        return False, 0.0, float("inf")
    ok = smin > rel_tol * smax
    cond = smax / smin if ok else float("inf")
    return bool(ok), smin, float(cond)


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


def rudolph_checks(rho: DensityMatrix, trials: int, seed: int,
                   tol: float = ENTANGLED_MARGIN) -> RudolphReport:
    """Check the monotonicity properties of the realigned trace norm on
    seeded random draws.

    (i) invariance under local unitaries, (ii) non-increase when a pure
    product ancilla pair is attached (coarse-grained into the enlarged
    bipartition), (iii) non-increase under local Lueders measurements in
    random product bases.  Each trial uses an RNG stream derived from
    (seed, property, trial).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = ccnr_value(rho)

    def changes(prop, transform):
        return [ccnr_value(transform(np.random.default_rng([seed, prop, t]))) - base
                for t in range(trials)]

    def local_unitaries(rng):
        return haar_unitary(rho.dA, rng), haar_unitary(rho.dB, rng)

    unitary_dev = max(abs(c) for c in changes(
        0, lambda g: local_unitary_conjugate(rho, *local_unitaries(g))))
    ancilla_inc = max(changes(
        1, lambda g: attach_product_ancillas(rho, _random_pure_qubit(g), _random_pure_qubit(g))))
    lueders_inc = max(changes(
        2, lambda g: lueders_product_measurement(rho, *local_unitaries(g))))

    invariant, ancilla_ok, lueders_ok = unitary_dev <= tol, ancilla_inc <= tol, lueders_inc <= tol
    return RudolphReport(
        trials=trials,
        seed=seed,
        tol=tol,
        unitary_max_deviation=float(unitary_dev),
        unitary_invariant=invariant,
        ancilla_max_increase=float(ancilla_inc),
        ancilla_nonincreasing=ancilla_ok,
        lueders_max_increase=float(lueders_inc),
        lueders_nonincreasing=lueders_ok,
        all_passed=invariant and ancilla_ok and lueders_ok,
    )


def full_report(rho: DensityMatrix) -> DiagnosticsReport:
    """All diagnostics for one state, derived from one realigned spectrum."""
    spectrum = singular_values(realign(rho))
    ccnr = float(spectrum.sum())
    purity = _checked_purity(rho, spectrum)
    ppt, min_eig = is_ppt(rho)
    if rho.dA == rho.dB:
        faithful, _, cond = _faithful(rho, spectrum, FAITHFUL_REL_TOL)
    else:
        faithful, cond = False, float("inf")
    return DiagnosticsReport(
        dims=(rho.dA, rho.dB),
        ccnr_value=ccnr,
        ccnr_entangled=bool(ccnr > 1.0 + ENTANGLED_MARGIN),
        ppt=ppt,
        min_eig_pt=min_eig,
        purity=purity,
        realigned_spectrum=tuple(float(s) for s in spectrum),
        faithful=faithful,
        schmidt_rank=_schmidt_rank(spectrum, FAITHFUL_REL_TOL),
        condition_number=cond,
    )
