"""Quantum channel representations and conversions.

Channels map C^d to itself and are kept in Kraus form
E(rho) = sum_n K_n rho K_n^dag with the completeness relation
sum_n K_n^dag K_n = Id enforced at construction; a channel, like its
Choi state, exposes its dimension as ``.d``.
The Choi state uses the trace-1 normalization

    S = (E kron Id)(|Phi+><Phi+|),

so the inverse relation carries a factor d:  E(rho) = d Tr_2[(Id kron rho^T) S].
Under the row-stacking vec convention the superoperator matrix is
E_hat = sum_n K_n kron conj(K_n), which a channel builds once, on first
use of ``superoperator``, and every channel acts through it:
(E kron Id)(rho) = realign_inverse(E_hat realign(rho)), the identity the
tomography inverts, so S = realign_inverse(E_hat) / d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bipartite import (
    BipartiteOperator,
    DensityMatrix,
    as_complex_matrix,
    check_number,
    partial_trace,
    realign,
    realign_inverse,
    _kron,
)

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map on C^d as an ordered tuple of d x d Kraus operators."""

    kraus: tuple
    d: int

    def __post_init__(self):
        check_number("d", self.d, lo=1)
        ops = tuple(as_complex_matrix(k, f"Kraus operator {i}") for i, k in enumerate(self.kraus))
        if not ops:
            raise ValueError("need at least one Kraus operator")
        for k in ops:
            if k.shape != (self.d, self.d):
                raise ValueError(f"Kraus operator shape {k.shape} != ({self.d}, {self.d})")
        total = sum(k.conj().T @ k for k in ops)
        residual = np.linalg.norm(total - np.eye(self.d))
        if residual > COMPLETENESS_TOL:
            raise ValueError(f"completeness relation violated: residual {residual:.3e}")
        object.__setattr__(self, "kraus", ops)

    @cached_property
    def superoperator(self) -> np.ndarray:
        """E_hat, with E_hat vec(X) = vec(E(X)) (row-stacking vec), read-only;
        built once, on first use, which is safe since the Kraus operators
        are private read-only copies (see ``as_complex_matrix``)."""
        d2 = self.d * self.d
        out = np.zeros((d2, d2), dtype=complex)
        for k in self.kraus:
            out += _kron(k, k.conj())
        out.setflags(write=False)
        return out


class ChoiMatrix(DensityMatrix):
    """Trace-1 Choi state of a channel on C^d: a density matrix on
    C^d kron C^d whose trace over the output factor is Id/d (trace
    preservation).  ``slack`` is the slack of the channel it came from;
    the density-matrix tests pass within it, as does trace preservation."""

    def __init__(self, mat, d: int, slack: float = COMPLETENESS_TOL):
        DensityMatrix.__init__(self, mat, d, d, slack=slack)
        tp_dev = np.abs(partial_trace(self, "A") - np.eye(d) / d).max()
        if tp_dev > slack:
            raise ValueError(f"trace preservation violated: deviation {tp_dev:.3e}")

    @property
    def d(self) -> int:
        return self.dA


def apply_extended(ch: KrausChannel, rho: BipartiteOperator) -> BipartiteOperator:
    """(E kron Id)(rho) = realign_inverse(E_hat realign(rho)) on the A factor."""
    if rho.dA != ch.d:
        raise ValueError(f"probe dA={rho.dA} does not match channel d={ch.d}")
    out = realign_inverse(ch.superoperator @ realign(rho), ch.d, rho.dB)
    return BipartiteOperator(out, ch.d, rho.dB)


def choi_of(ch: KrausChannel) -> ChoiMatrix:
    """S = (E kron Id)(|Phi+><Phi+|) = realign_inverse(E_hat) / d."""
    return ChoiMatrix(realign_inverse(ch.superoperator, ch.d, ch.d) / ch.d, ch.d)


def identity_channel(d: int) -> KrausChannel:
    check_number("d", d, lo=1)  # before np.eye, which raises TypeError for a float
    return KrausChannel((np.eye(d),), d)


def depolarizing(d: int, p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + p Tr(rho) Id/d."""
    check_number("d", d, lo=1)  # before p/d, ahead of KrausChannel's own check
    check_number("p", p, real=True, lo=0, hi=1)
    kraus = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * np.eye(d))
    if p > 0.0:
        # row i*d + j of the d^2 identity, read as a d x d matrix, is |i><j|
        kraus.extend(np.sqrt(p / d) * np.eye(d * d, dtype=complex).reshape(-1, d, d))
    return KrausChannel(tuple(kraus), d)


def dephasing(d: int, p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + p diag(rho)."""
    check_number("d", d, lo=1)
    check_number("p", p, real=True, lo=0, hi=1)
    kraus = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * np.eye(d))
    if p > 0.0:
        kraus.extend(np.sqrt(p) * np.eye(d * d, dtype=complex)[::d + 1].reshape(-1, d, d))
    return KrausChannel(tuple(kraus), d)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """E(rho) = u rho u^dag; the completeness relation is the unitarity test."""
    u = as_complex_matrix(u, "u")
    return KrausChannel((u,), u.shape[0])


def random_cptp(d: int, n_kraus: int, seed: int) -> KrausChannel:
    """Deterministic Haar-style random channel: QR of a Ginibre matrix
    gives an isometry C^d -> C^d kron C^n whose blocks are the Kraus set."""
    for name, value, lo in (("d", d, 1), ("n_kraus", n_kraus, 1), ("seed", seed, 0)):
        check_number(name, value, lo=lo)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    kraus = tuple(q[i * d:(i + 1) * d, :] for i in range(n_kraus))
    return KrausChannel(kraus, d)
