"""Quantum channel representations and conversions.

Channels map C^d to itself and are kept in Kraus form
E(rho) = sum_n K_n rho K_n^dag with the completeness relation
sum_n K_n^dag K_n = Id enforced at construction; a channel, like its
Choi state, exposes its dimension as ``.d``.
The Choi state uses the trace-1 normalization

    S = (E kron Id)(|Phi+><Phi+|),

so the inverse relation carries a factor d:  E(rho) = d Tr_2[(Id kron rho^T) S].
Under the row-stacking vec convention the superoperator matrix is
E_hat = sum_n K_n kron conj(K_n) and S = realign_inverse(E_hat) / d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    BipartiteOperator,
    DensityMatrix,
    as_complex_matrix,
    basis_ket,
    check_number,
    partial_trace,
    vec,
)

COMPLETENESS_TOL = 1e-10
CHOI_PSD_TOL = 1e-10
CHOI_TRACE_TOL = 1e-10
CHOI_TP_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map on C^d as an ordered tuple of d x d Kraus operators."""

    kraus: tuple
    d: int

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k) for k in self.kraus)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        for k in ops:
            if k.shape != (self.d, self.d):
                raise ValueError(f"Kraus operator shape {k.shape} != ({self.d}, {self.d})")
            k.setflags(write=False)
        total = sum(k.conj().T @ k for k in ops)
        residual = np.linalg.norm(total - np.eye(self.d))
        if residual > COMPLETENESS_TOL:
            raise ValueError(f"completeness relation violated: residual {residual:.3e}")
        object.__setattr__(self, "kraus", ops)


class ChoiMatrix(DensityMatrix):
    """Trace-1 Choi state of a channel on C^d: a density matrix on
    C^d kron C^d whose trace over the output factor is Id/d (trace
    preservation)."""

    def __init__(self, mat, d: int, trace_tol: float = CHOI_TRACE_TOL,
                 tp_tol: float = CHOI_TP_TOL):
        DensityMatrix.__init__(self, mat, d, d, herm_tol=CHOI_PSD_TOL,
                               psd_tol=CHOI_PSD_TOL, trace_tol=trace_tol)
        tp_dev = np.abs(partial_trace(self, "A") - np.eye(d) / d).max()
        if tp_dev > tp_tol:
            raise ValueError(f"trace preservation violated: deviation {tp_dev:.3e}")

    @property
    def d(self) -> int:
        return self.dA


def apply_extended(ch: KrausChannel, rho: BipartiteOperator) -> BipartiteOperator:
    """(E kron Id) acting on the A factor of a bipartite operator."""
    if rho.dA != ch.d:
        raise ValueError(f"probe dA={rho.dA} does not match channel d={ch.d}")
    eye = np.eye(rho.dB)
    out = np.zeros((ch.d * rho.dB,) * 2, dtype=complex)
    for k in ch.kraus:
        kk = np.kron(k, eye)
        out += kk @ rho.mat @ kk.conj().T
    return BipartiteOperator(out, ch.d, rho.dB)


def superoperator_matrix(ch: KrausChannel) -> np.ndarray:
    """Matrix E_hat with E_hat vec(X) = vec(E(X)) (row-stacking vec)."""
    d2 = ch.d * ch.d
    out = np.zeros((d2, d2), dtype=complex)
    for k in ch.kraus:
        out += np.kron(k, k.conj())
    return out


def choi_of(ch: KrausChannel) -> ChoiMatrix:
    """S = (E kron Id)(|Phi+><Phi+|) = (1/d) sum_n vec(K_n) vec(K_n)^dag."""
    d = ch.d
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        v = vec(k)
        s += np.outer(v, v.conj())
    return ChoiMatrix(s / d, d)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d),), d)


def depolarizing(d: int, p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + p Tr(rho) Id/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    kraus = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * np.eye(d))
    if p > 0.0:
        scale = np.sqrt(p / d)
        for i in range(d):
            for j in range(d):
                kraus.append(scale * np.outer(basis_ket(d, i), basis_ket(d, j).conj()))
    return KrausChannel(tuple(kraus), d)


def dephasing(d: int, p: float) -> KrausChannel:
    """E(rho) = (1-p) rho + p diag(rho)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    kraus = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * np.eye(d))
    if p > 0.0:
        for i in range(d):
            e = basis_ket(d, i)
            kraus.append(np.sqrt(p) * np.outer(e, e.conj()))
    return KrausChannel(tuple(kraus), d)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = as_complex_matrix(u)
    d = u.shape[0]
    if u.shape != (d, d) or np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-10:
        raise ValueError("matrix is not unitary")
    return KrausChannel((u,), d)


def random_cptp(d: int, n_kraus: int, seed: int) -> KrausChannel:
    """Deterministic Haar-style random channel: QR of a Ginibre matrix
    gives an isometry C^d -> C^d kron C^n whose blocks are the Kraus set."""
    for name, value in (("d", d), ("n_kraus", n_kraus), ("seed", seed)):
        check_number(name, value)
    if n_kraus < 1:
        raise ValueError("n_kraus must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    kraus = tuple(q[i * d:(i + 1) * d, :] for i in range(n_kraus))
    return KrausChannel(kraus, d)
