"""Constructors for the bipartite state families used by the toolkit.

Every constructor returns a validated :class:`DensityMatrix`; the one
transcribed from rounded published data (:func:`rho_ccnr_3x3`) uses a
relaxed positivity tolerance to absorb the 5-decimal rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipartite import (
    DensityMatrix,
    basis_ket,
    max_entangled,
    swap_operator,
    tensor,
    _permute_subsystems,
)

_BELL_COMPONENTS = {
    "phi+": ((0, 0), (1, 1), 1.0),
    "phi-": ((0, 0), (1, 1), -1.0),
    "psi+": ((0, 1), (1, 0), 1.0),
    "psi-": ((0, 1), (1, 0), -1.0),
}


def bell_ket(which: str) -> np.ndarray:
    """One of the four Bell vectors (|00> +- |11>)/sqrt2, (|01> +- |10>)/sqrt2."""
    try:
        (a1, b1), (a2, b2), sign = _BELL_COMPONENTS[which]
    except KeyError:
        raise ValueError(f"unknown Bell state {which!r}") from None
    v = tensor(basis_ket(2, a1), basis_ket(2, b1)) + sign * tensor(
        basis_ket(2, a2), basis_ket(2, b2)
    )
    return v / np.sqrt(2)


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def bell_state(which: str) -> DensityMatrix:
    """Rank-1 projector onto the named Bell vector, as a 2 x 2 bipartite state."""
    return DensityMatrix(projector(bell_ket(which)), 2, 2)


def max_entangled_state(d: int) -> DensityMatrix:
    """|Phi+><Phi+| on C^d kron C^d."""
    return DensityMatrix(projector(max_entangled(d, normalized=True)), d, d)


def werner_f(d: int, f: float) -> DensityMatrix:
    """Werner state [(d - f) Id + (d f - 1) F] / (d^3 - d), with f = Tr(F rho).

    f = -1 is the maximally entangled member, f in [1/d, 1] the separable
    symmetric side.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not -1.0 <= f <= 1.0:
        raise ValueError(f"f={f} outside [-1, 1]")
    F = swap_operator(d).mat
    mat = ((d - f) * np.eye(d * d) + (d * f - 1.0) * F) / (d**3 - d)
    return DensityMatrix(mat, d, d)


def werner_v(d: int, v: float) -> DensityMatrix:
    """Werner state as a mixture of the normalized projectors onto the
    symmetric and antisymmetric subspaces, with weights v and 1 - v.

    P_sym = (Id + F)/2 carries weight 2v/(d(d+1)) so that Tr(F rho) = 2v - 1;
    this sign choice is the one consistent with :func:`werner_f`.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v={v} outside [0, 1]")
    F = swap_operator(d).mat
    eye = np.eye(d * d)
    p_sym = (eye + F) / 2.0
    p_anti = (eye - F) / 2.0
    mat = (2.0 * v / (d * (d + 1))) * p_sym + (2.0 * (1.0 - v) / (d * (d - 1))) * p_anti
    return DensityMatrix(mat, d, d)


def isotropic(d: int, alpha: float) -> DensityMatrix:
    """Isotropic state (1 - alpha)/d^2 Id + alpha |Phi+><Phi+|.

    Valid for alpha in [-1/(d^2 - 1), 1]; separable exactly up to
    alpha = 1/(d + 1).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    lo = -1.0 / (d * d - 1)
    if not lo - 1e-15 <= alpha <= 1.0 + 1e-15:
        raise ValueError(f"alpha={alpha} outside [{lo}, 1]")
    mat = ((1.0 - alpha) / d**2) * np.eye(d * d) + alpha * projector(
        max_entangled(d, normalized=True)
    )
    return DensityMatrix(mat, d, d)


@dataclass(frozen=True)
class GammaParams:
    """Parameters of the family Id + F + eps |v><v| on C^k kron C^k.

    |v> = sum_i |a_i>|b_i> with the basis vectors a_i = |2(i-1)>,
    b_i = |2i-1>, i = 1..n (so 2n <= k).  The state is PPT for every
    eps > 0 when n = 1, and for n >= 2 exactly when eps <= 1: past 1 the
    smallest eigenvalue of the unnormalized partial transpose is 1 - eps.
    """

    k: int
    n: int
    eps: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if 2 * self.n > self.k:
            raise ValueError(f"need 2n <= k, got n={self.n}, k={self.k}")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        # the state is divided by this trace; the check also rejects NaN
        if not math.isfinite(self.k * self.k + self.k + self.eps * self.n):
            raise ValueError(f"eps={self.eps} gives a trace k^2+k+eps*n that is not finite")

    @property
    def v(self) -> np.ndarray:
        out = np.zeros(self.k * self.k, dtype=complex)
        for i in range(self.n):
            out += tensor(basis_ket(self.k, 2 * i), basis_ket(self.k, 2 * i + 1))
        return out


def cariello_gamma(params: GammaParams) -> DensityMatrix:
    """Id + F + eps |v><v| divided by its trace k^2 + k + eps n: entangled
    for n >= 2, PPT over the range given in :class:`GammaParams`."""
    k = params.k
    gamma = np.eye(k * k, dtype=complex) + swap_operator(k).mat + params.eps * projector(params.v)
    return DensityMatrix(gamma / gamma.trace().real, k, k)


# Weights and second-pair states of the 4 kron 4 bound entangled state with
# maximal CCNR violation: sum_i p_i |Psi_i><Psi_i|_AB kron rho^(i)_A'B',
# regrouped into the (AA')|(BB') cut.
_RHO_CCNR_WEIGHTS = (1 / 6, 1 / 6, 1 / 6, 1 / 2)
_RHO_CCNR_BELLS = ("phi+", "phi-", "psi+", "psi-")
_RHO_CCNR_SPECTRUM = np.array([1 / 4] + [1 / 12] * 15)


def _rho_ccnr_second_pair() -> tuple:
    comp = (np.eye(4) - projector(bell_ket("phi-"))) / 3.0
    return (
        projector(bell_ket("psi+")),
        projector(bell_ket("psi-")),
        projector(bell_ket("phi+")),
        comp,
    )


def rho_ccnr() -> DensityMatrix:
    """The 4 kron 4 PPT entangled state maximizing the CCNR violation.

    Built from Bell-state pairs on qubits (A, B) correlated with two-qubit
    states on (A', B'), then regrouped into the (AA')|(BB') bipartition.
    The construction is self-validating: it aborts unless the realigned
    singular values come out as {1/4, 1/12 x15}.
    """
    mats = _rho_ccnr_second_pair()
    mat = np.zeros((16, 16), dtype=complex)
    for which, p, second in zip(_RHO_CCNR_BELLS, _RHO_CCNR_WEIGHTS, mats):
        mat += p * np.kron(projector(bell_ket(which)), second)
    # qubit order (A, B, A', B') -> (A, A', B, B')
    mat = _permute_subsystems(mat, (2, 2, 2, 2), (0, 2, 1, 3))
    state = DensityMatrix(mat, 4, 4)
    spectrum = state.realigned_spectrum
    if not np.allclose(np.sort(spectrum), np.sort(_RHO_CCNR_SPECTRUM), atol=1e-10):
        raise RuntimeError(
            "rho_ccnr construction failed its spectrum self-check: "
            f"{np.sort(spectrum)[::-1]}"
        )
    return state


# 3 kron 3 PPT entangled state with maximal CCNR violation, found by the
# see-saw search and transcribed from its 5-decimal published form.  The
# matrix is symmetrized and trace-renormalized; positivity is only good to
# the rounding scale, hence the relaxed tolerances.
_RHO_CCNR_3X3_ROWS = (
    (0.19474, 0.03386, -0.00588, 0.03389, -0.05209, -0.03997, 0.04765, -0.02083, 0.03734),
    (0.03386, 0.07216, 0.02896, 0.04847, -0.00093, -0.02711, -0.03363, -0.01904, -0.05696),
    (-0.00588, 0.02896, 0.07508, 0.00102, 0.06799, -0.00988, -0.05149, -0.01154, 0.00288),
    (0.03389, 0.04847, 0.00102, 0.05986, 0.01951, -0.05253, 0.01890, -0.02943, -0.04161),
    (-0.05209, -0.00093, 0.06799, 0.01951, 0.17277, -0.02847, 0.02028, -0.07422, 0.02861),
    (-0.03997, -0.02711, -0.00988, -0.05253, -0.02847, 0.11131, -0.01357, -0.03116, 0.02362),
    (0.04765, -0.03363, -0.05149, 0.01890, 0.02028, -0.01357, 0.10703, -0.05361, 0.04412),
    (-0.02083, -0.01904, -0.01154, -0.02943, -0.07422, -0.03116, -0.05361, 0.11615, -0.01626),
    (0.03734, -0.05696, 0.00288, -0.04161, 0.02861, 0.02362, 0.04412, -0.01626, 0.09090),
)

RHO_CCNR_3X3_SPECTRUM = (0.3401, 0.1712, 0.1447, 0.1418, 0.1202, 0.1197, 0.0568, 0.0490, 0.0455)
RHO_CCNR_3X3_TRACE_NORM = 1.1891


def rho_ccnr_3x3() -> DensityMatrix:
    """The 3 kron 3 full-rank PPT entangled state with maximal CCNR violation."""
    m = np.array(_RHO_CCNR_3X3_ROWS, dtype=float)
    m = (m + m.T) / 2.0
    m = m / np.trace(m)
    return DensityMatrix(m, 3, 3, psd_tol=1e-4)


def filtered_werner_closed_form(d: int, v: float) -> DensityMatrix:
    """Closed form of the Werner state after the rank-2 subspace filters.

    A 4-dimensional block on the local span of |0>, |1| carries all the
    weight:

        [(d+1)(1-v) |Phi2+><Phi2+| + v(d-1)(Id4 - |Phi2+><Phi2+|)] / N

    with N = (d+1)(1-v) + 3v(d-1), padded by zeros on the complement.
    The realigned matrix is rank-deficient, so the state is never a
    usable tomography probe.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v={v} outside [0, 1]")
    norm = (d + 1) * (1.0 - v) + 3.0 * v * (d - 1)
    if norm <= 0.0:
        raise ValueError("normalization vanished")
    phi2 = (tensor(basis_ket(d, 0), basis_ket(d, 0)) +
            tensor(basis_ket(d, 1), basis_ket(d, 1))) / np.sqrt(2)
    block_eye = np.zeros((d * d, d * d), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            idx = i * d + j
            block_eye[idx, idx] = 1.0
    p2 = projector(phi2)
    mat = ((d + 1) * (1.0 - v) * p2 + v * (d - 1) * (block_eye - p2)) / norm
    return DensityMatrix(mat, d, d)


def random_density_matrix(dA: int, dB: int, rng: np.random.Generator,
                          rank: int | None = None) -> DensityMatrix:
    """Wishart-distributed random state G G^dag / Tr, full rank by default."""
    n = dA * dB
    r = n if rank is None else rank
    if not 1 <= r <= n:
        raise ValueError("rank must lie in [1, dA*dB]")
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dA, dB)
