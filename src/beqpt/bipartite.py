"""Dense linear algebra for operators on a bipartite Hilbert space.

Everything works on explicit dense complex matrices.  One indexing
convention is fixed here and used by every other module:

* composite basis ordering is row-major, ``|i>|k| -> i*dB + k``;
* ``vec`` stacks rows, so ``vec(|i><j|) = |i>|j>`` and
  ``vec(A X B) = (A kron B^T) vec(X)``;
* the realignment of ``rho = sum rho_{ij,kl} |i><j| kron |k><l|`` is the
  dA^2 x dB^2 matrix holding ``rho_{ij,kl}`` at row ``i*dA + j``,
  column ``k*dB + l``, so that ``realign(A kron B) = vec(A) vec(B)^T``.

With this choice the three fixed points

    realign(Id) = |u><u|,   realign(F) = F,   realign(|u><u|) = Id

hold exactly (``|u> = sum_i |ii>``, ``F`` the swap); the test suite pins
the convention against them.

Each operator computes its descending realigned spectrum once, on first
use of ``realigned_spectrum``; the Schmidt rank, and through it every
faithfulness rule, cuts that spectrum at the module constant
``SCHMIDT_REL_TOL``.  Its realigned pseudo-inverse, cut at
``PINV_RCOND``, is kept the same way (``realigned_pinv``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
SCHMIDT_REL_TOL = 1e-9  # realigned singular values at or below this * sigma_max count as 0
PINV_RCOND = 1e-12  # the realigned pseudo-inverse cuts at this * sigma_max


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite, 2-D, C-contiguous complex128 array."""
    mat = np.ascontiguousarray(m, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("matrix contains non-finite entries")
    return mat


def max_entry(m: np.ndarray) -> float:
    """Largest |Re| or |Im| entry of a complex matrix from
    ``as_complex_matrix``; unlike abs() it cannot overflow."""
    return float(np.abs(m.view(np.float64)).max())


def herm_part(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of each matrix in a stack."""
    return (m + m.conj().mT) / 2.0


@dataclass(frozen=True)
class BipartiteOperator:
    """Square operator on C^dA kron C^dB with the factorization recorded.

    The local dimensions are always stored explicitly, never inferred
    from the matrix size.
    """

    mat: np.ndarray
    dA: int
    dB: int

    def __post_init__(self):
        if self.dA < 1 or self.dB < 1:
            raise ValueError("local dimensions must be positive")
        mat = as_complex_matrix(self.mat)
        n = self.dA * self.dB
        if mat.shape != (n, n):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dA*dB = {n}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.dA * self.dB

    @cached_property
    def realigned_spectrum(self) -> np.ndarray:
        """Descending singular values of realign(self), read-only; computed
        on first use, which is safe since ``mat`` is read-only too."""
        s = singular_values(realign(self))
        s.setflags(write=False)
        return s

    @cached_property
    def realigned_pinv(self) -> np.ndarray:
        """pinv(realign(self)) cut at PINV_RCOND, read-only and computed on
        first use, so a probe is inverted once however many channels it
        reconstructs."""
        m = np.linalg.pinv(realign(self), rcond=PINV_RCOND)
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class DensityMatrix(BipartiteOperator):
    """A BipartiteOperator that is Hermitian, PSD and unit trace.

    Tolerances can be relaxed for states transcribed from rounded
    published data; the defaults are the strict ones.  ``eigenvalues``
    keeps the ascending spectrum of the Hermitian part that validation
    computed.
    """

    herm_tol: InitVar[float] = HERM_TOL
    psd_tol: InitVar[float] = PSD_TOL
    trace_tol: InitVar[float] = TRACE_TOL
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, herm_tol, psd_tol, trace_tol):
        super().__post_init__()
        m = self.mat
        with np.errstate(over="ignore"):  # an overflow gives inf, which fails its test
            dev = np.abs(m - m.conj().T).max()
            if dev > herm_tol:
                raise ValueError(f"not Hermitian: max entry deviation {dev:.3e}")
            tr = m.trace()
            if abs(tr - 1.0) > trace_tol:
                raise ValueError(f"trace {tr:.17g} is not 1")
        # a Hermitian unit-trace matrix with a larger entry has an eigenvalue
        # below -psd_tol; checked first, so that eigvalsh cannot overflow
        big = max_entry(m)
        if big > 1.0 + herm_tol + trace_tol + m.shape[0] * psd_tol:
            raise ValueError(f"not PSD: an entry of magnitude {big:.3e} exceeds 1")
        w = np.linalg.eigvalsh(herm_part(m))
        min_eig = float(w.min())
        if not min_eig >= -psd_tol:  # also rejects NaN
            raise ValueError(f"not PSD: min eigenvalue {min_eig:.3e}")
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (a kron b)_{(i,k),(j,l)} = a_ij b_kl."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def vec(m: np.ndarray) -> np.ndarray:
    """Row-stacking vectorization, vec(|i><j|) = |i>|j>."""
    return np.asarray(m, dtype=complex).reshape(-1)


def swap_operator(k: int) -> BipartiteOperator:
    """Flip operator F = sum_ij |ij><ji| on C^k kron C^k."""
    if k < 1:
        raise ValueError("dimension must be >= 1")
    F = np.zeros((k * k, k * k), dtype=complex)
    for i in range(k):
        for j in range(k):
            F[i * k + j, j * k + i] = 1.0
    return BipartiteOperator(F, k, k)


def max_entangled(k: int, normalized: bool = False) -> np.ndarray:
    """|u> = sum_i |ii>, or the unit vector |Phi+> = |u>/sqrt(k)."""
    if k < 1:
        raise ValueError("dimension must be >= 1")
    u = np.zeros(k * k, dtype=complex)
    u[np.arange(k) * (k + 1)] = 1.0
    return u / np.sqrt(k) if normalized else u


# The index kernels below act on the last two axes, so a stack of
# matrices goes through the same code as one matrix.

def _realign(mat: np.ndarray, dA: int, dB: int) -> np.ndarray:
    t = mat.reshape(mat.shape[:-2] + (dA, dB, dA, dB)).swapaxes(-3, -2)
    return t.reshape(mat.shape[:-2] + (dA * dA, dB * dB))


def _realign_inverse(m: np.ndarray, dA: int, dB: int) -> np.ndarray:
    t = m.reshape(m.shape[:-2] + (dA, dA, dB, dB)).swapaxes(-3, -2)
    return t.reshape(m.shape[:-2] + (dA * dB, dA * dB))


def realign(rho: BipartiteOperator) -> np.ndarray:
    """Entrywise rearrangement rho_{ij,kl} -> entry (i*dA+j, k*dB+l).

    A Hilbert-Schmidt isometry onto dA^2 x dB^2 matrices; for a product
    operator, realign(A kron B) = vec(A) vec(B)^T.
    """
    return _realign(rho.mat, rho.dA, rho.dB)


def realign_inverse(m: np.ndarray, dA: int, dB: int) -> BipartiteOperator:
    """Inverse index permutation of realign."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dA * dA, dB * dB):
        raise ValueError(
            f"expected shape {(dA * dA, dB * dB)}, got {m.shape}"
        )
    return BipartiteOperator(_realign_inverse(m, dA, dB), dA, dB)


def _partial_transpose(mat: np.ndarray, dA: int, dB: int, subsystem: str) -> np.ndarray:
    lead = mat.shape[:-2]
    t = mat.reshape(lead + (dA, dB, dA, dB))
    if subsystem == "A":
        t = t.swapaxes(-4, -2)
    elif subsystem == "B":
        t = t.swapaxes(-3, -1)
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return t.reshape(lead + (dA * dB, dA * dB))


def partial_transpose(rho: BipartiteOperator, subsystem: str = "B") -> BipartiteOperator:
    """Transpose one tensor factor: (rho^{T_B})_{ij,kl} = rho_{il,kj}."""
    return BipartiteOperator(
        _partial_transpose(rho.mat, rho.dA, rho.dB, subsystem), rho.dA, rho.dB
    )


def check_realign(rho: BipartiteOperator) -> np.ndarray:
    """The variant (rho^{T_B} F)^{T_A}; shares its singular values with
    realign(rho).  Defined only for square bipartitions."""
    if rho.dA != rho.dB:
        raise ValueError("check_realign requires dA == dB")
    d = rho.dA
    F = swap_operator(d).mat
    m = _partial_transpose(rho.mat, d, d, "B") @ F
    return _partial_transpose(m, d, d, "A")


def partial_trace(rho: BipartiteOperator, subsystem: str) -> np.ndarray:
    """Trace out the named subsystem, returning the other factor."""
    t = rho.mat.reshape(rho.dA, rho.dB, rho.dA, rho.dB)
    if subsystem == "A":
        return np.trace(t, axis1=0, axis2=2)
    if subsystem == "B":
        return np.trace(t, axis1=1, axis2=3)
    raise ValueError("subsystem must be 'A' or 'B'")


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


def trace_norm(m: np.ndarray) -> float:
    """Schatten 1-norm, the sum of singular values."""
    return float(singular_values(m).sum())


def operator_schmidt_rank(rho: BipartiteOperator) -> int:
    """Number of realigned singular values above SCHMIDT_REL_TOL * sigma_max.

    Returns 0 for the zero operator.
    """
    s = rho.realigned_spectrum
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > SCHMIDT_REL_TOL * s[0]))


def _permute_subsystems(mat: np.ndarray, dims, order) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(*dims, *dims)
    axes = list(order) + [n + a for a in order]
    d = int(np.prod(dims))
    return t.transpose(axes).reshape(d, d)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix with the
    phase convention that makes the distribution uniform)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))
