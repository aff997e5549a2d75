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

The index kernels ``partial_transpose``, ``realign_inverse`` and
``_realign`` act on the last two axes of an array, so the see-saw runs
them on its stacks.  ``realign`` stays typed over ``_realign``, which keeps
the see-saw's Y-step off the benchmark tracer's ``bipartite.realign``.

The density set lives here too: ``project_psd_trace_one`` is the
Frobenius-nearest state, its spectrum moved onto the simplex
(``project_simplex``); ``_project_dm_mat`` is its kernel on a matrix or
a stack, which the see-saw's Dykstra projection and the noisy
reconstruction share.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
SCHMIDT_REL_TOL = 1e-9  # realigned singular values at or below this * sigma_max count as 0
PINV_RCOND = 1e-12  # the realigned pseudo-inverse cuts at this * sigma_max


def check_number(name: str, value, real: bool = False) -> None:
    """Reject a bool, or a ``value`` that is not an integer (a real number
    if ``real``), with a ValueError that names the parameter ``name``."""
    kind, noun = (numbers.Real, "a real number") if real else (numbers.Integral, "an integer")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")


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


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector, or of each row of an array,
    onto the probability simplex (sort-and-threshold algorithm)."""
    u = np.sort(v, axis=-1)[..., ::-1]
    idx = np.arange(1, v.shape[-1] + 1)
    t = (u.cumsum(axis=-1) - 1.0) / idx
    # theta is t at the last index that passes.  The largest entry always
    # passes in exact arithmetic; once it reaches 2**53 its test rounds to
    # 0, so a row where none passes takes that entry alone (argmax 0)
    last = ((u - t > 0) * idx).argmax(axis=-1, keepdims=True)
    return np.maximum(v - np.take_along_axis(t, last, axis=-1), 0.0)


def _from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v * w[..., None, :]) @ v.conj().mT


def _project_dm_mat(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(herm_part(x))
    return _from_spectrum(project_simplex(w), v)


def project_psd_trace_one(x: np.ndarray, dA: int, dB: int) -> DensityMatrix:
    """Frobenius-nearest PSD unit-trace matrix: the spectrum onto the simplex."""
    return DensityMatrix(_project_dm_mat(np.asarray(x, dtype=complex)), dA, dB)


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
    F = np.eye(k * k, dtype=complex).reshape(k, k, k * k).swapaxes(0, 1)
    return BipartiteOperator(F.reshape(k * k, k * k), k, k)


def max_entangled(k: int, normalized: bool = False) -> np.ndarray:
    """|u> = sum_i |ii>, or the unit vector |Phi+> = |u>/sqrt(k)."""
    if k < 1:
        raise ValueError("dimension must be >= 1")
    u = np.zeros(k * k, dtype=complex)
    u[np.arange(k) * (k + 1)] = 1.0
    return u / np.sqrt(k) if normalized else u


def _realign(mat: np.ndarray, dA: int, dB: int) -> np.ndarray:
    t = mat.reshape(mat.shape[:-2] + (dA, dB, dA, dB)).swapaxes(-3, -2)
    return t.reshape(mat.shape[:-2] + (dA * dA, dB * dB))


def realign(rho: BipartiteOperator) -> np.ndarray:
    """Entrywise rearrangement rho_{ij,kl} -> entry (i*dA+j, k*dB+l).

    A Hilbert-Schmidt isometry onto dA^2 x dB^2 matrices; for a product
    operator, realign(A kron B) = vec(A) vec(B)^T.
    """
    return _realign(rho.mat, rho.dA, rho.dB)


def realign_inverse(m: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """Inverse index permutation of realign, dA^2 x dB^2 -> dA*dB x dA*dB."""
    t = m.reshape(m.shape[:-2] + (dA, dA, dB, dB)).swapaxes(-3, -2)
    return t.reshape(m.shape[:-2] + (dA * dB, dA * dB))


def partial_transpose(mat: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """(rho^{T_B})_{ij,kl} = rho_{il,kj}; rho^{T_A} is its transpose .mT."""
    lead = mat.shape[:-2]
    t = mat.reshape(lead + (dA, dB, dA, dB)).swapaxes(-3, -1)
    return t.reshape(lead + (dA * dB, dA * dB))


def check_realign(rho: BipartiteOperator) -> np.ndarray:
    """The variant (rho^{T_B} F)^{T_A}; shares its singular values with
    realign(rho).  Defined only for square bipartitions."""
    if rho.dA != rho.dB:
        raise ValueError("check_realign requires dA == dB")
    d = rho.dA
    F = swap_operator(d).mat
    return partial_transpose(partial_transpose(rho.mat, d, d) @ F, d, d).T


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
