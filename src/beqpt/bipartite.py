"""Dense linear algebra for operators on a bipartite Hilbert space.

Everything works on explicit dense matrices: complex ones for the
library's operators and states, and real float64 stacks for the see-saw,
whose kernels keep a real input real (see below).  One indexing
convention is fixed here and used by every other module:

* composite basis ordering is row-major, ``|i>|k| -> i*dB + k``;
* vec stacks rows, ``m.reshape(-1)``, so ``vec(|i><j|) = |i>|j>`` and
  ``vec(A X B) = (A kron B^T) vec(X)``;
* the realignment of ``rho = sum rho_{ij,kl} |i><j| kron |k><l|`` is the
  dA^2 x dB^2 matrix holding ``rho_{ij,kl}`` at row ``i*dA + j``,
  column ``k*dB + l``, so that ``realign(A kron B) = vec(A) vec(B)^T``.

With this choice the three fixed points

    realign(Id) = |u><u|,   realign(F) = F,   realign(|u><u|) = Id

hold exactly (``|u> = sum_i |ii>``, ``F`` the swap); the test suite pins
the convention against them.

The ordering also fixes the tensor product: ``_kron`` is the package's
one Kronecker product.  It is the broadcast product that numpy's
``kron`` forms, so it gives the same bytes without that function's
per-call overhead.  ``tensor`` is the one regrouping rule, rho_AB kron
sigma_A'B' on the cut (AA')|(BB') from the same single products
(``states.rho_ccnr``, the ancillas of ``diagnostics.rudolph_checks``).
Filters and local unitaries are the one local product
``local_operation``; a channel acts through its superoperator instead
(``channels.apply_extended``), and a Lueders measurement is one basis
change by ``_kron(ua, ub)`` (``diagnostics.lueders_product_measurement``).

Each operator computes its descending realigned spectrum once, on first
use of ``realigned_spectrum``; the Schmidt rank, and through it every
faithfulness rule, cuts that spectrum at the module constant
``SCHMIDT_REL_TOL``.  It is the only factorization an operator keeps.

The index kernels ``partial_transpose``, ``realign_inverse`` and
``_realign`` act on the last two axes of an array, so the see-saw runs
them on its stacks; they, ``herm_part`` and the projections keep a real
input real, which lets the see-saw search real states in float64.
``realign`` stays typed over ``_realign``, which keeps the see-saw's
Y-step off the benchmark tracer's ``bipartite.realign``.

The density set lives here too: ``project_psd_trace_one`` is the
Frobenius-nearest state of a Hermitian matrix or of each matrix in a
stack, its spectrum moved onto the simplex (``project_simplex``).  It is
the one projection function, which the see-saw's Dykstra projection and
the noisy reconstruction share.

``check_number`` is the one parameter check: every numeric argument of
the library, from these local dimensions to the family parameters, counts
and seeds, has its type, finiteness and inclusive bounds tested there.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
SCHMIDT_REL_TOL = 1e-9  # realigned singular values at or below this * sigma_max count as 0


def check_number(name: str, value, real: bool = False, lo=None, hi=None) -> None:
    """The one parameter check: reject a bool, a ``value`` that is not an
    integer (a finite real number if ``real``), or one outside the inclusive
    bounds ``lo``, ``hi``, with a ValueError that names the parameter ``name``."""
    kind, noun = (numbers.Real, "a real number") if real else (numbers.Integral, "an integer")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if real and not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails too
        if isinstance(value, numbers.Integral):  # it would overflow in float arithmetic
            raise ValueError(f"{name} is an int past the float range")
        raise ValueError(f"{name}={value} is not finite")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = (f"be >= {lo}" if hi is None else f"be <= {hi}" if lo is None
                 else f"lie in [{lo}, {hi}]")
        raise ValueError(f"{name} must {'be finite and ' * real}{bound}, got {value}")


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, 2-D, C-contiguous complex128 array; a ValueError
    names the argument ``name``.  The result is a private read-only copy,
    so neither the caller's array nor its base can change it, and the
    caller's array stays writable.  An array that is already frozen,
    complex128, C-contiguous and owns its data, as every result of this
    function is, is checked and returned as it is, not copied again."""
    frozen = (type(m) is np.ndarray and m.dtype == np.complex128 and m.flags.c_contiguous
              and m.flags.owndata and not m.flags.writeable)
    mat = m if frozen else np.array(m, dtype=np.complex128, order="C")
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    mat.setflags(write=False)
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
        check_number("dA", self.dA, lo=1)
        check_number("dB", self.dB, lo=1)
        mat = as_complex_matrix(self.mat)
        n = self.dA * self.dB
        if mat.shape != (n, n):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dA*dB = {n}"
            )
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.dA * self.dB

    @cached_property
    def realigned_spectrum(self) -> np.ndarray:
        """Descending singular values of realign(self), read-only; computed
        on first use, which is safe since ``mat`` is a private read-only
        copy (see ``as_complex_matrix``) that nothing can change."""
        s = singular_values(realign(self))
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class DensityMatrix(BipartiteOperator):
    """A BipartiteOperator that is Hermitian, PSD and unit trace.

    Each test passes within the larger of its strict constant and
    ``slack``, which relaxes them for states transcribed from rounded
    published data or made by a map with its own error.  ``eigenvalues``
    keeps the ascending spectrum of the Hermitian part that validation
    computed.
    """

    slack: InitVar[float] = 0.0
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, slack):
        super().__post_init__()
        check_number("slack", slack, real=True, lo=0)
        herm, psd, trace = (max(tol, slack) for tol in (HERM_TOL, PSD_TOL, TRACE_TOL))
        m = self.mat
        with np.errstate(over="ignore"):  # an overflow gives inf, which fails its test
            dev = np.abs(m - m.conj().T).max()
            if dev > herm:
                raise ValueError(f"not Hermitian: max entry deviation {dev:.3e}")
            tr = m.trace()
            if abs(tr - 1.0) > trace:
                raise ValueError(f"trace {tr:.17g} is not 1")
        # a Hermitian unit-trace matrix with a larger entry has an eigenvalue
        # below -psd; checked first, so that eigvalsh cannot overflow
        big = max_entry(m)
        if big > 1.0 + herm + trace + m.shape[0] * psd:
            raise ValueError(f"not PSD: an entry of magnitude {big:.3e} exceeds 1")
        w = np.linalg.eigvalsh(herm_part(m))
        min_eig = float(w.min())
        if not min_eig >= -psd:  # also rejects NaN
            raise ValueError(f"not PSD: min eigenvalue {min_eig:.3e}")
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector, or of each row of an array,
    onto the probability simplex (sort-and-threshold algorithm)."""
    u = np.sort(v, axis=-1)[..., ::-1]
    t = (u.cumsum(axis=-1) - 1.0) / np.arange(1, v.shape[-1] + 1)
    # theta is t at the last index j that passes, u_j > t_j.  t_j is the mean
    # of t_{j-1}, j - 1 times, and u_j, so t rises exactly while u_j passes
    # and theta is the maximum of t
    return np.maximum(v - t.max(axis=-1, keepdims=True), 0.0)


def _from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v * w[..., None, :]) @ v.conj().mT


def project_psd_trace_one(x: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD unit-trace matrix to the Hermitian part of a
    matrix, or of each matrix in a stack: the spectrum onto the simplex.
    A real input gives a real output."""
    w, v = np.linalg.eigh(herm_part(x))
    return _from_spectrum(project_simplex(w), v)


def swap_operator(k: int) -> BipartiteOperator:
    """Flip operator F = sum_ij |ij><ji| on C^k kron C^k."""
    check_number("k", k, lo=1)
    F = np.eye(k * k, dtype=complex).reshape(k, k, k * k).swapaxes(0, 1)
    return BipartiteOperator(F.reshape(k * k, k * k), k, k)


def max_entangled(k: int, normalized: bool = False) -> np.ndarray:
    """|u> = sum_i |ii>, or the unit vector |Phi+> = |u>/sqrt(k)."""
    check_number("k", k, lo=1)
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a kron b of two matrices: entry (i*p + k, j*q + l) = a_ij b_kl for
    b of shape (p, q).  It is the broadcast product numpy's ``kron`` forms,
    so the bytes are the same."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def tensor(rho: BipartiteOperator, sigma: BipartiteOperator) -> BipartiteOperator:
    """rho_AB kron sigma_A'B' on the cut (AA')|(BB'), whose realigned matrix
    is realign(rho) kron realign(sigma).  Each entry is the one product
    ``_kron`` forms, so no bit depends on the regrouping."""
    (dA, dB), (a, b) = (rho.dA, rho.dB), (sigma.dA, sigma.dB)
    m = rho.mat.reshape(dA, 1, dB, 1, dA, 1, dB, 1) * sigma.mat.reshape(1, a, 1, b, 1, a, 1, b)
    return BipartiteOperator(m.reshape(dA * a * dB * b, -1), dA * a, dB * b)


def _check_local_pair(a: np.ndarray, b: np.ndarray, dA: int, dB: int) -> None:
    """Raise a ValueError unless a is dA x dA and b is dB x dB."""
    if a.shape != (dA, dA) or b.shape != (dB, dB):
        raise ValueError(f"local operators of shapes {a.shape} and {b.shape} "
                         f"do not act on local dims {(dA, dB)}")


def local_operation(rho: BipartiteOperator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a kron b) rho (a kron b)^dag for a dA x dA and b dB x dB, checked
    before the product is formed by ``_kron``.  It sits beside
    ``realign``, which turns it into a product:
    R((a kron b) rho (a kron b)^dag) = (a kron conj a) R(rho) (b kron conj b)^T."""
    _check_local_pair(a, b, rho.dA, rho.dB)
    m = _kron(a, b)
    return m @ rho.mat @ m.conj().T


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
    return int(np.count_nonzero(s > SCHMIDT_REL_TOL * s[0]))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix with the
    phase convention that makes the distribution uniform)."""
    check_number("d", d, lo=1)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))
