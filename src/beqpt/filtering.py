"""Local filtering: rho -> (A kron B) rho (A kron B)^dag, renormalized.

Filters are arbitrary local contractions (A^dag A <= Id, B^dag B <= Id).
The rank-2 subspace filters A_W = sigma_z + zeros, B_W = sigma_x + zeros
squeeze a Werner state into a single two-qubit block; they raise the
realigned trace norm but destroy full operator Schmidt rank, which is
why the filtered states stop being usable tomography probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import DensityMatrix, as_complex_matrix, check_number, local_operation, max_entry
from .diagnostics import DiagnosticsReport, full_report
from .reports import Record

CONTRACTION_TOL = 1e-10
ANNIHILATION_TOL = 1e-14
CCNR_INCREASE_TOL = 1e-12  # a CCNR gain at or below this is not an increase


class AnnihilatedState(Exception):
    """The filter sent the state (numerically) to zero."""


@dataclass(frozen=True)
class FilterPair:
    """Local contraction pair; validated so that A^dag A <= Id and
    B^dag B <= Id within CONTRACTION_TOL."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        for name in ("A", "B"):
            m = as_complex_matrix(getattr(self, name), f"filter {name}")
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"filter {name} must be square")
            # a contraction has no entry above 1, so A^dag A cannot overflow
            big = max_entry(m)
            if big > 1.0 + CONTRACTION_TOL:
                raise ValueError(f"filter {name} is not a contraction: "
                                 f"an entry of magnitude {big:.3e} exceeds 1")
            top = float(np.linalg.eigvalsh(m.conj().T @ m).max())
            if not top <= 1.0 + CONTRACTION_TOL:  # also rejects NaN
                raise ValueError(
                    f"filter {name} is not a contraction: largest eigenvalue "
                    f"of {name}^dag {name} is {top:.12g}"
                )
            object.__setattr__(self, name, m)


def identity_filters(dA: int, dB: int) -> FilterPair:
    """Identity on each side: leaves any state on C^dA kron C^dB unchanged."""
    check_number("dA", dA, lo=1)  # before np.eye, which raises TypeError for a float
    check_number("dB", dB, lo=1)
    return FilterPair(np.eye(dA), np.eye(dB))


def werner_filters(d: int) -> FilterPair:
    """A = diag(1, -1, 0, ...), B with the 0<->1 flip and zeros elsewhere;
    both sides project onto the first two basis vectors (rank 2)."""
    check_number("d", d, lo=3)
    a = np.zeros((d, d), dtype=complex)
    a[0, 0] = 1.0
    a[1, 1] = -1.0
    b = np.zeros((d, d), dtype=complex)
    b[0, 1] = 1.0
    b[1, 0] = 1.0
    return FilterPair(a, b)


def local_filter(rho: DensityMatrix, f: FilterPair) -> DensityMatrix:
    """Apply (A kron B) . (A kron B)^dag and renormalize.

    Raises AnnihilatedState when the normalization trace vanishes.
    """
    out = local_operation(rho, f.A, f.B)
    weight = float(out.trace().real)
    if weight <= ANNIHILATION_TOL:
        raise AnnihilatedState(f"filter annihilated the state (trace {weight:.3e})")
    return DensityMatrix(out / weight, rho.dA, rho.dB)


@dataclass(frozen=True)
class FilterAnalysis(Record):
    before: DiagnosticsReport
    after: DiagnosticsReport
    ccnr_increased: bool
    faithfulness_lost: bool


def filter_analysis(rho: DensityMatrix, f: FilterPair) -> FilterAnalysis:
    """Diagnostics before and after filtering, with the derived flags."""
    before = full_report(rho)
    after = full_report(local_filter(rho, f))
    return FilterAnalysis(
        before=before,
        after=after,
        ccnr_increased=bool(after.ccnr_value > before.ccnr_value + CCNR_INCREASE_TOL),
        faithfulness_lost=bool(before.faithful and not after.faithful),
    )
