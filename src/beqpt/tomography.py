"""Ancilla-assisted process tomography by linear inversion.

A channel acting on one half of a bipartite probe is recovered from the
joint output state.  The whole pipeline rests on one matrix identity of
the row-stacking convention: writing rho = sum_m A_m kron B_m,

    realign((E kron Id) rho) = E_hat realign(rho),

so the superoperator is E_hat = realign(rho_out) realign(probe)^-1
whenever the probe's realigned matrix is invertible.  The simulation
runs the same identity forward (``channels.apply_extended``), so a
round trip checks the inversion; the tests check the identity itself
against the Kraus sum.  Probes failing that invertibility test
(non-faithful probes) are rejected up front by the one faithfulness
gate, which reads the probe's cached realigned spectrum (cut at
SCHMIDT_REL_TOL); a probe is factorized once, however many channels it
reconstructs, and each reconstruction solves the linear system against
the realigned probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    SCHMIDT_REL_TOL,
    BipartiteOperator,
    DensityMatrix,
    _from_spectrum,
    as_complex_matrix,
    check_number,
    herm_part,
    project_psd_trace_one,
    realign,
    realign_inverse,
)
from .channels import ChoiMatrix, KrausChannel, apply_extended, choi_of
from .diagnostics import DiagnosticsReport, full_report, is_faithful
from .reports import Record

EXACT_CLIP_BUDGET = 1e-8


class UnfaithfulProbe(Exception):
    """Probe whose realigned matrix is numerically singular; the linear
    reconstruction map does not exist for it."""

    def __init__(self, sigma_min: float, sigma_max: float, rel_tol: float):
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        self.rel_tol = rel_tol
        super().__init__(
            f"probe is not faithful: sigma_min={sigma_min:.3e} <= "
            f"{rel_tol:.1e} * sigma_max={sigma_max:.3e}"
        )


class NoiseBudgetExceeded(Exception):
    """Reconstruction rejected as inconsistent with its noise level: more
    negative weight to clip than the budget, or a Choi matrix that fails
    its trace or trace-preservation check."""

    def __init__(self, message: str, clipped_weight: float, budget: float):
        self.clipped_weight = clipped_weight
        self.budget = budget
        super().__init__(message)


@dataclass(frozen=True)
class ReconstructionResult(Record):
    probe_report: DiagnosticsReport
    superop_reconstructed: BipartiteOperator
    choi_reconstructed: ChoiMatrix
    choi_true: ChoiMatrix
    trace_distance: float
    noise_level: float


def reconstruct_superop(rho_out: BipartiteOperator, probe: DensityMatrix) -> np.ndarray:
    """E_hat = realign(rho_out) realign(probe)^-1, behind the faithfulness
    gate.

    The gate is the only invertibility rule: a probe that passes it has
    an invertible realigned matrix, so E_hat solves
    E_hat realign(probe) = realign(rho_out) directly, with no inverse
    formed.  An output whose local dimensions differ from the probe's is
    a ValueError.
    """
    if (rho_out.dA, rho_out.dB) != (probe.dA, probe.dB):
        raise ValueError(
            f"output dims ({rho_out.dA}, {rho_out.dB}) do not match "
            f"probe dims ({probe.dA}, {probe.dB})"
        )
    ok, smin, _ = is_faithful(probe)
    if not ok:
        raise UnfaithfulProbe(smin, float(probe.realigned_spectrum[0]), SCHMIDT_REL_TOL)
    return np.linalg.solve(realign(probe).T, realign(rho_out).T).T


def superop_to_choi(e_hat: np.ndarray, d: int, noise_level: float = 0.0) -> ChoiMatrix:
    """S = realign_inverse(E_hat) / d, with noise handling.

    Negative eigenvalues are clipped and the trace renormalized provided
    the clipped weight stays below 10 x noise_level (plus a small budget
    for exact-arithmetic roundoff).  Beyond that, or when the result
    fails its trace (checked before renormalizing) or trace-preservation
    check within the same budget, the input is inconsistent and
    NoiseBudgetExceeded is raised.
    """
    check_number("d", d, lo=1)
    check_number("noise_level", noise_level, real=True, lo=0)
    e_hat = as_complex_matrix(e_hat, "e_hat")
    if e_hat.shape != (d * d, d * d):
        raise ValueError(f"e_hat shape {e_hat.shape} != ({d*d}, {d*d})")
    s = herm_part(realign_inverse(e_hat, d, d)) / d
    w, v = np.linalg.eigh(s)
    clipped = abs(float(w[w < 0].sum()))  # abs, so no negative weight is 0.0, not -0.0
    budget = 10.0 * noise_level + EXACT_CLIP_BUDGET
    if clipped > budget:
        raise NoiseBudgetExceeded(
            f"reconstructed Choi matrix is not PSD: clipped weight {clipped:.3e} "
            f"exceeds the budget {budget:.3e} for noise level {noise_level:g}",
            clipped, budget,
        )
    if clipped > 0.0:
        s = _from_spectrum(np.clip(w, 0.0, None), v)
        tr = s.trace().real
        if abs(tr - 1.0) > budget:
            raise NoiseBudgetExceeded(f"trace {tr:.17g} is not 1", clipped, budget)
        s = s / tr
    try:
        return ChoiMatrix(s, d, slack=budget)
    except ValueError as exc:
        raise NoiseBudgetExceeded(str(exc), clipped, budget) from exc


def trace_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """(1/2) ||a - b||_1 for Hermitian arguments, via eigenvalues."""
    diff = herm_part(a.mat - b.mat)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def _gaussian_hermitian(n: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = herm_part(g)
    return h * (scale / np.linalg.norm(h))


def run_aaqpt(ch: KrausChannel, probe: DensityMatrix, noise: float = 0.0,
              seed: int | None = None) -> ReconstructionResult:
    """Simulate, optionally perturb, reconstruct, and score.

    ``noise`` is the Frobenius scale of a seeded Gaussian Hermitian
    perturbation of the output state (a state-level proxy for
    statistical error, not a shot-noise model); the perturbed matrix is
    projected back onto the density set before inversion.  The score is
    the trace distance between the true and reconstructed Choi states.
    A seed is required when noise > 0 and refused when noise == 0, since
    a noise-free run draws nothing; either mismatch is a ValueError
    raised before anything is simulated.  Beyond that rule the run checks
    only the probe's faithfulness gate and the reconstructed Choi matrix's
    noise budget; the output it inverts is a state by construction.
    """
    # a trace-1 state has Frobenius norm <= 1
    check_number("noise", noise, real=True, lo=0, hi=1)
    if seed is not None:
        check_number("seed", seed, lo=0)
    if (noise > 0) != (seed is not None):
        raise ValueError("a seed is required when noise > 0 and refused when noise == 0")
    rho_out = apply_extended(ch, probe)
    if noise > 0:
        rng = np.random.default_rng(seed)
        perturbed = rho_out.mat + _gaussian_hermitian(rho_out.dim, noise, rng)
        rho_out = BipartiteOperator(project_psd_trace_one(perturbed), rho_out.dA, rho_out.dB)
    report = full_report(probe)
    e_hat = reconstruct_superop(rho_out, probe)
    choi_rec = superop_to_choi(e_hat, ch.d, noise_level=noise)
    choi_true = choi_of(ch)
    return ReconstructionResult(
        probe_report=report,
        superop_reconstructed=BipartiteOperator(e_hat, ch.d, ch.d),
        choi_reconstructed=choi_rec,
        choi_true=choi_true,
        trace_distance=trace_distance(choi_true, choi_rec),
        noise_level=float(noise),
    )
