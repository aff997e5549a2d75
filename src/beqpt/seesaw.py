"""See-saw maximization of the realigned trace norm over PPT states.

The trace norm has the dual form ||X||_1 = max_{Y Y^dag <= Id} Tr(X^dag Y),
which turns max_rho ||realign(rho)||_1 into a bilinear problem.  The two
alternating steps are

* Y-step: Y = U V^dag from the SVD of realign(rho) (the polar factor),
  which attains the dual maximum exactly;
* rho-step: projected gradient ascent on the linearized objective
  <rho, H> with H the Hermitian part of realign_inverse(Y), followed by
  Dykstra's alternating projections onto {PSD, trace 1} intersected with
  {PPT}.

Dykstra (with correction terms) converges to the true projection onto
the intersection, unlike plain alternating projections.  The last
projection in each cycle is the density-matrix one, so every iterate is
exactly PSD with unit trace and PPT up to the projection tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bipartite import (
    BipartiteOperator,
    DensityMatrix,
    herm_part,
    realign,
    realign_inverse,
    _partial_transpose,
    _realign,
)


@dataclass(frozen=True)
class SeesawConfig:
    """Run parameters; ``step`` defaults to 0.1/d when left as None."""

    d: int
    seed: int
    max_outer: int = 500
    step: float | None = None
    projection_iters: int = 200
    projection_tol: float = 1e-9
    objective_tol: float = 1e-9
    restarts: int = 20

    def __post_init__(self):
        for name in ("d", "seed", "max_outer", "projection_iters", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("step", "projection_tol", "objective_tol"):
            value = getattr(self, name)
            if value is None and name == "step":
                continue
            # the chained comparison is False for NaN and never overflows
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not -math.inf < value < math.inf):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.max_outer < 1 or self.projection_iters < 1 or self.restarts < 1:
            raise ValueError("iteration and restart counts must be positive")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.projection_tol <= 0 or self.objective_tol <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def resolved_step(self) -> float:
        return 0.1 / self.d if self.step is None else self.step

    def to_dict(self) -> dict:
        return {
            "d": int(self.d),
            "seed": int(self.seed),
            "max_outer": int(self.max_outer),
            "step": float(self.resolved_step),
            "projection_iters": int(self.projection_iters),
            "projection_tol": float(self.projection_tol),
            "objective_tol": float(self.objective_tol),
            "restarts": int(self.restarts),
        }


@dataclass(frozen=True)
class SeesawResult:
    """Best state over all restarts plus the full objective trace."""

    best_state: DensityMatrix
    best_value: float
    history: tuple
    ppt_residual: float
    psd_residual: float
    restarts_summary: tuple

    def to_dict(self) -> dict:
        return {
            "best_value": float(self.best_value),
            "history": [float(v) for v in self.history],
            "ppt_residual": float(self.ppt_residual),
            "psd_residual": float(self.psd_residual),
            "restarts_summary": [float(v) for v in self.restarts_summary],
        }


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex
    (sort-and-threshold algorithm)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    # the largest entry always passes in exact arithmetic; once it reaches
    # 2**53 its test rounds to 0, so an empty support means that entry alone
    passing = np.nonzero(u - (css - 1.0) / idx > 0)[0]
    support = passing[-1] + 1 if passing.size else 1
    theta = (css[support - 1] - 1.0) / support
    return np.maximum(v - theta, 0.0)


def project_psd_trace_one(x: np.ndarray, dA: int, dB: int) -> DensityMatrix:
    """Frobenius-nearest PSD unit-trace matrix: eigendecompose and project
    the spectrum onto the simplex."""
    return DensityMatrix(_project_dm_mat(np.asarray(x, dtype=complex)), dA, dB)


def _project_dm_mat(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(herm_part(x))
    p = project_simplex(w)
    return (v * p) @ v.conj().T


def _project_ppt_mat(x: np.ndarray, dA: int, dB: int) -> np.ndarray:
    y = _partial_transpose(herm_part(x), dA, dB, "B")
    w, v = np.linalg.eigh(y)
    y = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return _partial_transpose(y, dA, dB, "B")


def project_ppt(x: BipartiteOperator) -> BipartiteOperator:
    """Nearest operator with PSD partial transpose: transpose, clip the
    negative eigenvalues, transpose back.  Fixed points are exactly the
    PPT operators."""
    return BipartiteOperator(_project_ppt_mat(x.mat, x.dA, x.dB), x.dA, x.dB)


def _dykstra(x0: np.ndarray, dA: int, dB: int, iters: int, tol: float) -> np.ndarray:
    """Dykstra's algorithm for {PPT} intersect {PSD, trace 1}; returns the
    last density-set projection, which is exactly PSD with unit trace."""
    x = x0
    p = np.zeros_like(x0)
    q = np.zeros_like(x0)
    out = x0
    for _ in range(iters):
        y = _project_ppt_mat(x + p, dA, dB)
        p = x + p - y
        out = _project_dm_mat(y + q)
        q = y + q - out
        if np.linalg.norm(out - y) <= tol and np.linalg.norm(out - x) <= tol:
            return out
        x = out
    return out


def dual_y_step(rho: BipartiteOperator) -> np.ndarray:
    """Polar factor Y = U V^dag of realign(rho): the dual variable with
    Y Y^dag <= Id attaining Tr(realign(rho)^dag Y) = ||realign(rho)||_1."""
    u, _, vh = np.linalg.svd(realign(rho), full_matrices=False)
    return u @ vh


def primal_rho_step(rho: DensityMatrix, y: np.ndarray, cfg: SeesawConfig) -> DensityMatrix:
    """One projected-gradient ascent step on <rho, H>, H = Herm(R^-1(Y)),
    followed by the Dykstra projection back onto the feasible set."""
    h = herm_part(realign_inverse(y, rho.dA, rho.dB).mat)
    candidate = rho.mat + cfg.resolved_step * h
    out = _dykstra(candidate, rho.dA, rho.dB, cfg.projection_iters, cfg.projection_tol)
    return DensityMatrix(out, rho.dA, rho.dB)


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Run the full see-saw with seeded Wishart restarts.

    Deterministic given the config: restart r draws from
    default_rng([seed, r]).  Restarts are ranked by final value, ties
    resolved toward the lower restart index; the winner gets a final
    hard projection before its value and residuals are reported.
    """
    d = cfg.d
    n = d * d
    eta = cfg.resolved_step
    best_val = -np.inf
    best_mat = None
    best_hist: tuple = ()
    summary = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = g @ g.conj().T
        mat = _dykstra(mat / mat.trace().real, d, d,
                       cfg.projection_iters, cfg.projection_tol)
        hist = []
        restart_best = -np.inf
        restart_best_mat = mat
        prev = -np.inf
        for _ in range(cfg.max_outer):
            u, s, vh = np.linalg.svd(_realign(mat, d, d))
            val = float(s.sum())
            hist.append(val)
            if val > restart_best:
                restart_best = val
                restart_best_mat = mat
            if val - prev < cfg.objective_tol:
                break
            prev = val
            h = herm_part(realign_inverse(u @ vh, d, d).mat)
            mat = _dykstra(mat + eta * h, d, d,
                           cfg.projection_iters, cfg.projection_tol)
        summary.append(hist[-1])
        if restart_best > best_val:
            best_val = restart_best
            best_mat = restart_best_mat
            best_hist = tuple(hist)

    # final hard projection so the reported state is feasible to <= 1e-7
    final = _dykstra(best_mat, d, d, max(cfg.projection_iters, 500),
                     min(cfg.projection_tol, 1e-10))
    state = DensityMatrix(final, d, d)
    value = float(np.linalg.svd(_realign(final, d, d), compute_uv=False).sum())
    ppt_res = float(np.linalg.eigvalsh(_partial_transpose(final, d, d, "B")).min())
    psd_res = float(np.linalg.eigvalsh(herm_part(final)).min())
    return SeesawResult(
        best_state=state,
        best_value=value,
        history=best_hist,
        ppt_residual=ppt_res,
        psd_residual=psd_res,
        restarts_summary=tuple(summary),
    )
