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
    realign_inverse,
    _partial_transpose,
    _realign,
)
from .diagnostics import ccnr_value, is_ppt
from .states import random_density_matrix


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
        xp = x + p
        y = _project_ppt_mat(xp, dA, dB)
        p = xp - y
        yq = y + q
        out = _project_dm_mat(yq)
        q = yq - out
        if np.linalg.norm(out - y) <= tol and np.linalg.norm(out - x) <= tol:
            return out
        x = out
    return out


def _y_step(mat: np.ndarray, dA: int, dB: int) -> tuple:
    """(||realign(mat)||_1, U V^dag) from one SVD of realign(mat)."""
    u, s, vh = np.linalg.svd(_realign(mat, dA, dB), full_matrices=False)
    return float(s.sum()), u @ vh


def _rho_step(mat: np.ndarray, y: np.ndarray, dA: int, dB: int, cfg: SeesawConfig) -> np.ndarray:
    """Gradient step along H = Herm(R^-1(Y)), then the Dykstra projection."""
    h = herm_part(realign_inverse(y, dA, dB).mat)
    return _dykstra(mat + cfg.resolved_step * h, dA, dB,
                    cfg.projection_iters, cfg.projection_tol)


def dual_y_step(rho: BipartiteOperator) -> np.ndarray:
    """Polar factor Y = U V^dag of realign(rho): the dual variable with
    Y Y^dag <= Id attaining Tr(realign(rho)^dag Y) = ||realign(rho)||_1."""
    return _y_step(rho.mat, rho.dA, rho.dB)[1]


def primal_rho_step(rho: DensityMatrix, y: np.ndarray, cfg: SeesawConfig) -> DensityMatrix:
    """One projected-gradient ascent step on <rho, H>, H = Herm(R^-1(Y)),
    followed by the Dykstra projection back onto the feasible set."""
    return DensityMatrix(_rho_step(rho.mat, y, rho.dA, rho.dB, cfg), rho.dA, rho.dB)


def _restart(cfg: SeesawConfig, r: int) -> tuple:
    """Restart ``r`` from the Wishart state drawn from default_rng([seed, r]),
    projected onto the feasible set: (best value, its iterate, history)."""
    d = cfg.d
    start = random_density_matrix(d, d, np.random.default_rng([cfg.seed, r]))
    mat = _dykstra(start.mat, d, d, cfg.projection_iters, cfg.projection_tol)
    best, best_mat, prev = -np.inf, mat, -np.inf
    history = []
    for _ in range(cfg.max_outer):
        val, y = _y_step(mat, d, d)
        history.append(val)
        if val > best:
            best, best_mat = val, mat
        if val - prev < cfg.objective_tol:
            break
        prev = val
        mat = _rho_step(mat, y, d, d, cfg)
    return best, best_mat, tuple(history)


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Run the full see-saw with seeded Wishart restarts.

    Deterministic given the config: restart r draws from
    default_rng([seed, r]).  Restarts are ranked by their best value, ties
    resolved toward the lower restart index (``max`` keeps the first); the
    winner gets a final hard projection, and its value and residuals are
    read from the validated state.
    """
    d = cfg.d
    runs = [_restart(cfg, r) for r in range(cfg.restarts)]
    _, best_mat, history = max(runs, key=lambda run: run[0])
    # final hard projection so the reported state is feasible to <= 1e-7
    state = DensityMatrix(_dykstra(best_mat, d, d, max(cfg.projection_iters, 500),
                                   min(cfg.projection_tol, 1e-10)), d, d)
    return SeesawResult(
        best_state=state,
        best_value=ccnr_value(state),
        history=history,
        ppt_residual=is_ppt(state)[1],
        psd_residual=float(state.eigenvalues[0]),
        restarts_summary=tuple(hist[-1] for _, _, hist in runs),
    )
