"""See-saw maximization of the realigned trace norm over PPT states.

The trace norm has the dual form ||X||_1 = max_{Y Y^dag <= Id} Tr(X^dag Y),
which turns max_rho ||realign(rho)||_1 into a bilinear problem with two
alternating steps:

* Y-step: Y = U V^dag from the SVD of realign(rho) (the polar factor),
  which attains the dual maximum exactly;
* rho-step: a gradient step rho + STEP * H along the Hermitian part H of
  realign_inverse(Y), then Dykstra's alternating projections onto
  {PSD, trace 1} intersected with {PPT}.

The step cannot lower the objective, for any length.  f(rho) =
||realign(rho)||_1 is convex, and H is a subgradient of it at rho: the
dual form gives f(sigma) >= <sigma, H> for every Hermitian sigma, with
equality at rho (realignment permutes entries, so realign_inverse is its
adjoint).  For rho' = P(rho + tH), the projection inequality gives
t <H, rho' - rho> >= ||rho' - rho||^2 >= 0, so f(rho') >= <rho', H> >=
<rho, H> = f(rho) for every t > 0.  A Dykstra run that stops within its
cap, with PPT correction p, loses at most PROJECTION_TOL ||p|| / t of
that.  This is the generalized power method for maximizing a convex
function over a convex set (Journee, Nesterov, Richtarik & Sepulchre,
JMLR 11, 517 (2010)); as t grows the step tends to the classic
see-saw's exact linear maximization.  STEP is therefore a tuning
constant, not a safety bound: a longer step takes fewer outer steps, a
too long one starts each projection far from the feasible set and caps
more of them.  Over d = 2..5, 0.1 took no more Dykstra iterations than
the former 0.1/d at any d >= 3; longer steps left single d=3 restarts
running on to max_outer.

Dykstra (with correction terms) converges to the true projection onto
the intersection, unlike plain alternating projections.  The last
projection in each cycle is the density-matrix one, so every iterate is
exactly PSD with unit trace and PPT up to PROJECTION_TOL.
Within a restart each gradient step's projection starts warm: it keeps
the corrections p, q of the projection before it and starts from
x0 - p - q.  Dykstra is block coordinate ascent on the dual (Gaffke &
Mathar, Metrika 36, 29 (1989)), and those corrections are dual-feasible,
so it still converges to the projection of x0, in far fewer iterations.
The start states' projections and the final hard projection start cold.

All restarts run as one state machine over an (R, n, n) stack: a round
is one Dykstra iteration of each live restart, then one Y-step and
gradient step of those whose projection stopped.  A finished restart
leaves the stack; the last one runs as an (n, n) matrix, since a stack
of one costs 8-9% more per round at d=4.  Stacked eigh,
svd and matmul give the bits of per-matrix calls and the stop norms are
taken per matrix, so a batched run equals the serial one bit for bit.
Each restart's outer steps, stop reason, Dykstra iterations and cap hits
are counted from the state machine, with no extra eigh or svd, and so are
the iterations of the final hard projection.

The restarts race (Maron & Moore, NIPS 1993; Jamieson & Talwalkar,
AISTATS 2016).  At each Y-step of a restart with more than RACE_WINDOW
values, its mean gain over the last RACE_WINDOW steps is extrapolated to
max_outer; if that lands below the bar, the restart is retired as
"dominated".  The bar is the best value of any restart that finished
unretired in an earlier round, read once per round, so the order of the
rows within a round cannot matter.  A live restart gained at least
OBJECTIVE_TOL on every step, or it would have stopped, so its
extrapolation is at least its current value, which is also its best: a
dominated restart's best is below the winner's.  Retiring a restart
moves no other restart, so the winner, its history and its state are
those of the unraced run.  The rule itself is a heuristic, not a bound:
a retired restart might later have passed the winner.

A run is set by counts alone (SeesawConfig); the step STEP, the
projection caps and the stop tolerances are module constants.  The
public surface is ``optimize``; the density-set projection comes from
``bipartite``, and the half-steps are only the kernels
``optimize`` runs (``_y_step``, ``_rho_step``, ``_dykstra`` and
``_project_ppt_mat``) over the stack kernels of ``bipartite``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bipartite import (
    DensityMatrix,
    _from_spectrum,
    _project_dm_mat,
    _realign,
    herm_part,
    partial_transpose,
    realign_inverse,
)
from .diagnostics import ccnr_value, is_ppt
from .reports import Record
from .states import random_density_matrix

STEP = 0.1  # gradient step, the same at every d
PROJECTION_ITERS = 200  # Dykstra iterations allowed per projection of a restart
FINAL_PROJECTION_ITERS = 500  # the same for the winner's final hard projection
PROJECTION_TOL = 1e-9  # Dykstra stops when both iterate moves are at most this
OBJECTIVE_TOL = 1e-9  # a restart stops when its objective gains less than this
RACE_WINDOW = 20  # Y-steps whose mean gain a restart's race extrapolates
FINAL_PROJECTION_TOL = 1e-10  # the final hard projection's stop test
MAX_STACK_ENTRIES = 2**22  # restarts * d**4: 64 MiB per complex stack array
STOP_REASONS = ("converged", "decreased", "max_outer", "dominated")


@dataclass(frozen=True)
class SeesawConfig(Record):
    """Run counts; the gradient step STEP, the projection caps and the
    stop tests are module constants, so the config echoes as it runs."""

    d: int
    seed: int
    max_outer: int = 500
    restarts: int = 20

    def __post_init__(self):
        for name in ("d", "seed", "max_outer", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_outer < 1 or self.restarts < 1:
            raise ValueError("iteration and restart counts must be positive")
        if self.restarts * self.d**4 > MAX_STACK_ENTRIES:
            raise ValueError(f"restarts * d**4 must be at most {MAX_STACK_ENTRIES}")

    @property
    def projection_iters(self) -> int:
        """The cap of each restart's projections, a module constant."""
        return PROJECTION_ITERS


@dataclass(frozen=True)
class RestartStats(Record):
    """Telemetry of one restart: its Y-steps, why it stopped ("converged"
    or "decreased" when the objective gained less than OBJECTIVE_TOL,
    "max_outer", or "dominated" when the race retired it because its
    extrapolated value fell below the bar), the Dykstra iterations of all
    its projections, how many of those projections ran the full
    PROJECTION_ITERS and its last objective value."""

    outer_steps: int
    stop_reason: str
    dykstra_iters: int
    cap_hits: int
    final_value: float


@dataclass(frozen=True)
class SeesawResult(Record):
    """Best state over all restarts plus the full objective trace of the
    winning restart, the telemetry of every restart and the Dykstra
    iterations of the final hard projection."""

    best_state: DensityMatrix
    best_value: float
    history: tuple
    ppt_residual: float
    psd_residual: float
    best_restart: int
    restarts: tuple
    final_projection_iters: int


def _project_ppt_mat(x: np.ndarray, dA: int, dB: int) -> np.ndarray:
    w, v = np.linalg.eigh(partial_transpose(herm_part(x), dA, dB))
    return partial_transpose(_from_spectrum(np.maximum(w, 0.0), v), dA, dB)


def _norm(a: np.ndarray) -> np.ndarray:
    """Per-matrix np.linalg.norm, bit for bit (norm(axis=(-2, -1)) is not)."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _dykstra_step(x, p, q, dA: int, dB: int, tol: float) -> tuple:
    """One Dykstra cycle on a matrix or a stack: (out, p, q, stop test per
    matrix); like ``and``, it takes the second norm only if a first passes."""
    xp = x + p
    y = _project_ppt_mat(xp, dA, dB)
    yq = y + q
    out = _project_dm_mat(yq)
    done = _norm(out - y) <= tol
    if done.any():
        done &= _norm(out - x) <= tol
    return out, xp - y, yq - out, done


def _dykstra(x, dA: int, dB: int, iters: int, tol: float, p=0.0, q=0.0) -> tuple:
    """Dykstra on one matrix from iterate ``x`` and corrections ``p, q``,
    which projects x + p + q (zero corrections: a cold start from x).
    Returns (the last density-set projection, exactly PSD, p, q, iterations).
    The stop test bounds the iterate moves by ``tol``, not the distance to
    the true projection, which a slow run can leave much larger."""
    for k in range(1, iters + 1):
        x, p, q, done = _dykstra_step(x, p, q, dA, dB, tol)
        if done:
            break
    return x, p, q, k


def _y_step(mat: np.ndarray, dA: int, dB: int) -> tuple:
    """(||realign(mat)||_1, U V^dag) per matrix, from one SVD of realign(mat)."""
    u, s, vh = np.linalg.svd(_realign(mat, dA, dB), full_matrices=False)
    return s.sum(axis=-1), u @ vh


def _rho_step(mat: np.ndarray, y_inv: np.ndarray, step: float) -> np.ndarray:
    """Gradient step along H = Herm(R^-1(Y)), given R^-1(Y)."""
    return mat + step * herm_part(y_inv)


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Run the see-saw from seeded Wishart restarts; restart r draws from
    default_rng([seed, r]).  The restarts race (see the module docstring).
    The restart with the best value wins, the lower index on ties; it gets
    a final hard projection, and its value and residuals are read from the
    validated state."""
    d, n, iters = cfg.d, cfg.d * cfg.d, PROJECTION_ITERS
    # the projections of the start states are the first stacked projection
    x = np.stack([random_density_matrix(d, d, np.random.default_rng([cfg.seed, r])).mat
                  for r in range(cfg.restarts)])
    x = x[0] if cfg.restarts == 1 else x  # one matrix runs faster than a stack of one
    p, q = np.zeros_like(x), np.zeros_like(x)
    live = np.arange(cfg.restarts)  # the restart in each stack row
    k = np.zeros(cfg.restarts, dtype=int)  # iterations of each row's projection
    spent, caps = np.zeros_like(k), np.zeros_like(k)  # per restart, not per row
    history, best = [[] for _ in live], [(-np.inf, None)] * cfg.restarts
    reasons = [""] * cfg.restarts
    top = -np.inf  # the best value of a restart that finished unretired
    while live.size:
        x, p, q, done = _dykstra_step(x, p, q, d, d, PROJECTION_TOL)
        k += 1
        stop = (k == iters) | done
        if not stop.any():
            continue
        js = np.flatnonzero(stop)
        spent[live[js]] += k[js]
        caps[live[js]] += k[js] == iters
        alive = ~stop
        rows = [a.reshape(-1, n, n) for a in (x, p, q)]  # views: writes reach x, p, q
        mats = rows[0][js]
        vals, ys = _y_step(mats, d, d)
        bar = top  # finishers of this round raise the bar from the next one
        for j, val, mat in zip(js, vals.tolist(), mats):
            h, r = history[live[j]], live[j]
            prev = h[-1] if h else -np.inf
            h.append(val)
            if val > best[r][0]:
                best[r] = (val, mat)
            stalled = val - prev < OBJECTIVE_TOL
            alive[j] = len(h) < cfg.max_outer and not stalled
            if not alive[j]:
                reasons[r] = ("decreased" if val < prev else "converged") if stalled else "max_outer"
                top = max(top, best[r][0])
            elif (len(h) > RACE_WINDOW and val + (val - h[-RACE_WINDOW - 1]) / RACE_WINDOW
                  * (cfg.max_outer - len(h)) < bar):
                alive[j], reasons[r] = False, "dominated"
        ok = alive[js]
        go = js[ok]
        # warm start: keep p, q and start from x0 - p - q
        x0 = _rho_step(mats[ok], realign_inverse(ys[ok], d, d), STEP)
        rows[0][go], k[go] = x0 - rows[1][go] - rows[2][go], 0
        if not alive.all():
            live, k = live[alive], k[alive]
            x, p, q = (a[alive][0] if live.size == 1 else a[alive] for a in rows)
    r = max(range(cfg.restarts), key=lambda r: best[r][0])
    # final hard projection so the reported state is feasible to <= 1e-7
    final, _, _, final_iters = _dykstra(best[r][1], d, d, FINAL_PROJECTION_ITERS,
                                        FINAL_PROJECTION_TOL)
    state = DensityMatrix(final, d, d)
    stats = tuple(RestartStats(len(h), why, int(it), int(cap), h[-1])
                  for h, why, it, cap in zip(history, reasons, spent, caps))
    return SeesawResult(best_state=state, best_value=ccnr_value(state),
                        history=tuple(history[r]), ppt_residual=is_ppt(state)[1],
                        psd_residual=float(state.eigenvalues[0]),
                        best_restart=r, restarts=stats, final_projection_iters=final_iters)
