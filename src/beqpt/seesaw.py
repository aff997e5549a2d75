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
that: its last cycle alone gives rho + tH = rho' + p + q, p normal to
the PPT set at its PPT iterate y and q normal to the density set at
rho', whichever corrections the cycle started from, and the stop test
bounds ||rho' - y||.  This is the generalized power method for
maximizing a convex function over a convex set (Journee, Nesterov,
Richtarik & Sepulchre, JMLR 11, 517 (2010)); as t grows the step tends
to the classic see-saw's exact linear maximization.  STEP is therefore a tuning
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

Each projection is Anderson-accelerated (type II, with the safeguard of
Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 3170 (2020)).  A cycle
keeps x + p + q = x0, so only the corrections z = (p, q) are
extrapolated, and x = x0 - p - q; each round still runs one cycle, two
eigh per matrix.  With T(z) the corrections after one cycle and g =
T(z) - z, the next z is T(z) - dF gamma, gamma minimizing ||g - dG gamma||
over the last ANDERSON_MEMORY differences dG of g and dF of T(z),
Tikhonov-regularized by ANDERSON_REG times the trace of the Gram matrix.
gamma is complex: the Frobenius product of two Hermitian differences is
real, but z picks up anti-Hermitian parts that a cycle ignores and
x = x0 - p - q cancels, and over those the complex fit reaches further;
in a replay of the seesaw-d4 call's projections a complex gamma took
2,394 iterations with 1 cap hit, a real one 2,814 with 7.  A row whose
residual ||g|| rose after an extrapolated step falls back to its last
image T(z) and clears its memory; each new projection clears it too.
The memory of a row is cleared by zeroing its dG columns, so a cleared
column needs no mask beyond an identity on the Gram diagonal.

All restarts run as one state machine over an (R, n, n) stack, a single
restart as a stack of one: a round is one Dykstra iteration of each live
restart, then one Y-step and gradient step of those whose projection
stopped.  A row's point, corrections, iteration count, restart and
Anderson memory are one record, so a finished restart leaves the stack
in one take, and ``_dykstra`` runs its one matrix through the same
round.  Stacked eigh, svd, matmul, vecdot and solve give the bits of
per-matrix calls and the stop norms are taken per matrix, so a batched
run equals the serial one bit for bit.  Each restart's outer steps, stop
reason, Dykstra iterations, cap hits and safeguard fallbacks are counted
from the state machine, with no extra eigh or svd, and so are the
iterations of the final hard projection.

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
``optimize`` runs (``_y_step``, ``_rho_step``, ``_dykstra_round``,
``_dykstra`` and ``_project_ppt_mat``) over the stack kernels of
``bipartite``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    DensityMatrix,
    _from_spectrum,
    _project_dm_mat,
    _realign,
    check_number,
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
ANDERSON_MEMORY = 5  # Anderson differences each projection keeps
ANDERSON_REG = 1e-10  # Tikhonov weight, relative to the trace of the Gram matrix
MAX_STACK_ENTRIES = 2**22  # 64 MiB per complex array; the largest is an Anderson buffer
_TINY = np.finfo(float).tiny  # the floor of the Anderson regularization
_COLUMNS, _EYE = np.arange(ANDERSON_MEMORY), np.eye(ANDERSON_MEMORY)
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
            check_number(name, getattr(self, name))
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_outer < 1 or self.restarts < 1:
            raise ValueError("iteration and restart counts must be positive")
        # an Anderson buffer holds ANDERSON_MEMORY (p, q) pairs per restart
        if self.restarts * self.d**4 * 2 * ANDERSON_MEMORY > MAX_STACK_ENTRIES:
            raise ValueError(f"restarts * d**4 * {2 * ANDERSON_MEMORY} must be at most "
                             f"{MAX_STACK_ENTRIES}")

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
    PROJECTION_ITERS, how many extrapolated points the Anderson safeguard
    rejected in them, and its last objective value."""

    outer_steps: int
    stop_reason: str
    dykstra_iters: int
    cap_hits: int
    safeguard_resets: int
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


class _Stack:
    """The rows of a see-saw stack, one projection each: its point x0,
    corrections z = (p, q), iterations k and restart, and its type-II
    Anderson memory: ring buffers of the last ANDERSON_MEMORY residual
    differences dG and image differences dF, the Gram matrix of dG, the
    last residual g, image f and squared residual norm, the images seen
    since the memory was cleared (from two on, the point is extrapolated)
    and the safeguard fallbacks over all its projections.  A cleared
    column of dG, and its Gram row and column, are zero."""

    __slots__ = ("x0", "z", "k", "live", "dG", "dF", "gram", "g", "f", "res", "seen", "resets")

    def __init__(self, x0: np.ndarray):
        rows, n, m = x0.shape[0], x0.shape[-1], ANDERSON_MEMORY
        self.x0, self.z = x0, np.zeros((rows, 2, n, n), dtype=complex)
        self.k, self.live = np.zeros(rows, dtype=int), np.arange(rows)
        self.dG, self.dF = np.zeros((2, rows, m, 2 * n * n), dtype=complex)
        self.gram = np.zeros((rows, m, m), dtype=complex)
        self.g, self.f = np.zeros((2, rows, 2 * n * n), dtype=complex)
        self.res = np.zeros(rows)
        self.seen, self.resets = np.zeros((2, rows), dtype=int)

    def take(self, rows) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[rows])

    def clear(self, rows) -> None:
        self.dG[rows], self.gram[rows], self.seen[rows] = 0.0, 0.0, 0


def _accelerate(s: _Stack, f: np.ndarray, done: np.ndarray) -> np.ndarray:
    """The next corrections per row, from z = (p, q) and its Dykstra image
    f = T(z): f - dF gamma with gamma = argmin ||g - dG gamma|| over the
    stored columns (Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 3170
    (2020)).  A row that goes on and whose residual rose after an
    extrapolated step falls back to its last image and clears its memory."""
    m, rows = ANDERSON_MEMORY, len(f)
    i, z, f = np.arange(rows), s.z.reshape(rows, -1), f.reshape(rows, -1)
    g = f - z
    res = np.vecdot(g, g).real
    # a row with no last image writes a zero into a cleared column
    slot = (s.seen - 1) % m
    dg = g - s.g
    dg *= (s.seen > 0)[:, None]
    s.dG[i, slot], s.dF[i, slot] = dg, f - s.f
    s.gram[i, :, slot] = col = np.vecdot(s.dG, dg[:, None])
    s.gram[i, slot] = col.conj()
    new = f
    if s.seen.any():
        # the regularization scales with the trace, and its floor keeps a
        # zero Gram solvable; an invalid column gets an identity diagonal,
        # so its gamma is 0
        valid = _COLUMNS < s.seen[:, None]
        reg = ANDERSON_REG * s.gram.trace(axis1=1, axis2=2).real + _TINY
        a = s.gram + np.where(valid, reg[:, None], 1.0)[:, :, None] * _EYE
        gamma = np.linalg.solve(a, np.vecdot(s.dG, g[:, None])[:, :, None])
        new = np.where(valid[:, :1], f - (gamma.mT @ s.dF)[:, 0], f)
    bad = (s.seen > 1) & (res > s.res)
    s.seen += 1
    if bad.any():
        bad &= ~done
        new = np.where(bad[:, None], s.f, new)
        s.clear(bad)
        s.resets += bad
    s.g, s.f, s.res = g, f, res
    return new


def _dykstra_round(s: _Stack, dA: int, dB: int, tol: float) -> tuple:
    """One accelerated Dykstra round of every row of the stack, which
    moves each row on to its next corrections and counts the round:
    (the density-set projections, the images T(z), stop test per row)."""
    p, q = s.z[:, 0], s.z[:, 1]
    out, p, q, done = _dykstra_step(s.x0 - p - q, p, q, dA, dB, tol)
    f = np.stack((p, q), axis=1)
    s.z = _accelerate(s, f, done).reshape(f.shape)
    s.k += 1
    return out, f, done


def _dykstra(x0, dA: int, dB: int, iters: int, tol: float, p=0.0, q=0.0) -> tuple:
    """Anderson-accelerated Dykstra projecting one matrix ``x0`` from
    corrections ``p, q`` (zero corrections: a cold start), as a stack of
    one through the round ``optimize`` runs.  Returns (the last
    density-set projection, exactly PSD, the corrections of its cycle,
    iterations, safeguard fallbacks).  The stop test bounds the moves of
    the last cycle by ``tol``, not the distance to the true projection,
    which a slow run can leave much larger."""
    s = _Stack(x0[None])
    s.z[0, 0], s.z[0, 1] = p, q
    while True:
        out, f, done = _dykstra_round(s, dA, dB, tol)
        if done[0] or s.k[0] == iters:
            return out[0], f[0, 0], f[0, 1], int(s.k[0]), int(s.resets[0])


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
    d, iters = cfg.d, PROJECTION_ITERS
    # the projections of the start states are the first stacked projection
    s = _Stack(np.stack([random_density_matrix(d, d, np.random.default_rng([cfg.seed, r])).mat
                         for r in range(cfg.restarts)]))
    spent, caps, resets = np.zeros((3, cfg.restarts), dtype=int)  # per restart
    history, best = [[] for _ in s.live], [(-np.inf, None)] * cfg.restarts
    reasons = [""] * cfg.restarts
    top = -np.inf  # the best value of a restart that finished unretired
    while s.live.size:
        out, f, done = _dykstra_round(s, d, d, PROJECTION_TOL)
        stop = (s.k == iters) | done
        if not stop.any():
            continue
        js = np.flatnonzero(stop)
        rs = s.live[js]
        spent[rs] += s.k[js]
        caps[rs] += s.k[js] == iters
        resets[rs] = s.resets[js]  # a row counts its restart's fallbacks
        alive = ~stop
        mats = out[js]
        vals, ys = _y_step(mats, d, d)
        bar = top  # finishers of this round raise the bar from the next one
        for j, r, val, mat in zip(js, rs.tolist(), vals.tolist(), mats):
            h = history[r]
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
        # warm start: keep the corrections p, q of the last image; the
        # Anderson memory is cleared at each new projection
        s.x0[go] = _rho_step(mats[ok], realign_inverse(ys[ok], d, d), STEP)
        s.z[go], s.k[go] = f[go], 0
        s.clear(go)
        if not alive.all():
            s.take(alive)
    r = max(range(cfg.restarts), key=lambda r: best[r][0])
    # final hard projection so the reported state is feasible to <= 1e-7
    final, _, _, final_iters, _ = _dykstra(best[r][1], d, d, FINAL_PROJECTION_ITERS,
                                           FINAL_PROJECTION_TOL)
    state = DensityMatrix(final, d, d)
    stats = tuple(RestartStats(len(h), why, int(it), int(cap), int(fell), h[-1])
                  for h, why, it, cap, fell in zip(history, reasons, spent, caps, resets))
    return SeesawResult(best_state=state, best_value=ccnr_value(state),
                        history=tuple(history[r]), ppt_residual=is_ppt(state)[1],
                        psd_residual=float(state.eigenvalues[0]),
                        best_restart=r, restarts=stats, final_projection_iters=final_iters)
