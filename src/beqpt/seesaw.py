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
<rho, H> = f(rho) for every t > 0.  A Dykstra projection stops on one
test, ||rho' - y|| <= tau, with y the PPT iterate of its last cycle and
rho' its density-set projection; a run that passes it within its cap
has two bounds.  Its last cycle alone gives rho + tH = rho' + p + q, p
normal to the PPT set at y and q normal to the density set at rho',
whichever corrections the cycle started from, so the step loses at most
tau ||p|| / t.  The partial transpose permutes entries, so it keeps the
Frobenius norm, and by Weyl's inequality lambda_min(rho'^Gamma) lies
within tau of lambda_min(y^Gamma) >= 0.  This is the generalized power
method for maximizing a convex function over a convex set (Journee,
Nesterov, Richtarik & Sepulchre, JMLR 11, 517 (2010)); as t grows the
step tends to the classic see-saw's exact linear maximization.  STEP is
therefore a tuning constant, not a safety bound: a longer step takes
fewer outer steps, a too long one starts each projection far from the
feasible set and caps more of them.  Over d = 2..5, longer steps than
0.1 left single d=3 restarts running on to max_outer.

Dykstra (with correction terms) converges to the true projection onto
the intersection, unlike plain alternating projections.  The last
projection in each cycle is the density-matrix one, so every iterate is
exactly PSD with unit trace and PPT up to its projection's tolerance.
Within a restart each gradient step's projection starts warm: it keeps
the corrections p, q and the Anderson memory (below) of the projection
before it and starts from x0 - p - q.  Dykstra is block coordinate
ascent on the dual (Gaffke & Mathar, Metrika 36, 29 (1989)), and those
corrections are dual-feasible, so it still converges to the projection
of x0, in far fewer iterations.
The start states' projections and the final hard projection start cold.
A warm projection is inexact (Schmidt, Le Roux & Bach, NIPS 2011): after
a Y-step at which its restart gained Delta, it stops at tau =
max(PROJECTION_TOL, PROJECTION_TOL_SHARE Delta), so the loss it may cost
is about PROJECTION_TOL_SHARE Delta ||p|| / t, a share of the progress it
serves.  The start projections and the first gradient step's keep
PROJECTION_TOL, the final hard projection FINAL_PROJECTION_TOL; a share
of 0 is the fixed tolerance exactly.

Each projection is Anderson-accelerated (type II, with the safeguard of
Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 3170 (2020)).  A cycle
keeps x + p + q = x0, so only the corrections z = (p, q) are
extrapolated, and x = x0 - p - q; each round still runs one cycle, two
eigh per matrix.  With T(z) the corrections after one cycle and g =
T(z) - z, the next z is T(z) - dF gamma, gamma minimizing ||g - dG gamma||
over the last ANDERSON_MEMORY differences dG of g and dF of T(z),
Tikhonov-regularized by ANDERSON_REG times the trace of the Gram matrix.
The memory is the stored columns and their Gram matrix, which a written
column updates in its one row and column.  It takes the dtype of the
points, so on the see-saw's real points (below) gamma, dG and dF are
real.  A type-II Anderson step with too shallow a memory converges only
linearly (Walker & Ni, SIAM J. Numer. Anal. 49, 1715 (2011)).  With 5
columns the restarts' tails split in two: most tail projections stopped
in 2 iterations, but some restarts cut their residual only 2 to 3 times
per round and took about 10, and on d=3 seed 1 one such restart alone
set the call's last 370 of 1,088 rounds; its residual never rose, so the
safeguard never fired.  Every memory from 6 columns up ends the split.
Past 8 the iterations flatten (d=3 seed 1: 3,341 at 8 columns, 3,152 at
12), while the buffers and the size bound grow with the memory.
A row whose residual ||g|| rose after an extrapolated step falls back
to its last image T(z) and clears its memory.  The memory of a row is
cleared by zeroing its dG columns, so a cleared column needs no mask:
the regularized Gram diagonal decouples it.  A warm projection carries
the memory of the projection before it.  Its first image has no last
image of the same map, so it writes no difference and the safeguard
does not judge it, but it is extrapolated from the carried columns:
one gradient step moves the map little, so the differences of the last
map still point the way, and the safeguard judges that extrapolation
like any other.

All restarts run as one state machine over an (R, n, n) stack, a single
restart as a stack of one: a round is one Dykstra iteration of each live
restart, then one Y-step and gradient step of those whose projection
stopped.  A row's point, corrections, iteration count, restart, Anderson
memory and restart counters are one record, so a finished restart leaves
the stack in one take, and ``_dykstra`` runs a stack of one through the
same round, under the same cap PROJECTION_ITERS, for the final hard
projection.  Stacked eigh, svd, matmul, vecdot and solve give the bits
of per-matrix calls and the stop norms are taken per matrix, so a
batched run equals the serial one bit for bit.  A
restart's RestartStats is written once, from its row and history, at the
Y-step where it stops; the winner is kept as values arrive.

The search runs over real symmetric PPT states.  Restart r starts from
the real part (rho + conj(rho))/2 of a seeded Wishart draw rho.
conj(rho) = rho^T is a state with the partial-transpose spectrum and the
CCNR norm of rho, so the real part is a state, PPT when rho is, and every
kernel keeps it real: each eigh, SVD and Anderson solve runs in float64,
at half the memory of complex arithmetic.  The restriction is sound but
not proven free: the complex optima come in conjugate pairs, and the
objective is convex, so their real mean can lie lower.  It rests on a
grid over d = 2..5 and seeds 1..4 (20 restarts, 4 at d=5), in which every
real best came within 3.4e-9 of the complex best or above it; the
published extremal states rho_ccnr and rho_ccnr_3x3 are real too.

The restarts race (Maron & Moore, NIPS 1993; Jamieson & Talwalkar,
AISTATS 2016).  At each Y-step of a restart with more than RACE_WINDOW
values, ``_race`` extrapolates its gains to max_outer; if that reach
lands more than OBJECTIVE_TOL below its bar, the restart is retired as
"dominated", so a tie within the tolerance that stops restarts runs on.
Near the optimum the see-saw converges linearly, so its gains shrink
geometrically, and a geometric tail g1 r (1 - r^left)/(1 - r) is what
the steps left can still gain (learning-curve extrapolation: Domhan,
Springenberg & Hutter, IJCAI 2015; Aitken's delta-squared process
assumes the same tail).  The ratio r is the larger, slower-decaying one
of those over the last RACE_WINDOW and RACE_WINDOW/2 gains, so a tail
that decays more slowly at its end keeps the longer reach, and the
reach is the current value plus that tail.  A restart whose tail is not
geometric (a window not decaying, or r rounding to 1) runs on.  The
bar of a restart with more than 2 RACE_WINDOW values is the lead, the
best value any restart reached in an earlier round; that of a younger
one is the best value of any restart that finished unretired in an
earlier round.  Both are read once per round, so the order of the rows
within a round cannot matter, and the winner's best is at least either.
A live restart gained at least OBJECTIVE_TOL > 0 on every step, or it
would have stopped, so its tail is positive and its reach is at least
its current value, which is also its best: a dominated restart's best
is more than OBJECTIVE_TOL below the winner's.  The lead exists from
the first round, while the first restart to finish may come late: on
d=3 seed 1 the race against finished restarts alone retired 12 of 20
restarts after 68 to 81 steps, and the call took 786 rounds; against
the lead it retires 18 after 41 steps, in 466 rounds.  The geometric
tail does not describe a restart's first steps, so the lead waits
for 2 RACE_WINDOW values: read from RACE_WINDOW values on, it moved ten
more of the 200 drawn winners below, nine at d=3 by up to -4.9e-3.
Retiring a restart moves no other restart, so when the race keeps the
winner, its history and its state are those of the unraced run.  The
rule itself is a heuristic, not a bound: a retired restart might later
have passed the winner.  Of 200 drawn calls (d = 2, 3, 2 to 6 restarts,
max_outer 20 to 119) it moved the winner of five against the unraced
run, all at d=2, where every restart converges to the optimum 1: four
by at most 3.5e-9, and one by -2.0e-6, where the retired restart's gains
decayed more slowly than its windows showed.  On the grid above it
moved three: at d=3 seed 1 by -1.0e-8 and seed 2 by -4.9e-10, where the
retired restart climbed on to the same optimum, and at d=4 seed 3 by
-3.1e-11 (after the final projection -1.0e-8, -5.0e-10 and -1.0e-10).
Over 180 drawn calls of 60 to 500 steps (d = 2..4) and d=3 seeds 5..16
it moved no winner by more than 1.2e-9.

A run is set by counts alone (SeesawConfig); the step STEP, the
projection cap and the stop tolerances are module constants.  The
public surface is ``optimize``; the density-set projection comes from
``bipartite``, and the half-steps are only the kernels
``optimize`` runs (``_y_step``, ``_rho_step``, ``_dykstra_round``,
``_dykstra_step``, ``_accelerate``, ``_dykstra`` and ``_project_ppt_mat``)
over the stack kernels of ``bipartite``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    DensityMatrix,
    _from_spectrum,
    _realign,
    check_number,
    herm_part,
    partial_transpose,
    project_psd_trace_one,
    realign_inverse,
)
from .diagnostics import ccnr_value, is_ppt
from .reports import Record
from .states import random_density_matrix

STEP = 0.1  # gradient step, the same at every d
PROJECTION_ITERS = 200  # Dykstra iterations allowed per projection, the final one too
PROJECTION_TOL = 1e-9  # Dykstra stops when ||rho' - y|| of its last cycle is at most this
PROJECTION_TOL_SHARE = 0.01  # a warm projection's tolerance, as a share of the last gain
OBJECTIVE_TOL = 1e-9  # a restart stops when its objective gains less than this
RACE_WINDOW = 20  # the longer of the two gain windows a restart's race reads
FINAL_PROJECTION_TOL = 1e-10  # the final hard projection's stop test
ANDERSON_MEMORY = 8  # Anderson differences each projection keeps
ANDERSON_REG = 1e-10  # Tikhonov weight, relative to the trace of the Gram matrix
MAX_STACK_ENTRIES = 2**22  # 32 MiB per float64 array; the largest is an Anderson buffer
_TINY = np.finfo(float).tiny  # the floor of the Anderson regularization
_EYE = np.eye(ANDERSON_MEMORY)
STOP_REASONS = ("converged", "decreased", "max_outer", "dominated")


@dataclass(frozen=True)
class SeesawConfig(Record):
    """Run counts; the gradient step STEP, the projection cap and the
    stop tests are module constants, so the config echoes as it runs."""

    d: int
    seed: int
    max_outer: int = 500
    restarts: int = 20

    def __post_init__(self):
        # the race's r**left turns max_outer into a float, so it is bounded
        # by the largest count a float holds exactly
        for name, lo, hi in (("d", 2, None), ("seed", 0, None), ("max_outer", 1, 2**53),
                             ("restarts", 1, None)):
            check_number(name, getattr(self, name), lo=lo, hi=hi)
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
    reach fell more than OBJECTIVE_TOL below its bar: the best value of
    a restart that finished unretired, or with more than 2 RACE_WINDOW
    values the best value any restart reached), the Dykstra
    iterations of all its projections, how many of those projections ran
    the full PROJECTION_ITERS, how many extrapolated points the Anderson
    safeguard rejected in them, its last objective value, and its tail
    estimate: what its geometric tail (``_race``) would still gain in the
    steps max_outer left it, so how far short of its limit it may have
    stopped; a finite reach is its last value plus this tail.  It is 0.0
    at max_outer and when no tail is geometric: RACE_WINDOW values or
    fewer, either window not decaying, or r rounding to 1."""

    outer_steps: int
    stop_reason: str
    dykstra_iters: int
    cap_hits: int
    safeguard_resets: int
    final_value: float
    tail_estimate: float


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
    """Per-matrix Frobenius norm, each matrix's bits alone; on real matrices
    those of np.linalg.norm (norm(axis=(-2, -1)) has neither)."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat).real)


def _dykstra_step(x, p, q, dA: int, dB: int, tol) -> tuple:
    """One Dykstra cycle on a matrix or a stack: (out, the new corrections
    p, q as one (..., 2, n, n) array, stop test ||out - y|| <= ``tol`` per
    matrix, ``tol`` one number or one per matrix)."""
    xp = x + p
    y = _project_ppt_mat(xp, dA, dB)
    yq = y + q
    out = project_psd_trace_one(yq)
    done = _norm(out - y) <= tol
    f = np.empty(out.shape[:-2] + (2,) + out.shape[-2:], yq.dtype)
    np.subtract(xp, y, out=f[..., 0, :, :])
    np.subtract(yq, out, out=f[..., 1, :, :])
    return out, f, done


class _Stack:
    """The rows of a see-saw stack, one projection each: its point x0,
    corrections z = (p, q), iterations k, restart and stop tolerance, and
    its type-II Anderson memory: ring buffers of the last ANDERSON_MEMORY
    residual differences dG and image differences dF, the Gram matrix of
    dG, the last residual g, image f and squared residual norm, the images
    seen since the memory was cleared (from two on, the point is
    extrapolated) and its restart's safeguard fallbacks, Dykstra
    iterations and cap hits.  The memory stays with the row from one
    projection of its restart to the next; the first image of a new
    projection counts as seen only on a cleared memory, as it adds no
    column.  A cleared column of dG is zero, and so are its row and column
    of the Gram matrix.  The buffers take the dtype of the points, so real
    points keep the whole round real."""

    __slots__ = ("x0", "z", "k", "live", "tol", "dG", "dF", "gram", "g", "f", "res", "seen",
                 "resets", "spent", "caps")

    def __init__(self, x0: np.ndarray, tol: float):
        rows, n, m, dtype = x0.shape[0], x0.shape[-1], ANDERSON_MEMORY, x0.dtype
        self.x0, self.z = x0, np.zeros((rows, 2, n, n), dtype)
        self.k, self.live = np.zeros(rows, dtype=int), np.arange(rows)
        self.tol = np.full(rows, tol, dtype=float)
        self.dG, self.dF = np.zeros((2, rows, m, 2 * n * n), dtype)
        self.gram = np.zeros((rows, m, m), dtype)
        self.g, self.f = np.zeros((2, rows, 2 * n * n), dtype)
        self.res = np.zeros(rows)
        self.seen, self.resets, self.spent, self.caps = np.zeros((4, rows), dtype=int)

    def take(self, rows) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[rows])


def _accelerate(s: _Stack, f: np.ndarray, done: np.ndarray) -> np.ndarray:
    """The next corrections per row, from z = (p, q) and its Dykstra image
    f = T(z): f - dF gamma with gamma = argmin ||g - dG gamma|| over the
    stored columns (Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 3170
    (2020)).  The first image of a projection has no last image of the same
    map, so it writes no difference and judges no step; it is extrapolated
    from the columns its row carried over.  A row that goes on and whose
    residual rose after an extrapolated step falls back to its last image
    and clears its memory."""
    m, rows = ANDERSON_MEMORY, len(f)
    z, f = s.z.reshape(rows, -1), f.reshape(rows, -1)
    g = f - z
    res = np.vecdot(g, g).real
    warm = s.k > 0  # the last image is of the same map
    # a row writes a difference once its memory saw an image since it was cleared
    i = (warm & (s.seen > 0)).nonzero()[0]
    slot = (s.seen[i] - 1) % m
    s.dG[i, slot], s.dF[i, slot] = g[i] - s.g[i], f[i] - s.f[i]
    # the written column's inner products with the row's columns, each the
    # entry a full Gram matrix would hold, fill its column and row
    col = np.vecdot(s.dG[i], s.dG[i, slot][:, None])
    s.gram[i, :, slot], s.gram[i, slot, :] = col, col.conj()
    new = f
    if s.seen.any():
        # the regularization scales with the Gram trace, and its floor keeps
        # a zero Gram solvable; a cleared column is zero, so the regularized
        # diagonal decouples it and its gamma is 0
        reg = ANDERSON_REG * s.gram.trace(axis1=1, axis2=2).real + _TINY
        a = s.gram + reg[:, None, None] * _EYE
        gamma = np.linalg.solve(a, np.vecdot(s.dG, g[:, None])[:, :, None])
        new = f - (gamma.mT @ s.dF)[:, 0]
    bad = warm & (s.seen > 1) & (res > s.res)
    # the first image of a new projection adds no column, so it counts only
    # on a cleared memory
    s.seen = np.maximum(s.seen + warm, 1)
    if bad.any():
        bad &= ~done
        new = np.where(bad[:, None], s.f, new)
        s.dG[bad], s.gram[bad], s.seen[bad] = 0.0, 0.0, 0
        s.resets += bad
    s.g, s.f, s.res = g, f, res
    return new


def _dykstra_round(s: _Stack, dA: int, dB: int) -> tuple:
    """One accelerated Dykstra round of every row of the stack, which
    moves each row on to its next corrections and counts the round:
    (the density-set projections, the images T(z), stop test per row at
    the row's tolerance)."""
    p, q = s.z[:, 0], s.z[:, 1]
    out, f, done = _dykstra_step(s.x0 - p - q, p, q, dA, dB, s.tol)
    s.z = _accelerate(s, f, done).reshape(f.shape)
    s.k += 1
    return out, f, done


def _dykstra(s: _Stack, dA: int, dB: int, iters: int) -> tuple:
    """Anderson-accelerated Dykstra on the one-row stack ``s``, through the
    round ``optimize`` runs, to its stop test or ``iters`` iterations; a
    new stack is a cold start, with zero corrections and an empty memory.
    Returns (the last density-set projection, exactly PSD, the corrections
    p, q of its cycle, iterations).  The stop test bounds the gap ||out - y||
    between the last cycle's two projections by the row's tolerance, not the
    distance to the true projection, which a slow run can leave much larger."""
    while True:
        out, f, done = _dykstra_round(s, dA, dB)
        if done[0] or s.k[0] == iters:
            return out[0], f[0, 0], f[0, 1], int(s.k[0])


def _y_step(mat: np.ndarray, dA: int, dB: int) -> tuple:
    """(||realign(mat)||_1, U V^dag) per matrix, from one SVD of realign(mat)."""
    u, s, vh = np.linalg.svd(_realign(mat, dA, dB), full_matrices=False)
    return s.sum(axis=-1), u @ vh


def _rho_step(mat: np.ndarray, y_inv: np.ndarray, step: float) -> np.ndarray:
    """Gradient step along H = Herm(R^-1(Y)), given R^-1(Y)."""
    return mat + step * herm_part(y_inv)


def _race(h: list, left: int) -> tuple:
    """(reach, tail) of a restart with values ``h`` and ``left`` Y-steps to
    go.  With g1 the last gain and g_K the gain K steps back, r_K =
    (g1/g_K)^(1/(K-1)) over the windows K = RACE_WINDOW and RACE_WINDOW/2,
    and r the larger, slower-decaying, of the two; the tail
    g1 r (1 - r^left)/(1 - r) is what a geometric tail gains in the steps
    left, and the reach is the last value plus the tail.  With RACE_WINDOW
    values or fewer, either window not decaying (0 < g1 < g_K fails) or r
    rounding to 1, no tail is geometric and the restart is not raced: the
    reach is inf and the tail 0.0."""
    if len(h) <= RACE_WINDOW:
        return np.inf, 0.0
    g1, r = h[-1] - h[-2], 0.0
    for k in (RACE_WINDOW, RACE_WINDOW // 2):
        gk = h[-k] - h[-k - 1]
        if not 0.0 < g1 < gk:
            return np.inf, 0.0
        r = max(r, (g1 / gk) ** (1 / (k - 1)))
    if r >= 1.0:  # the ratios sit within rounding of 1
        return np.inf, 0.0
    tail = g1 * r * (1.0 - r**left) / (1.0 - r)
    return h[-1] + tail, tail


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Run the see-saw from seeded real restarts; restart r starts from the
    real part of a Wishart draw from default_rng([seed, r]).  The restarts
    race (see the module docstring): each round reads the bar of the
    restarts that finished unretired and the lead, the best value reached,
    before any row of the round writes either.  A restart's counters live
    on its row; its RestartStats is written when it stops.  The first state of
    the best value wins, the lower restart on ties; it gets a final hard
    projection, and its value and residuals come from the checked state."""
    d, iters = cfg.d, PROJECTION_ITERS
    # the real parts of the seeded Wishart draws, which are states too;
    # their projections are the first stacked projection
    starts = [random_density_matrix(d, d, np.random.default_rng([cfg.seed, r])).mat.real
              for r in range(cfg.restarts)]
    s = _Stack(np.stack(starts), PROJECTION_TOL)
    history, stats = [[] for _ in s.live], [None] * cfg.restarts
    win = (-np.inf, 0, None)  # (value, restart, state) of the best value so far
    top = -np.inf  # the best value of a restart that finished unretired
    while s.live.size:
        out, f, done = _dykstra_round(s, d, d)
        stop = (s.k == iters) | done
        if not stop.any():
            continue
        js = np.flatnonzero(stop)
        s.spent[js] += s.k[js]
        s.caps[js] += s.k[js] == iters
        alive = np.ones_like(stop)
        mats = out[js]
        vals, ys = _y_step(mats, d, d)
        # finishers of this round raise the bar, and its values the lead, from
        # the next one
        bar, lead = top, win[0]
        for j, r, val, mat in zip(js, s.live[js].tolist(), vals.tolist(), mats):
            h = history[r]
            prev = h[-1] if h else -np.inf
            h.append(val)
            if val > win[0] or val == win[0] and r < win[1]:
                win = (val, r, mat)
            stalled = val - prev < OBJECTIVE_TOL
            if len(h) > 1:  # the next projection stops at a share of this gain
                s.tol[j] = max(PROJECTION_TOL, PROJECTION_TOL_SHARE * (val - prev))
            reach, tail = _race(h, cfg.max_outer - len(h))
            if stalled or len(h) == cfg.max_outer:
                why = ("decreased" if val < prev else "converged") if stalled else "max_outer"
                top = max(top, *h)
            elif reach < (lead if len(h) > 2 * RACE_WINDOW else bar) - OBJECTIVE_TOL:
                why = "dominated"
            else:
                continue
            alive[j] = False
            stats[r] = RestartStats(len(h), why, int(s.spent[j]), int(s.caps[j]),
                                    int(s.resets[j]), val, tail)
        # warm start: keep the corrections p, q of the last image and the
        # Anderson memory; the rows that retire leave with their step
        s.x0[js] = _rho_step(mats, realign_inverse(ys, d, d), STEP)
        s.z[js], s.k[js] = f[js], 0
        if not alive.all():
            s.take(alive)
    _, r, mat = win
    # final hard projection so the reported state is feasible to <= 1e-7
    final, _, _, final_iters = _dykstra(_Stack(mat[None], FINAL_PROJECTION_TOL), d, d, iters)
    state = DensityMatrix(final, d, d)
    return SeesawResult(best_state=state, best_value=ccnr_value(state),
                        history=tuple(history[r]), ppt_residual=is_ppt(state)[1],
                        psd_residual=float(state.eigenvalues[0]),
                        best_restart=r, restarts=tuple(stats), final_projection_iters=final_iters)
