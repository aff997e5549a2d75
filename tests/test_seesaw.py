import heapq

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beqpt import seesaw
from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    _project_dm_mat,
    herm_part,
    partial_transpose,
    project_psd_trace_one,
    project_simplex,
    realign,
    realign_inverse,
)
from beqpt.diagnostics import ccnr_value, is_ppt
from beqpt.seesaw import (
    ANDERSON_MEMORY,
    FINAL_PROJECTION_ITERS,
    FINAL_PROJECTION_TOL,
    MAX_STACK_ENTRIES,
    OBJECTIVE_TOL,
    PROJECTION_ITERS,
    PROJECTION_TOL,
    RACE_WINDOW,
    STEP,
    RestartStats,
    SeesawConfig,
    SeesawResult,
    _dykstra,
    _dykstra_round,
    _dykstra_step,
    _norm,
    _project_ppt_mat,
    _rho_step,
    _Stack,
    _y_step,
    optimize,
)
from beqpt.states import max_entangled_state, random_density_matrix, werner_f
from conftest import random_separable_state


class TestProjectSimplex:
    def test_hand_computed_case(self):
        # derived by hand: argmin over the simplex of ||w - (2, -1)||
        # is (1, 0)
        assert np.allclose(project_simplex(np.array([2.0, -1.0])), [1.0, 0.0])

    def test_already_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(v), v)

    def test_always_feasible(self, rng):
        for _ in range(20):
            w = project_simplex(rng.standard_normal(6))
            assert w.min() >= 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e307])
    def test_entries_past_float_resolution(self, scale):
        # u0 - (u0 - 1) rounds to 0 once |u0| >= 2**53, so no index passes
        # the support test; the largest entry alone is the support
        w = project_simplex(scale * np.array([0.5, -0.3, 0.1, -0.2]))
        assert np.all(np.isfinite(w)) and w.min() >= 0.0


class TestProjectPsdTraceOne:
    def test_density_matrix_is_fixed_point(self, rng):
        rho = random_density_matrix(2, 2, rng)
        out = project_psd_trace_one(rho.mat, 2, 2)
        assert np.abs(out.mat - rho.mat).max() <= 1e-12

    def test_hand_computed_diagonal(self):
        out = project_psd_trace_one(np.diag([2.0, -1.0]).astype(complex), 1, 2)
        assert np.allclose(out.mat, np.diag([1.0, 0.0]))

    def test_output_feasible(self, rng):
        x = herm_part(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        out = project_psd_trace_one(x, 3, 3)
        assert out.mat.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.mat).min() >= -1e-14

    def test_same_kernel_as_dykstra(self, rng):
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        out = project_psd_trace_one(x, 3, 3)
        assert out.mat.tobytes() == _project_dm_mat(x).tobytes()


class TestProjectPpt:
    """The PPT projection kernel: transpose, clip the negative eigenvalues,
    transpose back."""

    def test_ppt_input_unchanged(self, rng):
        rho = werner_f(3, 0.5)  # separable, hence PPT
        out = _project_ppt_mat(rho.mat, 3, 3)
        assert np.abs(out - rho.mat).max() <= 1e-12

    def test_max_entangled_gets_clipped(self):
        out = BipartiteOperator(_project_ppt_mat(max_entangled_state(2).mat, 2, 2), 2, 2)
        assert is_ppt(out)[1] >= -1e-14

    def test_idempotent(self, rng):
        x = herm_part(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        once = _project_ppt_mat(x, 3, 3)
        twice = _project_ppt_mat(once, 3, 3)
        assert np.abs(twice - once).max() <= 1e-12

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_idempotent_on_drawn_operators(self, dA, dB, seed):
        rng = np.random.default_rng(seed)
        n = dA * dB
        x = herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        once = _project_ppt_mat(x, dA, dB)
        twice = _project_ppt_mat(once, dA, dB)
        assert np.abs(twice - once).max() <= 1e-12 * max(1.0, np.abs(once).max())


class TestDualYStep:
    def test_attains_trace_norm(self, rng):
        rho = random_density_matrix(3, 3, rng)
        value, y = _y_step(rho.mat, 3, 3)
        attained = np.trace(realign(rho).conj().T @ y).real
        assert attained == pytest.approx(ccnr_value(rho), abs=1e-10)
        assert value == pytest.approx(attained, abs=1e-12)

    def test_y_is_contraction(self, rng):
        y = _y_step(random_density_matrix(2, 4, rng).mat, 2, 4)[1]
        top = np.linalg.eigvalsh(y.conj().T @ y).max()
        assert top <= 1.0 + 1e-12

    def test_max_entangled_objective_is_d(self):
        rho = max_entangled_state(3)
        value, y = _y_step(rho.mat, 3, 3)
        assert np.trace(realign(rho).conj().T @ y).real == pytest.approx(3.0, abs=1e-10)
        assert value == pytest.approx(3.0, abs=1e-12)


def cold_rho_step(rho: DensityMatrix, step: float) -> tuple:
    """A gradient step along Herm(R^-1(Y)) from the Y-step at rho, then a
    cold Dykstra projection back onto the PPT density set.  Returns the
    new state, the projection's PPT correction p and its iterations."""
    y_inv = realign_inverse(_y_step(rho.mat, rho.dA, rho.dB)[1], rho.dA, rho.dB)
    x0 = _rho_step(rho.mat, y_inv, step)
    out, p, _, k, _ = _dykstra(x0, rho.dA, rho.dB, PROJECTION_ITERS, PROJECTION_TOL)
    return DensityMatrix(out, rho.dA, rho.dB), p, k


class TestPrimalRhoStep:
    def test_zero_step_is_fixed_point(self):
        # a step too small to move the state
        rho = werner_f(3, 0.2)  # PPT, interior-ish feasible point
        out = cold_rho_step(rho, 1e-30)[0]
        assert np.abs(out.mat - rho.mat).max() <= PROJECTION_TOL

    def test_output_feasibility(self, rng):
        rho = random_density_matrix(3, 3, rng)
        rho = project_psd_trace_one(_project_ppt_mat(rho.mat, 3, 3), 3, 3)
        out = cold_rho_step(rho, STEP)[0]
        assert out.mat.trace().real == pytest.approx(1.0, abs=1e-12)
        assert is_ppt(out)[1] >= -PROJECTION_TOL

    def test_ascent_direction(self, rng):
        # the projected-gradient inequality <rho', H> >= <rho, H> holds for
        # feasible base points and any step > 0; separable states are
        # feasible by construction
        for _ in range(5):
            rho = random_separable_state(3, 3, rng)
            h = herm_part(realign_inverse(_y_step(rho.mat, 3, 3)[1], 3, 3))
            out = cold_rho_step(rho, STEP)[0]
            before = np.trace(rho.mat @ h).real
            after = np.trace(out.mat @ h).real
            assert after >= before - PROJECTION_TOL

    @settings(max_examples=40)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(-3.0, 1.0))
    def test_objective_never_falls(self, d, seed, log_step):
        # f = ||R(.)||_1 is convex and H = Herm(R^-1(U V^dag)) a subgradient
        # at rho, so f(rho') >= <rho', H>, with equality at rho.  The last
        # Dykstra cycle, from whichever corrections the acceleration chose,
        # gives rho + tH = rho' + p + q for the corrections p, q it returns,
        # with p normal to the PPT cone at the cycle's PPT iterate y and q
        # normal to the density set at rho'; no earlier iterate enters.  For a
        # feasible rho that gives t <rho' - rho, H> >= ||rho' - rho||^2 -
        # ||rho' - y|| ||p||.  A projection that stops within its cap passed
        # the test ||rho' - y|| <= PROJECTION_TOL, so for every step t > 0
        # f(rho') >= f(rho) - PROJECTION_TOL ||p|| / t
        step = 10.0 ** log_step  # log-uniform in [1e-3, 10]
        rho = random_separable_state(d, d, np.random.default_rng(seed))
        out, p, k = cold_rho_step(rho, step)
        # a capped projection passed no stop test, so it bounds nothing
        assume(k < PROJECTION_ITERS)
        assert ccnr_value(out) >= ccnr_value(rho) - PROJECTION_TOL * np.linalg.norm(p) / step


def serial_simplex(v):
    """The one-vector projection with the support rule written out."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    passing = np.nonzero(u - (css - 1.0) / idx > 0)[0]
    support = passing[-1] + 1 if passing.size else 1
    return np.maximum(v - (css[support - 1] - 1.0) / support, 0.0)


@st.composite
def matrix_stacks(draw):
    """(stack, dA, dB): 1 to 8 near-Hermitian n x n complex matrices, n in
    4..16, with dA * dB = n (dA = 1 for a prime n)."""
    n = draw(st.integers(4, 16))
    count = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    stack = herm_part(a) + draw(st.sampled_from([0.0, 1e-3])) * a
    dA = next(k for k in (4, 3, 2, 1) if n % k == 0)
    return stack * draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3])), dA, n // dA


class TestStackedKernels:
    """Every kernel gives each matrix of a stack the bits it gives that
    matrix alone, which is what keeps a batched see-saw run serial."""

    @settings(max_examples=60)
    @given(matrix_stacks(), st.sampled_from([0.0, 1e-2, np.inf]))
    def test_each_slice_bitwise(self, drawn, tol):
        stack, dA, dB = drawn
        ppt, dm = _project_ppt_mat(stack, dA, dB), _project_dm_mat(stack)
        norms = _norm(stack)
        pt = partial_transpose(stack, dA, dB)
        vals, ys = _y_step(stack, dA, dB)
        y_inv = realign_inverse(ys, dA, dB)
        out, p, q, done = _dykstra_step(stack, 0.1 * stack, 0.2 * stack, dA, dB, tol)
        for i, x in enumerate(stack):
            assert ppt[i].tobytes() == _project_ppt_mat(x, dA, dB).tobytes()
            assert pt[i].tobytes() == partial_transpose(x, dA, dB).tobytes()
            assert dm[i].tobytes() == _project_dm_mat(x).tobytes()
            assert norms[i] == np.linalg.norm(x)
            val, y = _y_step(x, dA, dB)
            assert vals[i] == val and ys[i].tobytes() == y.tobytes()
            assert y_inv[i].tobytes() == realign_inverse(y, dA, dB).tobytes()
            one = _dykstra_step(x, 0.1 * x, 0.2 * x, dA, dB, tol)
            assert [a[i].tobytes() for a in (out, p, q)] == [a.tobytes() for a in one[:3]]
            assert done[i] == one[3]
        # accelerated rounds from warm corrections, each row against itself
        # as a stack of one; with tol = -1 no row stops, so the rounds from
        # the third on extrapolate and the safeguard judges each of them
        rows, solo = _Stack(stack), [_Stack(x[None]) for x in stack]
        for s in [rows] + solo:
            s.z[:, 0], s.z[:, 1] = 0.1 * s.x0, 0.2 * s.x0
        for _ in range(12):
            out, f, _ = _dykstra_round(rows, dA, dB, -1.0)
            for i, s in enumerate(solo):
                one, g, _ = _dykstra_round(s, dA, dB, -1.0)
                assert out[i].tobytes() == one.tobytes() and f[i].tobytes() == g.tobytes()
        for name in set(_Stack.__slots__) - {"live"}:
            for i, s in enumerate(solo):
                assert getattr(rows, name)[i].tobytes() == getattr(s, name).tobytes(), name

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(4, 16), st.integers(0, 2**32 - 1))
    def test_simplex_rows_bitwise(self, count, n, seed):
        rng = np.random.default_rng(seed)
        # rows scaled from 1 up to 1e200, past the 2**53 support fallback
        rows = rng.standard_normal((count, n)) * 10.0 ** rng.integers(0, 201, (count, 1))
        out = project_simplex(rows)
        for row, got in zip(rows, out):
            assert got.tobytes() == project_simplex(row).tobytes()
            assert got.tobytes() == serial_simplex(row).tobytes()


class TestWarmStart:
    @settings(max_examples=60)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 1e-2, 1e-1]))
    def test_warm_projection_matches_cold(self, d, seed, eps):
        # Dykstra is coordinate ascent on the dual, and the corrections of
        # any earlier projection are a dual-feasible start, so a warm start
        # still converges to the projection of the moved point
        rng = np.random.default_rng(seed)
        n, iters, tol = d * d, 1000, 1e-10
        x0 = random_density_matrix(d, d, rng, rank=int(rng.integers(1, n + 1))).mat
        _, p, q, _, _ = _dykstra(x0, d, d, iters, tol)
        h = herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        x1 = x0 + eps * h / np.linalg.norm(h)
        cold, _, _, k_cold, _ = _dykstra(x1, d, d, iters, tol)
        warm, _, _, k_warm, _ = _dykstra(x1, d, d, iters, tol, p, q)
        # a capped run stops short of the projection, so it says nothing of
        # the start: of 600 draws from this distribution 30 reached the cap,
        # 29 of them cold and warm together
        assume(max(k_cold, k_warm) < iters)
        # both stop once the iterates agree to tol, not at the projection;
        # in the other 570 draws the two results were at most 7.8e-10 apart
        assert np.linalg.norm(warm - cold) <= 2e-9


def plain_dykstra(x0, dA, dB, iters, tol, p=0.0, q=0.0):
    """Dykstra without acceleration, the reference of the accelerated
    kernel: each cycle starts from the last density-set projection."""
    x = x0 - p - q
    for k in range(1, iters + 1):
        x, p, q, done = _dykstra_step(x, p, q, dA, dB, tol)
        if done:
            break
    return x, p, q, k


def checked_accelerate(s, f, done, accelerate=seesaw._accelerate):
    """_accelerate, asserting its safeguard: a row that goes on and whose
    residual rose after an extrapolated step takes its last image as the
    next point and clears its memory."""
    last, before, extrapolated = s.f.copy(), s.res.copy(), s.seen > 1
    new = accelerate(s, f, done)
    rose = extrapolated & (s.res > before) & ~done
    assert np.array_equal(new[rose], last[rose]) and not s.seen[rose].any()
    return new


# a bound on the rounding of one projection cycle at n <= 16, entries of order 1
ROUNDING = 1e-13


class TestAcceleration:
    @settings(max_examples=30)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(-1.0, 0.0),
           st.integers(0, 3), st.booleans())
    def test_accelerated_matches_plain(self, d, seed, log_step, steps, warm):
        # the projection after ``steps`` see-saw steps of length t in
        # [0.1, 1] from a Wishart state; past the first step the points sit
        # where the two sets meet, and extrapolations there overshoot often
        t, iters, tol = 10.0 ** log_step, PROJECTION_ITERS, PROJECTION_TOL
        start = random_density_matrix(d, d, np.random.default_rng(seed)).mat
        x, p, q, _, _ = _dykstra(start, d, d, iters, tol)
        for i in range(steps + 1):
            x0 = _rho_step(x, realign_inverse(_y_step(x, d, d)[1], d, d), t)
            if i < steps:
                x, p, q, _, _ = _dykstra(x0, d, d, iters, tol, p, q)
        p, q = (p, q) if warm else (0.0, 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seesaw, "_accelerate", checked_accelerate)
            a, pa, qa, ka, _ = _dykstra(x0, d, d, iters, tol, p, q)
        b, pb, qb, kb = plain_dykstra(x0, d, d, iters, tol, p, q)
        # a capped plain run passed no stop test, so it bounds nothing
        assume(kb < iters)
        # the acceleration finishes each projection plain Dykstra finishes
        assert ka < iters
        # Each run stops on a last cycle that gives x0 = out + p + q, p
        # normal to the PPT set at its PPT iterate y and q normal to the
        # density set at out, whatever point the cycle started from.  Then
        # ||a - b||^2 = <(p_b + q_b) - (p_a + q_a), a - b>; the q terms are
        # <= 0 and the p terms <= ||p|| (||a - y_a|| + ||b - y_b||), and the
        # stop tests bound ||out - y|| by tol.  Up to rounding, that is
        # ||a - b||^2 <= 2 tol (||p_a|| + ||p_b||)
        norm = np.linalg.norm
        bound = 2 * (tol + ROUNDING) * (norm(pa) + norm(pb)) + 2 * ROUNDING * (norm(qa) + norm(qb))
        assert norm(a - b) ** 2 <= bound

    @pytest.mark.parametrize("tol", [PROJECTION_TOL, -1.0])
    @pytest.mark.parametrize("state", [werner_f(3, 0.5).mat, np.eye(9, dtype=complex) / 9])
    def test_degenerate_inputs(self, state, tol):
        # a feasible state, cold and warm; with a stop test no run passes,
        # the residuals of the maximally mixed state repeat at exactly 0, so
        # the Gram matrix is zero.  A LinAlgError or RuntimeWarning fails
        out, _, _, k, _ = _dykstra(state, 3, 3, 30, tol)
        assert k == (1 if tol > 0 else 30)
        assert np.abs(out - state).max() <= 1e-15
        # warm corrections from a projection of a point away from the state
        rng = np.random.default_rng(0)
        h = herm_part(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        _, p, q, _, _ = _dykstra(state + 0.1 * h, 3, 3, PROJECTION_ITERS, PROJECTION_TOL)
        out, _, _, k, _ = _dykstra(state, 3, 3, 30, tol, p, q)
        assert k <= 30 and np.abs(out - state).max() <= 10 * PROJECTION_TOL


def serial_restart(cfg, r):
    """Restart r of cfg run alone and unraced: yields (round, r, value,
    counts, state, stop reason or "") at each Y-step.  The round is its
    Dykstra iterations so far, the start projection included; counts are
    those iterations, its cap hits and its safeguard fallbacks.  Each
    outer step is the Y-step, then a gradient step whose Dykstra
    projection starts from the corrections of the projection before it;
    the start projection starts cold."""
    d, iters, tol = cfg.d, PROJECTION_ITERS, PROJECTION_TOL
    start = random_density_matrix(d, d, np.random.default_rng([cfg.seed, r]))
    x, p, q, k, fell = _dykstra(start.mat, d, d, iters, tol)
    counts, prev = (k, int(k == iters), fell), -np.inf
    for n in range(1, cfg.max_outer + 1):
        val, y = _y_step(x, d, d)
        reason = "max_outer" if n == cfg.max_outer else ""
        if val - prev < OBJECTIVE_TOL:
            reason = "decreased" if val < prev else "converged"
        yield counts[0], r, float(val), counts, x, reason
        if reason:
            return
        prev = val
        x0 = _rho_step(x, realign_inverse(y, d, d), STEP)
        x, p, q, k, fell = _dykstra(x0, d, d, iters, tol, p, q)
        counts = (counts[0] + k, counts[1] + int(k == iters), counts[2] + fell)


def serial_optimize(cfg):
    """optimize as restarts run one at a time, merged in round order to
    replay the race: the bar of a round is the best value of the restarts
    that finished unretired in an earlier one, so same-round finishers do
    not count.  Retiring a restart moves no other one, so a retired
    restart's run is closed and the others go on; each restart keeps its
    values and its best state only.  The final projection starts cold."""
    runs = [serial_restart(cfg, r) for r in range(cfg.restarts)]
    history, best = [[] for _ in runs], [(-np.inf, None)] * cfg.restarts
    stats, finished = [None] * cfg.restarts, []
    for t, r, val, counts, x, reason in heapq.merge(*runs):
        h = history[r]
        h.append(val)
        if val > best[r][0]:
            best[r] = (val, x)
        bar = max((v for s, v in finished if s < t), default=-np.inf)
        if reason:
            finished.append((t, best[r][0]))
        elif len(h) > RACE_WINDOW and val + (val - h[-1 - RACE_WINDOW]) / RACE_WINDOW \
                * (cfg.max_outer - len(h)) < bar:
            reason = "dominated"
            runs[r].close()
        if reason:
            stats[r] = RestartStats(len(h), reason, *counts, val)
    winner = max(range(cfg.restarts), key=lambda r: best[r][0])
    final, _, _, final_iters, _ = _dykstra(best[winner][1], cfg.d, cfg.d,
                                           FINAL_PROJECTION_ITERS, FINAL_PROJECTION_TOL)
    state = DensityMatrix(final, cfg.d, cfg.d)
    return SeesawResult(best_state=state, best_value=ccnr_value(state),
                        history=tuple(history[winner]), ppt_residual=is_ppt(state)[1],
                        psd_residual=float(state.eigenvalues[0]),
                        best_restart=winner, restarts=tuple(stats),
                        final_projection_iters=final_iters)


class TestOptimize:
    @pytest.mark.parametrize("kwargs, capped", [
        # restarts 4 and 10 would take 500 steps; the other 18 converge in 28
        # to 211, and the race retires 4 and 10 after 153 and 225
        pytest.param({"d": 2, "seed": 1, "restarts": 20, "max_outer": 300}, 0,
                     marks=pytest.mark.slow),
        # restarts 0 and 1 run to max_outer, the race retires 2 after 36 steps
        ({"d": 3, "seed": 1, "restarts": 3, "max_outer": 40}, 2),
        # restarts 1 and 2 converge in 100 and 130 steps, restart 0 runs on to
        # max_outer: its extrapolation stays above the bar
        ({"d": 3, "seed": 4, "restarts": 3, "max_outer": 150}, 1),
        # a stack of one; it would converge in 41 steps
        ({"d": 4, "seed": 1, "restarts": 1, "max_outer": 30}, 1),
    ])
    def test_batched_run_equals_serial_reference(self, kwargs, capped):
        cfg = SeesawConfig(**kwargs)
        want = serial_optimize(cfg)
        got = optimize(cfg)
        assert got.best_state.mat.tobytes() == want.best_state.mat.tobytes()
        assert got.to_dict() == want.to_dict()
        # a restart's Dykstra iterations are the round its batched run ends
        # in: the restarts leave the stack in different rounds, ``capped``
        # of them at max_outer and the others on a stalled objective or
        # retired by the race
        stats = want.restarts
        assert len({s.dykstra_iters for s in stats}) == cfg.restarts, stats
        assert [s.stop_reason for s in stats].count("max_outer") == capped, stats

    @settings(max_examples=10)
    @given(st.sampled_from([2, 3]), st.integers(2, 6), st.integers(20, 120),
           st.integers(0, 2**32 - 1))
    # restart 0 reaches max_outer in round 183, in which restart 2's
    # extrapolation falls below restart 0's value but not below the bar,
    # restart 1's from round 181: the bar rises only from the next round,
    # and restart 2 runs on to max_outer
    @example(2, 3, 46, 852374357)
    def test_race_equals_serial_replay(self, d, restarts, max_outer, seed):
        cfg = SeesawConfig(d=d, seed=seed, restarts=restarts, max_outer=max_outer)
        want = serial_optimize(cfg)
        got = optimize(cfg)
        assert got.best_state.mat.tobytes() == want.best_state.mat.tobytes()
        assert got.to_dict() == want.to_dict()
        # a live restart gains on every step, so a retired one's last value
        # is its best, and that is below the bar, hence below the winner
        for s in got.restarts:
            if s.stop_reason == "dominated":
                assert s.final_value < max(got.history)

    def test_benchmark_d4_instance_takes_few_steps(self):
        # the seesaw-d4 benchmark call; counts, not seconds, so any host
        # gives them.  At the old step 0.1/d a restart crept to max_outer and
        # the call took 661 outer steps and 47,640 Dykstra iterations
        stats = optimize(SeesawConfig(d=4, seed=1, restarts=2)).restarts
        reasons = [s.stop_reason for s in stats]
        # both restarts converge, so the race retires neither
        assert "max_outer" not in reasons and "dominated" not in reasons, stats
        assert sum(s.outer_steps for s in stats) <= 100, stats
        # the accelerated projection took 2,467 iterations with 1 cap hit;
        # plain Dykstra took 5,394 with 17
        assert sum(s.dykstra_iters for s in stats) <= 3000, stats
        assert sum(s.cap_hits for s in stats) <= 3, stats

    @pytest.mark.slow
    def test_benchmark_d3_instance_races(self):
        # the seesaw-d3 benchmark call.  Unraced, restart 18 ran alone to
        # max_outer, below the winner, and the batched run took 14,909
        # rounds; the race retires it and two others and left 4,162, and
        # the accelerated projection leaves 1,663.  A round is one stacked
        # Dykstra iteration, so the last round is the largest Dykstra count
        # of any restart
        res = optimize(SeesawConfig(d=3, seed=1, restarts=20))
        stats = res.restarts
        assert "max_outer" not in [s.stop_reason for s in stats], stats
        assert max(s.dykstra_iters for s in stats) <= 2200, stats
        assert res.best_restart == 19
        assert res.best_value == float.fromhex("0x1.306769529d04ap+0")

    def test_d2_stays_at_most_one(self):
        cfg = SeesawConfig(d=2, seed=1, restarts=4, max_outer=150)
        res = optimize(cfg)
        assert res.best_value <= 1.0 + 1e-6
        assert res.ppt_residual >= -1e-7
        assert res.psd_residual >= -1e-7

    def test_best_value_consistent_with_state(self):
        cfg = SeesawConfig(d=2, seed=2, restarts=2, max_outer=100)
        res = optimize(cfg)
        assert res.best_value == ccnr_value(res.best_state)

    def test_runs_the_half_step_kernels(self):
        # one restart runs as a stack of one, and must still reproduce the
        # half-steps serial_optimize takes by hand, bit for bit
        cfg = SeesawConfig(d=3, seed=5, restarts=1, max_outer=25)
        got, want = optimize(cfg), serial_optimize(cfg)
        assert got.best_state.mat.tobytes() == want.best_state.mat.tobytes()
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("iters, kwargs, reasons", [
        # at d=3 the warm projections all take more than 8 iterations, and
        # so does restart 1's cold start; restart 3 falls back once
        (8, {"d": 3, "seed": 11, "max_outer": 60}, ["max_outer"] * 4),
        (3, {"d": 2, "seed": 3, "max_outer": 50},
         ["decreased", "dominated", "dominated", "decreased"]),
    ])
    def test_telemetry_counts_the_eigh_work(self, monkeypatch, iters, kwargs, reasons):
        # every Dykstra iteration is two eigh matrices and nothing else calls
        # eigh, so the telemetry accounts for the whole projection work
        monkeypatch.setattr(seesaw, "PROJECTION_ITERS", iters)
        cfg = SeesawConfig(restarts=4, **kwargs)
        eigh, matrices, n = np.linalg.eigh, [], cfg.d**2
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: matrices.append(a.size // n**2) or eigh(a))
        res = optimize(cfg)
        monkeypatch.undo()
        stats = res.restarts
        assert [s.stop_reason for s in stats] == reasons
        assert sum(matrices) == 2 * (sum(s.dykstra_iters for s in stats)
                                     + res.final_projection_iters)
        # one projection per Y-step: the start state's, then one per gradient step
        for s in stats:
            assert s.outer_steps <= cfg.max_outer
            assert s.cap_hits <= s.outer_steps
            assert s.cap_hits * iters <= s.dykstra_iters <= s.outer_steps * iters
            # a fallback rejects the image of an extrapolated point, and the
            # first extrapolated point is the third since the memory was cleared
            assert 3 * s.safeguard_resets <= s.dykstra_iters
        assert any(s.cap_hits == s.outer_steps for s in stats)
        assert 0 < sum(s.cap_hits for s in stats) < sum(s.outer_steps for s in stats)
        assert stats[res.best_restart].outer_steps == len(res.history)

    def test_deterministic(self):
        cfg = SeesawConfig(d=2, seed=3, restarts=2, max_outer=80)
        a = optimize(cfg)
        b = optimize(cfg)
        assert a.best_value == b.best_value
        assert a.history == b.history
        assert a.restarts == b.restarts
        assert np.array_equal(a.best_state.mat, b.best_state.mat)

    def test_history_matches_objective_trace(self):
        cfg = SeesawConfig(d=2, seed=4, restarts=1, max_outer=50)
        res = optimize(cfg)
        assert len(res.history) >= 1
        assert len(res.restarts) == 1
        assert res.restarts[0].final_value == res.history[-1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeesawConfig(d=1, seed=0)
        with pytest.raises(ValueError):
            SeesawConfig(d=3, seed=0, restarts=0)
        with pytest.raises(ValueError):
            SeesawConfig(d=3, seed=0, max_outer=0)
        # the largest array, an (restarts, ANDERSON_MEMORY, 2 d^4) Anderson
        # buffer, is bounded before allocation
        per_restart = 2 * ANDERSON_MEMORY * 16**4
        assert SeesawConfig(d=16, seed=0, restarts=MAX_STACK_ENTRIES // per_restart).restarts == 6
        with pytest.raises(ValueError, match="restarts"):
            SeesawConfig(d=16, seed=0, restarts=7)
        with pytest.raises(ValueError, match="restarts"):
            SeesawConfig(d=3, seed=0, restarts=MAX_STACK_ENTRIES // (2 * ANDERSON_MEMORY * 3**4) + 1)
        with pytest.raises(ValueError, match="restarts"):
            SeesawConfig(d=10**6, seed=0, restarts=1)

    @pytest.mark.parametrize("override", [
        {"restarts": 2.5},
        {"max_outer": True},
        {"seed": 1.0},
        {"d": "3"},
        {"max_outer": 2.5},
        {"max_outer": float("nan")},
        {"restarts": None},
        {"max_outer": "10"},
        {"seed": float(10**300)},
    ])
    def test_config_types_validated(self, override):
        with pytest.raises(ValueError, match="must be"):
            SeesawConfig(**{"d": 3, "seed": 0, **override})

    def test_negative_seed_is_named(self):
        # numpy would reject it only at the first draw, without naming it
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SeesawConfig(d=2, seed=-1, restarts=1, max_outer=2)

    def test_step_is_the_module_constant(self, monkeypatch):
        # the same step at every d, and not part of the config's record
        steps, rho_step = set(), seesaw._rho_step
        monkeypatch.setattr(seesaw, "_rho_step",
                            lambda mat, y_inv, step: steps.add(step) or rho_step(mat, y_inv, step))
        for d in (2, 3, 4):
            optimize(SeesawConfig(d=d, seed=0, restarts=2, max_outer=3))
        assert steps == {STEP} and STEP == 0.1
        cfg = SeesawConfig(d=4, seed=0)
        assert not hasattr(cfg, "step")
        # the config's record holds only the counts
        assert set(cfg.to_dict()) == {"d", "seed", "max_outer", "restarts"}
        # the projection cap is a read-only property, not a field
        assert cfg.projection_iters == PROJECTION_ITERS
