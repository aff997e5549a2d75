import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beqpt import seesaw
from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    _realign_inverse,
    herm_part,
    partial_transpose,
    realign,
    realign_inverse,
    trace_norm,
)
from beqpt.diagnostics import ccnr_value, is_ppt
from beqpt.seesaw import (
    FINAL_PROJECTION_ITERS,
    FINAL_PROJECTION_TOL,
    MAX_STACK_ENTRIES,
    OBJECTIVE_TOL,
    PROJECTION_ITERS,
    PROJECTION_TOL,
    RestartStats,
    SeesawConfig,
    SeesawResult,
    _dykstra,
    _dykstra_step,
    _norm,
    _project_dm_mat,
    _project_ppt_mat,
    _rho_step,
    _y_step,
    optimize,
    project_psd_trace_one,
    project_simplex,
)
from beqpt.states import max_entangled_state, random_density_matrix, werner_f


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
        w = np.linalg.eigvalsh(partial_transpose(out, "B").mat)
        assert w.min() >= -1e-14

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
        assert attained == pytest.approx(trace_norm(realign(rho)), abs=1e-10)
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


def cold_rho_step(rho: DensityMatrix, step: float) -> DensityMatrix:
    """A gradient step along Herm(R^-1(Y)) from the Y-step at rho, then a
    cold Dykstra projection back onto the PPT density set."""
    y_inv = realign_inverse(_y_step(rho.mat, rho.dA, rho.dB)[1], rho.dA, rho.dB).mat
    x0 = _rho_step(rho.mat, y_inv, step)
    return DensityMatrix(_dykstra(x0, rho.dA, rho.dB, 200, PROJECTION_TOL)[0], rho.dA, rho.dB)


class TestPrimalRhoStep:
    def test_zero_step_is_fixed_point(self):
        # a step too small to move the state
        rho = werner_f(3, 0.2)  # PPT, interior-ish feasible point
        out = cold_rho_step(rho, 1e-30)
        assert np.abs(out.mat - rho.mat).max() <= PROJECTION_TOL

    def test_output_feasibility(self, rng):
        rho = random_density_matrix(3, 3, rng)
        rho = project_psd_trace_one(_project_ppt_mat(rho.mat, 3, 3), 3, 3)
        out = cold_rho_step(rho, SeesawConfig(d=3, seed=0).step)
        assert out.mat.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(partial_transpose(out, "B").mat).min() >= -PROJECTION_TOL

    def test_ascent_direction(self, rng):
        # the projected-gradient inequality <rho', H> >= <rho, H> holds for
        # feasible base points and any step > 0; separable states are
        # feasible by construction
        from conftest import random_separable_state

        step = SeesawConfig(d=3, seed=0).step
        for _ in range(5):
            rho = random_separable_state(3, 3, rng)
            h = herm_part(realign_inverse(_y_step(rho.mat, 3, 3)[1], 3, 3).mat)
            out = cold_rho_step(rho, step)
            before = np.trace(rho.mat @ h).real
            after = np.trace(out.mat @ h).real
            assert after >= before - PROJECTION_TOL


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
        vals, ys = _y_step(stack, dA, dB)
        out, p, q, done = _dykstra_step(stack, 0.1 * stack, 0.2 * stack, dA, dB, tol)
        for i, x in enumerate(stack):
            assert ppt[i].tobytes() == _project_ppt_mat(x, dA, dB).tobytes()
            assert dm[i].tobytes() == _project_dm_mat(x).tobytes()
            assert norms[i] == np.linalg.norm(x)
            val, y = _y_step(x, dA, dB)
            assert vals[i] == val and ys[i].tobytes() == y.tobytes()
            one = _dykstra_step(x, 0.1 * x, 0.2 * x, dA, dB, tol)
            assert [a[i].tobytes() for a in (out, p, q)] == [a.tobytes() for a in one[:3]]
            assert done[i] == one[3]

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
        _, p, q, _ = _dykstra(x0, d, d, iters, tol)
        h = herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        x1 = x0 + eps * h / np.linalg.norm(h)
        cold, _, _, k_cold = _dykstra(x1, d, d, iters, tol)
        warm, _, _, k_warm = _dykstra(x1 - p - q, d, d, iters, tol, p, q)
        # a capped run stops short of the projection, so it says nothing of
        # the start: of 600 draws from this distribution 30 reached the cap,
        # 29 of them cold and warm together
        assume(max(k_cold, k_warm) < iters)
        # both stop once the iterates agree to tol, not at the projection;
        # in the other 570 draws the two results were at most 7.8e-10 apart
        assert np.linalg.norm(warm - cold) <= 2e-9


def serial_optimize(cfg):
    """optimize as one restart after another.  Each outer step is
    the Y-step, then a gradient step whose Dykstra projection starts from
    the corrections of the projection before it; the start and the final
    projections start cold.  Counts each restart's telemetry as it goes."""
    d, iters, tol = cfg.d, PROJECTION_ITERS, PROJECTION_TOL
    runs, stats = [], []
    for r in range(cfg.restarts):
        start = random_density_matrix(d, d, np.random.default_rng([cfg.seed, r]))
        x, p, q, k = _dykstra(start.mat, d, d, iters, tol)
        spent, caps = k, int(k == iters)
        best, best_x, prev, history = -np.inf, x, -np.inf, []
        while True:
            y = _y_step(x, d, d)[1]
            val = float(np.linalg.svd(realign(BipartiteOperator(x, d, d)),
                                      full_matrices=False)[1].sum())
            history.append(val)
            if val > best:
                best, best_x = val, x
            if val - prev < OBJECTIVE_TOL:
                reason = "decreased" if val < prev else "converged"
                break
            if len(history) == cfg.max_outer:
                reason = "max_outer"
                break
            prev = val
            x0 = _rho_step(x, _realign_inverse(y, d, d), cfg.step)
            x, p, q, k = _dykstra(x0 - p - q, d, d, iters, tol, p, q)
            spent, caps = spent + k, caps + int(k == iters)
        runs.append((best, best_x, tuple(history)))
        stats.append(RestartStats(len(history), reason, spent, caps, history[-1]))
    winner = max(range(cfg.restarts), key=lambda r: runs[r][0])
    _, best_x, history = runs[winner]
    final, _, _, final_iters = _dykstra(best_x, d, d, FINAL_PROJECTION_ITERS,
                                        FINAL_PROJECTION_TOL)
    state = DensityMatrix(final, d, d)
    return SeesawResult(best_state=state, best_value=ccnr_value(state), history=history,
                        ppt_residual=is_ppt(state)[1],
                        psd_residual=float(state.eigenvalues[0]),
                        best_restart=winner, restarts=tuple(stats),
                        final_projection_iters=final_iters)


class TestOptimize:
    @pytest.mark.parametrize("kwargs, capped", [
        pytest.param({"d": 2, "seed": 1, "restarts": 20}, 2, marks=pytest.mark.slow),
        ({"d": 3, "seed": 1, "restarts": 3, "max_outer": 40}, 3),
        # restarts 0 and 2 converge in 303 and 302 steps, restart 1 would take 333
        ({"d": 3, "seed": 7, "restarts": 3, "max_outer": 320}, 1),
        ({"d": 4, "seed": 1, "restarts": 1, "max_outer": 60}, 1),  # runs as an (n, n) matrix
    ])
    def test_batched_run_equals_serial_reference(self, kwargs, capped):
        cfg = SeesawConfig(**kwargs)
        want = serial_optimize(cfg)
        got = optimize(cfg)
        assert got.best_state.mat.tobytes() == want.best_state.mat.tobytes()
        assert got.to_dict() == want.to_dict()
        # a restart's Dykstra iterations are the round its batched run ends
        # in: the restarts leave the stack in different rounds, ``capped``
        # of them at max_outer and the others on a stalled objective
        stats = want.restarts
        assert len({s.dykstra_iters for s in stats}) == cfg.restarts, stats
        assert [s.stop_reason for s in stats].count("max_outer") == capped, stats

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
        # one restart stepped by hand must reproduce optimize bit for bit:
        # the start and final projections are cold Dykstra projections (of
        # the start state and of the best iterate), and each step between
        # them is the Y-step and a gradient step whose projection starts
        # from the corrections of the projection before it
        cfg = SeesawConfig(d=3, seed=5, restarts=1, max_outer=25)
        iters, tol = PROJECTION_ITERS, PROJECTION_TOL
        res = optimize(cfg)
        start = random_density_matrix(3, 3, np.random.default_rng([cfg.seed, 0]))
        x, p, q, _ = _dykstra(start.mat, 3, 3, iters, tol)
        iterates = [DensityMatrix(x, 3, 3)]
        while len(iterates) < len(res.history):
            rho = iterates[-1]
            x0 = _rho_step(rho.mat, realign_inverse(_y_step(rho.mat, 3, 3)[1], 3, 3).mat, cfg.step)
            x, p, q, _ = _dykstra(x0 - p - q, 3, 3, iters, tol, p, q)
            iterates.append(DensityMatrix(x, 3, 3))
        assert res.history == pytest.approx([ccnr_value(r) for r in iterates], abs=1e-12)
        best = iterates[int(np.argmax(res.history))]
        final = _dykstra(best.mat, 3, 3, FINAL_PROJECTION_ITERS, FINAL_PROJECTION_TOL)[0]
        assert np.array_equal(final, res.best_state.mat)

    @pytest.mark.parametrize("iters, reasons", [
        (8, ["max_outer", "converged", "max_outer", "max_outer"]),
        (3, ["decreased", "decreased", "max_outer", "decreased"]),
    ])
    def test_telemetry_counts_the_eigh_work(self, monkeypatch, iters, reasons):
        # every Dykstra iteration is two eigh matrices and nothing else calls
        # eigh, so the telemetry accounts for the whole projection work
        monkeypatch.setattr(seesaw, "PROJECTION_ITERS", iters)
        cfg = SeesawConfig(d=2, seed=3, restarts=4, max_outer=50)
        eigh, matrices = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: matrices.append(a.size // 16) or eigh(a))
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
        # the (restarts, d^2, d^2) stacks are bounded before allocation
        assert SeesawConfig(d=16, seed=0, restarts=MAX_STACK_ENTRIES // 16**4).restarts == 64
        with pytest.raises(ValueError, match="restarts"):
            SeesawConfig(d=3, seed=0, restarts=MAX_STACK_ENTRIES // 3**4 + 1)
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

    def test_default_step_scales_with_dimension(self):
        cfg = SeesawConfig(d=4, seed=0)
        assert cfg.step == pytest.approx(0.025)
        # derived, not a field: the config's record holds only the counts
        assert set(cfg.to_dict()) == {"d", "seed", "max_outer", "restarts"}
        # so are the projection caps
        assert cfg.projection_iters == PROJECTION_ITERS
