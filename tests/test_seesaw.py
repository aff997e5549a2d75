from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beqpt.bipartite import (
    BipartiteOperator,
    herm_part,
    partial_transpose,
    realign,
    realign_inverse,
    trace_norm,
)
from beqpt.diagnostics import ccnr_value
from beqpt.seesaw import (
    MAX_STEP,
    SeesawConfig,
    dual_y_step,
    optimize,
    primal_rho_step,
    project_ppt,
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
        from beqpt.seesaw import _project_dm_mat

        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        out = project_psd_trace_one(x, 3, 3)
        assert out.mat.tobytes() == _project_dm_mat(x).tobytes()


class TestProjectPpt:
    def test_ppt_input_unchanged(self, rng):
        rho = werner_f(3, 0.5)  # separable, hence PPT
        out = project_ppt(rho)
        assert np.abs(out.mat - rho.mat).max() <= 1e-12

    def test_max_entangled_gets_clipped(self):
        out = project_ppt(max_entangled_state(2))
        w = np.linalg.eigvalsh(partial_transpose(out, "B").mat)
        assert w.min() >= -1e-14

    def test_idempotent(self, rng):
        x = BipartiteOperator(
            herm_part(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))), 3, 3
        )
        once = project_ppt(x)
        twice = project_ppt(once)
        assert np.abs(twice.mat - once.mat).max() <= 1e-12

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_idempotent_on_drawn_operators(self, dA, dB, seed):
        rng = np.random.default_rng(seed)
        n = dA * dB
        x = BipartiteOperator(
            herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))), dA, dB
        )
        once = project_ppt(x)
        twice = project_ppt(once)
        assert np.abs(twice.mat - once.mat).max() <= 1e-12 * max(1.0, np.abs(once.mat).max())


class TestDualYStep:
    def test_attains_trace_norm(self, rng):
        rho = random_density_matrix(3, 3, rng)
        y = dual_y_step(rho)
        attained = np.trace(realign(rho).conj().T @ y).real
        assert attained == pytest.approx(trace_norm(realign(rho)), abs=1e-10)

    def test_y_is_contraction(self, rng):
        y = dual_y_step(random_density_matrix(2, 4, rng))
        top = np.linalg.eigvalsh(y.conj().T @ y).max()
        assert top <= 1.0 + 1e-12

    def test_max_entangled_objective_is_d(self):
        rho = max_entangled_state(3)
        y = dual_y_step(rho)
        assert np.trace(realign(rho).conj().T @ y).real == pytest.approx(3.0, abs=1e-10)


class TestPrimalRhoStep:
    def test_zero_step_is_fixed_point(self):
        cfg = SeesawConfig(d=3, seed=0, step=1e-30)
        rho = werner_f(3, 0.2)  # PPT, interior-ish feasible point
        y = dual_y_step(rho)
        out = primal_rho_step(rho, y, cfg)
        assert np.abs(out.mat - rho.mat).max() <= cfg.projection_tol

    def test_output_feasibility(self, rng):
        cfg = SeesawConfig(d=3, seed=0)
        rho = random_density_matrix(3, 3, rng)
        rho = project_psd_trace_one(
            project_ppt(rho).mat, 3, 3
        )
        y = dual_y_step(rho)
        out = primal_rho_step(rho, y, cfg)
        assert out.mat.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(partial_transpose(out, "B").mat).min() >= -cfg.projection_tol

    def test_ascent_direction(self, rng):
        # the projected-gradient inequality <rho', H> >= <rho, H> holds for
        # feasible base points; separable states are feasible by construction
        from conftest import random_separable_state

        cfg = SeesawConfig(d=3, seed=0, step=0.02)
        for _ in range(5):
            rho = random_separable_state(3, 3, rng)
            y = dual_y_step(rho)
            h = herm_part(realign_inverse(y, 3, 3).mat)
            out = primal_rho_step(rho, y, cfg)
            before = np.trace(rho.mat @ h).real
            after = np.trace(out.mat @ h).real
            assert after >= before - cfg.projection_tol


class TestOptimize:
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

    def test_runs_the_public_half_steps(self):
        # one restart stepped by hand through dual_y_step/primal_rho_step
        # must reproduce optimize bit for bit; with Y = 0, primal_rho_step
        # is the bare Dykstra projection that starts and ends a run
        cfg = SeesawConfig(d=3, seed=5, restarts=1, max_outer=25)
        res = optimize(cfg)
        zero_y = np.zeros((9, 9))
        start = random_density_matrix(3, 3, np.random.default_rng([cfg.seed, 0]))
        rho = primal_rho_step(start, zero_y, cfg)
        iterates = []
        for _ in res.history:
            iterates.append(rho)
            rho = primal_rho_step(rho, dual_y_step(rho), cfg)
        assert res.history == pytest.approx([ccnr_value(r) for r in iterates], abs=1e-12)
        best = iterates[int(np.argmax(res.history))]
        final_cfg = replace(cfg, projection_iters=500, projection_tol=1e-10)
        final = primal_rho_step(best, zero_y, final_cfg)
        assert np.array_equal(final.mat, res.best_state.mat)

    def test_deterministic(self):
        cfg = SeesawConfig(d=2, seed=3, restarts=2, max_outer=80)
        a = optimize(cfg)
        b = optimize(cfg)
        assert a.best_value == b.best_value
        assert a.history == b.history
        assert a.restarts_summary == b.restarts_summary
        assert np.array_equal(a.best_state.mat, b.best_state.mat)

    def test_history_matches_objective_trace(self):
        cfg = SeesawConfig(d=2, seed=4, restarts=1, max_outer=50)
        res = optimize(cfg)
        assert len(res.history) >= 1
        assert len(res.restarts_summary) == 1
        assert res.restarts_summary[0] == pytest.approx(res.history[-1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeesawConfig(d=1, seed=0)
        with pytest.raises(ValueError):
            SeesawConfig(d=3, seed=0, restarts=0)
        with pytest.raises(ValueError):
            SeesawConfig(d=3, seed=0, step=-0.1)
        assert SeesawConfig(d=3, seed=0, step=MAX_STEP).step == MAX_STEP
        with pytest.raises(ValueError, match="step must lie in"):
            SeesawConfig(d=3, seed=0, step=MAX_STEP * (1 + 1e-15))
        with pytest.raises(ValueError):
            SeesawConfig(d=3, seed=0, objective_tol=0.0)

    @pytest.mark.parametrize("override", [
        {"restarts": 2.5},
        {"max_outer": True},
        {"seed": 1.0},
        {"d": "3"},
        {"projection_tol": float("nan")},
        {"objective_tol": float("inf")},
        {"step": False},
        {"step": "0.1"},
        {"projection_tol": 10**400},  # an int too large for a float
    ])
    def test_config_types_validated(self, override):
        with pytest.raises(ValueError, match="must be"):
            SeesawConfig(**{"d": 3, "seed": 0, **override})

    def test_default_step_scales_with_dimension(self):
        assert SeesawConfig(d=4, seed=0).step == pytest.approx(0.025)
        assert SeesawConfig(d=4, seed=0, step=0.5).step == 0.5
