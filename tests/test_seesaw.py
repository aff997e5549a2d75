import hashlib
import heapq
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beqpt import seesaw
from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    _realign,
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
    FINAL_PROJECTION_TOL,
    MAX_STACK_ENTRIES,
    OBJECTIVE_TOL,
    PROJECTION_ITERS,
    PROJECTION_TOL,
    PROJECTION_TOL_SHARE,
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
    _race,
    _rho_step,
    _Stack,
    _y_step,
    optimize,
)
from beqpt.states import max_entangled_state, random_density_matrix, werner_f
from conftest import drawn_states, random_separable_state


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
        out = project_psd_trace_one(rho.mat)
        assert np.abs(out - rho.mat).max() <= 1e-12

    def test_hand_computed_diagonal(self):
        out = project_psd_trace_one(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_output_feasible(self, rng):
        x = herm_part(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        out = project_psd_trace_one(x)
        assert out.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-14

    @settings(max_examples=200)
    @given(st.integers(1, 16), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1),
           st.floats(-3, 3), st.data())
    def test_projection_inequality(self, n, count, real, seed, log_scale, data):
        # P(x) is the nearest state, so Re<x - P(x), sigma - P(x)> <= 0 for
        # every state sigma; the see-saw's ascent bound rests on this.  A
        # stack of count matrices is drawn when count > 0, one matrix else
        rng = np.random.default_rng(seed)
        shape = (count, n, n) if count else (n, n)
        a = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
        x = herm_part(a) * 10.0 ** log_scale
        p = project_psd_trace_one(x)
        assert np.isrealobj(p) == real
        rank = data.draw(st.integers(1, n), label="rank of sigma")
        g = rng.standard_normal(shape[:-1] + (rank,)) + 1j * rng.standard_normal(
            shape[:-1] + (rank,))
        sigma = g @ g.conj().mT
        sigma /= np.trace(sigma, axis1=-2, axis2=-1).real[..., None, None]
        inner = np.einsum("...ij,...ij->...", (x - p).conj(), sigma - p).real
        assert np.all(inner <= 1e-12 * (1 + _norm(x)))


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


def cold_rho_step(rho: DensityMatrix, step: float, tol: float = PROJECTION_TOL) -> tuple:
    """A gradient step along Herm(R^-1(Y)) from the Y-step at rho, then a
    cold Dykstra projection back onto the PPT density set that stops at
    ``tol``.  Returns the new state, the projection's PPT correction p and
    its iterations."""
    y_inv = realign_inverse(_y_step(rho.mat, rho.dA, rho.dB)[1], rho.dA, rho.dB)
    x0 = _rho_step(rho.mat, y_inv, step)
    out, p, _, k = _dykstra(_Stack(x0[None], tol), rho.dA, rho.dB, PROJECTION_ITERS)
    return DensityMatrix(out, rho.dA, rho.dB), p, k


class TestPrimalRhoStep:
    def test_zero_step_is_fixed_point(self):
        # a step too small to move the state
        rho = werner_f(3, 0.2)  # PPT, interior-ish feasible point
        out = cold_rho_step(rho, 1e-30)[0]
        assert np.abs(out.mat - rho.mat).max() <= PROJECTION_TOL

    def test_output_feasibility(self, rng):
        rho = random_density_matrix(3, 3, rng)
        rho = DensityMatrix(project_psd_trace_one(_project_ppt_mat(rho.mat, 3, 3)), 3, 3)
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
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(-3.0, 1.0),
           st.floats(np.log10(PROJECTION_TOL), -2.0))
    def test_objective_never_falls(self, d, seed, log_step, log_tol):
        # f = ||R(.)||_1 is convex and H = Herm(R^-1(U V^dag)) a subgradient
        # at rho, so f(rho') >= <rho', H>, with equality at rho.  The last
        # Dykstra cycle, from whichever corrections the acceleration chose,
        # gives rho + tH = rho' + p + q for the corrections p, q it returns,
        # with p normal to the PPT cone at the cycle's PPT iterate y and q
        # normal to the density set at rho'; no earlier iterate enters.  For a
        # feasible rho that gives t <rho' - rho, H> >= ||rho' - rho||^2 -
        # ||rho' - y|| ||p||.  A projection that stops within its cap passed
        # the test ||rho' - y|| <= tol, so for every step t > 0
        # f(rho') >= f(rho) - tol ||p|| / t.  The same test makes rho' PPT to
        # within tol: the partial transpose keeps the Frobenius norm, and y is
        # PPT, so by Weyl lambda_min(rho'^Gamma) >= -||rho' - y||.  The see-saw's
        # warm projections stop at tolerances from PROJECTION_TOL up to a
        # share of a gain
        step = 10.0 ** log_step  # log-uniform in [1e-3, 10]
        tol = 10.0 ** log_tol  # log-uniform in [PROJECTION_TOL, 1e-2]
        rho = random_separable_state(d, d, np.random.default_rng(seed))
        out, p, k = cold_rho_step(rho, step, tol)
        # a capped projection passed no stop test, so it bounds nothing
        assume(k < PROJECTION_ITERS)
        assert is_ppt(out)[1] >= -tol - 1e-12
        assert ccnr_value(out) >= ccnr_value(rho) - tol * np.linalg.norm(p) / step


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
    """(stack, dA, dB): 1 to 8 near-Hermitian n x n matrices, real or
    complex, n in 4..16, with dA * dB = n (dA = 1 for a prime n)."""
    n = draw(st.integers(4, 16))
    count = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    if draw(st.booleans()):
        a = a.real
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
        ppt, dm = _project_ppt_mat(stack, dA, dB), project_psd_trace_one(stack)
        norms = _norm(stack)
        pt = partial_transpose(stack, dA, dB)
        vals, ys = _y_step(stack, dA, dB)
        y_inv = realign_inverse(ys, dA, dB)
        out, f, done = _dykstra_step(stack, 0.1 * stack, 0.2 * stack, dA, dB, tol)
        for i, x in enumerate(stack):
            assert ppt[i].tobytes() == _project_ppt_mat(x, dA, dB).tobytes()
            assert pt[i].tobytes() == partial_transpose(x, dA, dB).tobytes()
            assert dm[i].tobytes() == project_psd_trace_one(x).tobytes()
            # a stack's norm is each slice's alone; a complex sum runs in
            # another order than np.linalg.norm's, which a real one keeps
            assert norms[i] == _norm(x)
            want = np.linalg.norm(x)
            assert norms[i] == (want if np.isrealobj(x) else
                                pytest.approx(want, rel=x.size * np.finfo(float).eps))
            val, y = _y_step(x, dA, dB)
            assert vals[i] == val and ys[i].tobytes() == y.tobytes()
            assert y_inv[i].tobytes() == realign_inverse(y, dA, dB).tobytes()
            one = _dykstra_step(x, 0.1 * x, 0.2 * x, dA, dB, tol)
            assert [a[i].tobytes() for a in (out, f)] == [a.tobytes() for a in one[:2]]
            assert done[i] == one[2]
        # accelerated rounds from warm corrections, each row against itself
        # as a stack of one; with tol = -1 no row stops, so the rounds from
        # the third on extrapolate and the safeguard judges each of them
        rows, solo = _Stack(stack, -1.0), [_Stack(x[None], -1.0) for x in stack]
        for s in [rows] + solo:
            s.z[:, 0], s.z[:, 1] = 0.1 * s.x0, 0.2 * s.x0
        for _ in range(12):
            out, f, _ = _dykstra_round(rows, dA, dB)
            for i, s in enumerate(solo):
                one, g, _ = _dykstra_round(s, dA, dB)
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
        # with exact ties the running mean may round to a tie of its own,
        # so the threshold, their maximum, can differ from the support
        # rule's by the rounding of the cumulative sums
        ties = np.round(rows / np.abs(rows).max(axis=-1, keepdims=True), 1)
        for row, got in zip(ties, project_simplex(ties)):
            assert np.abs(got - serial_simplex(row)).max() <= n * np.finfo(float).eps


class TestRealSearch:
    """The see-saw searches real symmetric PPT states only: its starts are
    the real parts of Wishart draws and every kernel keeps them real."""

    @settings(max_examples=60)
    @given(drawn_states(max_d=4, square=True))
    def test_real_part_keeps_the_search_feasible(self, rho):
        d, mat = rho.dA, rho.mat
        pt = np.linalg.eigvalsh(partial_transpose(mat, d, d))
        # conjugation keeps the CCNR norm and the partial-transpose spectrum
        bar = DensityMatrix(mat.conj(), d, d)
        assert ccnr_value(bar) == pytest.approx(ccnr_value(rho), abs=1e-12)
        assert np.abs(np.linalg.eigvalsh(partial_transpose(bar.mat, d, d)) - pt).max() <= 1e-12
        # so the real part, their mean, is a state, PPT when rho is (lambda_min
        # is concave), and its CCNR norm is at most rho's (the trace norm is
        # convex): a real search may miss a complex optimum, never exceed it
        re = DensityMatrix(mat.real, d, d)
        assert np.linalg.eigvalsh(partial_transpose(re.mat, d, d))[0] >= pt[0] - 1e-12
        assert ccnr_value(re) <= ccnr_value(rho) + 1e-12

    def test_kernels_keep_float64(self):
        rng = np.random.default_rng(0)
        x = herm_part(rng.standard_normal((3, 9, 9)))
        vals, y = _y_step(x, 3, 3)
        outs = [herm_part(x), partial_transpose(x, 3, 3), _realign(x, 3, 3),
                realign_inverse(x, 3, 3), *np.linalg.eigh(x), vals, y, *np.linalg.svd(x),
                _project_ppt_mat(x, 3, 3), project_psd_trace_one(x),
                _rho_step(x, realign_inverse(y, 3, 3), STEP), _norm(x),
                *_dykstra_step(x, 0.1 * x, 0.2 * x, 3, 3, PROJECTION_TOL)[:2]]
        assert [a.dtype for a in outs] == [np.float64] * len(outs)
        s = _Stack(x, -1.0)
        for _ in range(4):  # from the third round on, _accelerate extrapolates
            out, f, _ = _dykstra_round(s, 3, 3)
        assert [a.dtype for a in (out, f, s.z, s.dG, s.dF, s.gram, s.g, s.f)] == [np.float64] * 8

    def test_optimize_runs_in_float64(self, monkeypatch):
        # a promotion back to complex would double every buffer and eigh
        seen, round_ = set(), seesaw._dykstra_round
        monkeypatch.setattr(seesaw, "_dykstra_round", lambda s, *args: seen.add(
            (s.x0.dtype, s.z.dtype, s.dG.dtype)) or round_(s, *args))
        res = optimize(SeesawConfig(d=3, seed=1, restarts=3, max_outer=10))
        assert seen == {(np.dtype(np.float64),) * 3}
        # the reported state is complex, like every DensityMatrix
        assert res.best_state.mat.dtype == np.complex128


def warm_dykstra(s, x0, d, iters, tol):
    """The next projection of the one-row stack ``s``, run as ``optimize``
    runs a warm one: from ``x0``, the corrections of the stack's last image
    and the Anderson memory it carries, to the stop test at ``tol`` or the
    cap.  On a new stack, which has no image yet, it is a cold projection.
    Returns ``_dykstra``'s (the last density-set projection, the
    corrections of its cycle, iterations)."""
    s.x0, s.z[0], s.k[0], s.tol[0] = x0[None], s.f[0].reshape(s.z[0].shape), 0, tol
    return _dykstra(s, d, d, iters)


class TestWarmStart:
    @settings(max_examples=60)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 1e-2, 1e-1]))
    def test_warm_projection_matches_cold(self, d, seed, eps):
        # Dykstra is coordinate ascent on the dual, and the corrections of
        # any earlier projection are a dual-feasible start, so a warm start
        # still converges to the projection of the moved point; here the
        # warm start keeps the corrections and empties the Anderson memory
        rng = np.random.default_rng(seed)
        n, iters, tol = d * d, 1000, 1e-10
        x0 = random_density_matrix(d, d, rng, rank=int(rng.integers(1, n + 1))).mat
        s = _Stack(x0[None], tol)
        _dykstra(s, d, d, iters)
        s.dG[:], s.gram[:], s.seen[:] = 0.0, 0.0, 0
        h = herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        x1 = x0 + eps * h / np.linalg.norm(h)
        cold, _, _, k_cold = _dykstra(_Stack(x1[None], tol), d, d, iters)
        warm, _, _, k_warm = warm_dykstra(s, x1, d, iters, tol)
        # a capped run stops short of the projection, so it says nothing of
        # the start: of 600 draws from this distribution 30 reached the cap,
        # 29 of them cold and warm together
        assume(max(k_cold, k_warm) < iters)
        # both stop once the iterates agree to tol, not at the projection;
        # in the other 570 draws the two results were at most 7.8e-10 apart
        assert np.linalg.norm(warm - cold) <= 2e-9

    @settings(max_examples=60)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 1e-2, 1e-1]))
    def test_carried_memory_matches_cold(self, d, seed, eps):
        # the Anderson memory only chooses the points Dykstra cycles from; the
        # differences it carries belong to the last projection's map, and the
        # safeguard judges the first extrapolation from them like any other
        rng = np.random.default_rng(seed)
        n, iters, tol = d * d, 1000, 1e-10
        x0 = random_density_matrix(d, d, rng, rank=int(rng.integers(1, n + 1))).mat
        h = herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        x1 = x0 + eps * h / np.linalg.norm(h)
        s = _Stack(x0[None], tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seesaw, "_accelerate", checked_accelerate)
            warm_dykstra(s, x0, d, iters, tol)
            warm, _, _, k_warm = warm_dykstra(s, x1, d, iters, tol)
        cold, _, _, k_cold = _dykstra(_Stack(x1[None], tol), d, d, iters)
        assume(max(k_cold, k_warm) < iters)
        assert np.linalg.norm(warm - cold) <= 2e-9


def plain_dykstra(x0, dA, dB, iters, tol, p=0.0, q=0.0):
    """Dykstra without acceleration, the reference of the accelerated
    kernel: each cycle starts from the last density-set projection."""
    x = x0 - p - q
    for k in range(1, iters + 1):
        x, (p, q), done = _dykstra_step(x, p, q, dA, dB, tol)
        if done:
            break
    return x, p, q, k


def checked_accelerate(s, f, done, accelerate=seesaw._accelerate):
    """_accelerate, asserting its memory rules.  The first image of a
    projection writes no difference and judges no step.  A row that goes on
    and whose residual rose after an extrapolated step, a new projection's
    first extrapolation from carried columns included, takes its last image
    as the next point and clears its memory; no other row falls back.  The
    kept Gram matrix is the one formed from the columns, bit for bit."""
    first = s.k == 0
    kept = [a[first].copy() for a in (s.dG, s.dF)]
    last, before, resets = s.f.copy(), s.res.copy(), s.resets.copy()
    extrapolated = (s.seen > 1) & ~first
    new = accelerate(s, f, done)
    assert all(np.array_equal(a[first], b) for a, b in zip((s.dG, s.dF), kept))
    rose = extrapolated & (s.res > before) & ~done
    assert np.array_equal(new[rose], last[rose]) and not s.seen[rose].any()
    assert np.array_equal(s.resets - resets, rose)
    assert np.array_equal(s.gram, np.vecdot(s.dG[:, :, None], s.dG[:, None]))
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
        s = _Stack(start[None], tol)
        x, p, q, _ = warm_dykstra(s, start, d, iters, tol)
        for i in range(steps + 1):
            x0 = _rho_step(x, realign_inverse(_y_step(x, d, d)[1], d, d), t)
            if i < steps:
                x, p, q, _ = warm_dykstra(s, x0, d, iters, tol)
        # warm, the projection keeps the corrections and the Anderson memory
        # of the one before it, as in the see-saw
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seesaw, "_accelerate", checked_accelerate)
            if warm:
                a, pa, qa, ka = warm_dykstra(s, x0, d, iters, tol)
            else:
                a, pa, qa, ka = _dykstra(_Stack(x0[None], tol), d, d, iters)
        p, q = (p, q) if warm else (0.0, 0.0)
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

    def test_first_extrapolation_is_judged(self, monkeypatch):
        # the seesaw-d4 call under the checked safeguard: of its 5 fallbacks,
        # one rejects the first extrapolation of a new projection, which the
        # columns carried over from the projection before it gave
        firsts = []

        def spy(s, f, done):
            first, resets = (s.k == 1) & (s.seen > 1), s.resets.copy()
            new = checked_accelerate(s, f, done)
            firsts.append(int((first & (s.resets > resets)).sum()))
            return new

        monkeypatch.setattr(seesaw, "_accelerate", spy)
        res = optimize(SeesawConfig(d=4, seed=1, restarts=2))
        assert sum(s.safeguard_resets for s in res.restarts) == 5
        assert sum(firsts) == 1

    @pytest.mark.parametrize("tol", [PROJECTION_TOL, -1.0])
    @pytest.mark.parametrize("state", [werner_f(3, 0.5).mat, np.eye(9, dtype=complex) / 9])
    def test_degenerate_inputs(self, state, tol):
        # a feasible state, cold and warm; with a stop test no run passes,
        # the residuals of the maximally mixed state repeat at exactly 0, so
        # the Gram matrix is zero.  A LinAlgError or RuntimeWarning fails
        out, _, _, k = _dykstra(_Stack(state[None], tol), 3, 3, 30)
        assert k == (1 if tol > 0 else 30)
        assert np.abs(out - state).max() <= 1e-15
        # warm corrections from a projection of a point away from the state,
        # with an empty Anderson memory
        rng = np.random.default_rng(0)
        h = herm_part(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        s = _Stack((state + 0.1 * h)[None], PROJECTION_TOL)
        _dykstra(s, 3, 3, PROJECTION_ITERS)
        s.dG[:], s.gram[:], s.seen[:] = 0.0, 0.0, 0
        out, _, _, k = warm_dykstra(s, state, 3, 30, tol)
        assert k <= 30 and np.abs(out - state).max() <= 10 * PROJECTION_TOL


def values(gains, start=0.0):
    """The history of a restart with these gains, from ``start``."""
    h = [start]
    for g in gains:
        h.append(h[-1] + g)
    return h


class TestRace:
    """The race's reach and tail on hand-built histories."""

    @pytest.mark.parametrize("left", [0, 1, 10, 100, 2**53])
    def test_geometric_tail_is_the_closed_form(self, left):
        # gains 1e-2 * 0.9^k: both windows give r = 0.9, and the tail is
        # g1 r (1 - r^left)/(1 - r)
        gains = [1e-2 * 0.9**k for k in range(30)]
        h = values(gains)
        reach, tail = _race(h, left)
        want = gains[-1] * 0.9 * (1 - 0.9**left) / (1 - 0.9)
        assert abs(tail - want) <= 1e-15
        assert abs(reach - (h[-1] + want)) <= 1e-15

    def test_slower_window_sets_the_ratio(self):
        # gains shrink by 0.8 a step, then by 0.95 over the last 18: the
        # 10-step ratio is the slower one, and the reach keeps its longer tail
        gains = [1e-2 * 0.8**k for k in range(12)]
        gains += [gains[-1] * 0.95**k for k in range(1, 19)]
        h = values(gains)
        g = np.diff(h)
        r10, r20 = (g[-1] / g[-10]) ** (1 / 9), (g[-1] / g[-20]) ** (1 / 19)
        assert r20 < r10 == pytest.approx(0.95, abs=1e-12)
        reach, tail = _race(h, 100)
        assert tail == g[-1] * r10 * (1 - r10**100) / (1 - r10)
        assert tail > g[-1] * r20 * (1 - r20**100) / (1 - r20)
        assert reach == h[-1] + tail

    @pytest.mark.parametrize("last", [
        1e-3,  # as large as every gain before it
        2e-3,  # larger
        0.0,  # a stall
        -1e-3,  # a fall
    ])
    def test_non_decaying_last_gain_is_not_raced(self, last):
        h = values([1e-3] * 29 + [last], start=1.0)
        assert _race(h, 50) == (np.inf, 0.0)

    def test_one_window_not_decaying_is_not_raced(self):
        # the 20-step window decays, the 10-step one does not
        h = values([2e-3] * 10 + [1e-3] * 20)
        assert _race(h, 50) == (np.inf, 0.0)

    def test_ratio_rounding_to_one_is_not_raced(self):
        # g1/g_K = 1/(1 + 2^-52): both windows decay, but their roots round
        # to r = 1, where the geometric sum would divide by zero
        g1, gk = 2.0**-10, 2.0**-10 * (1 + 2.0**-52)
        h = [0.0] * 21
        h[-1], h[-10], h[-20] = g1, gk, gk
        assert 0 < g1 < gk and (g1 / gk) ** (1 / 19) == 1.0
        assert _race(h, 2**53) == (np.inf, 0.0)

    def test_short_history_is_not_raced(self):
        h = values([1e-2 * 0.5**k for k in range(RACE_WINDOW - 1)])
        assert len(h) == RACE_WINDOW
        assert _race(h, 10) == (np.inf, 0.0)
        # one gain more, and the same decay is raced
        assert _race(values([1e-2 * 0.5**k for k in range(RACE_WINDOW)]), 10)[0] < np.inf

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from([1.0, -1.0, 0.0]), st.floats(-12, -1)),
                    max_size=60),
           st.sampled_from([0, 1, 10, 1000, 2**53]))
    def test_reach_is_the_last_value_plus_the_tail(self, signed, left):
        # gains of any sign, 1e-12 to 1e-1 in size: a restart is either not
        # raced or its reach is the last value plus a tail >= 0, so the race
        # never reaches below where a restart stands
        h = values([sign * 10.0**e for sign, e in signed], start=1.0)
        reach, tail = _race(h, left)
        assert reach >= h[-1]
        if (reach, tail) != (np.inf, 0.0):
            assert reach == h[-1] + tail
            assert tail > 0 or left == 0


def serial_restart(cfg, r):
    """Restart r of cfg run alone and unraced from the real part of its
    Wishart draw: yields (round, r, value, counts, state, stop reason or
    "") at each Y-step.  The round is its Dykstra iterations so far, the
    start projection included; counts are those iterations, its cap hits
    and its safeguard fallbacks.  Each outer step is the Y-step, then a
    gradient step whose Dykstra projection starts from the corrections and
    the Anderson memory of the projection before it and stops at
    PROJECTION_TOL_SHARE times the Y-step's gain, PROJECTION_TOL at least
    and on the first step; the start projection starts cold."""
    d, iters, tol = cfg.d, PROJECTION_ITERS, PROJECTION_TOL
    start = random_density_matrix(d, d, np.random.default_rng([cfg.seed, r])).mat.real
    s = _Stack(start[None], tol)
    x, _, _, k = warm_dykstra(s, start, d, iters, tol)
    counts, prev = (k, int(k == iters), int(s.resets[0])), -np.inf
    for n in range(1, cfg.max_outer + 1):
        val, y = _y_step(x, d, d)
        reason = "max_outer" if n == cfg.max_outer else ""
        if val - prev < OBJECTIVE_TOL:
            reason = "decreased" if val < prev else "converged"
        yield counts[0], r, float(val), counts, x, reason
        if reason:
            return
        if n > 1:
            tol = max(PROJECTION_TOL, PROJECTION_TOL_SHARE * (val - prev))
        prev = val
        x0 = _rho_step(x, realign_inverse(y, d, d), STEP)
        x, _, _, k = warm_dykstra(s, x0, d, iters, tol)
        counts = (counts[0] + k, counts[1] + int(k == iters), int(s.resets[0]))


def serial_optimize(cfg):
    """optimize as restarts run one at a time, merged in round order to
    replay the race: the bar of a round is the best value of the restarts
    that finished unretired in an earlier one, and the lead the best value
    any restart reached in an earlier one, so same-round values do not
    count.  A restart with more than 2 * RACE_WINDOW values is raced
    against the lead, a younger one against the bar.  Retiring a restart
    moves no other one, so a retired restart's run is closed and the others
    go on; each restart keeps its values and its best state only.  The
    final projection starts cold."""
    runs = [serial_restart(cfg, r) for r in range(cfg.restarts)]
    history, best = [[] for _ in runs], [(-np.inf, None)] * cfg.restarts
    stats, finished, reached = [None] * cfg.restarts, [], []
    for t, r, val, counts, x, reason in heapq.merge(*runs):
        h = history[r]
        h.append(val)
        if val > best[r][0]:
            best[r] = (val, x)
        bar = max((v for s, v in finished if s < t), default=-np.inf)
        lead = max((v for s, v in reached if s < t), default=-np.inf)
        reached.append((t, val))
        reach, tail = _race(h, cfg.max_outer - len(h))
        if reason:
            finished.append((t, best[r][0]))
        elif reach < (lead if len(h) > 2 * RACE_WINDOW else bar) - OBJECTIVE_TOL:
            reason = "dominated"
            runs[r].close()
        if reason:
            stats[r] = RestartStats(len(h), reason, *counts, val, tail)
    winner = max(range(cfg.restarts), key=lambda r: best[r][0])
    final, _, _, final_iters = _dykstra(_Stack(best[winner][1][None], FINAL_PROJECTION_TOL),
                                        cfg.d, cfg.d, PROJECTION_ITERS)
    state = DensityMatrix(final, cfg.d, cfg.d)
    return SeesawResult(best_state=state, best_value=ccnr_value(state),
                        history=tuple(history[winner]), ppt_residual=is_ppt(state)[1],
                        psd_residual=float(state.eigenvalues[0]),
                        best_restart=winner, restarts=tuple(stats),
                        final_projection_iters=final_iters)


class TestOptimize:
    @pytest.mark.parametrize("kwargs, capped", [
        # nine converge in 35 to 53 steps, and the race retires the other
        # five after 21 to 54, each in a round of its own
        ({"d": 2, "seed": 186, "restarts": 14, "max_outer": 300}, 0),
        # restarts 0 and 1 run to max_outer, the race retires 2 after 34 steps
        ({"d": 3, "seed": 3, "restarts": 3, "max_outer": 40}, 2),
        # restart 0 runs on to max_outer, and the race retires 1 and 2 against
        # the lead after 41 steps: no restart finished before them
        ({"d": 3, "seed": 3, "restarts": 3, "max_outer": 150}, 1),
        # a stack of one; it would converge in 29 steps
        ({"d": 4, "seed": 1, "restarts": 1, "max_outer": 20}, 1),
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
    # restart 0 converges in round 65, in which restart 1's reach falls
    # below restart 0's value; no restart finished unretired before, so
    # the bar is still -inf: the bar rises only from the next round, and
    # restart 1 runs on until the race retires it in round 67
    @example(2, 2, 43, 4155205588)
    # no restart finishes before round 126, where the lead retires restart 1
    # after 41 steps, so every run of the property takes the lead's branch
    @example(3, 3, 150, 3)
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

    @pytest.mark.parametrize("kwargs", [
        # both restarts run to max_outer; a rule that took the 20-step ratio
        # alone retired the winner, restart 1, after 23 steps, and the best
        # fell by 8.6e-6
        {"d": 3, "seed": 3963222201, "restarts": 2, "max_outer": 26},
        # the winner, restart 2, ends 3.8e-3 above restart 1; that rule
        # retired it after 27 steps
        {"d": 3, "seed": 4045701146, "restarts": 3, "max_outer": 37},
        # unraced, all three restarts run to max_outer, and restart 1 wins
        # with 1.1890771029293559 in 265 rounds; its tail is not geometric
        # from step 33 to 54, so it runs on through those steps
        {"d": 3, "seed": 3751721184, "restarts": 3, "max_outer": 87},
    ])
    def test_race_keeps_the_unraced_winner(self, monkeypatch, kwargs):
        # the slower of the two ratios keeps the winner of the unraced run,
        # and a restart without a geometric tail runs on
        cfg = SeesawConfig(**kwargs)
        raced = optimize(cfg)
        monkeypatch.setattr(seesaw, "RACE_WINDOW", 10**9)
        unraced = optimize(cfg)
        assert "dominated" not in [s.stop_reason for s in unraced.restarts]
        assert raced.best_restart == unraced.best_restart
        assert raced.best_value == unraced.best_value
        assert raced.best_state.mat.tobytes() == unraced.best_state.mat.tobytes()
        assert raced.history == unraced.history

    def test_settled_tail_races_the_lead(self, monkeypatch):
        # restart 0 runs to max_outer, so no restart finishes before the
        # others would stop against the bar alone: restart 1 would converge
        # after 112 steps and 2 be retired after 107.  The lead retires both
        # as soon as their tails have settled, with 2 * RACE_WINDOW + 1 values
        cfg = SeesawConfig(d=3, seed=3, restarts=3, max_outer=150)
        raced = optimize(cfg)
        assert [(s.stop_reason, s.outer_steps) for s in raced.restarts] == [
            ("max_outer", 150), ("dominated", 2 * RACE_WINDOW + 1),
            ("dominated", 2 * RACE_WINDOW + 1)]
        # retiring them moves nothing of the winner's run
        monkeypatch.setattr(seesaw, "RACE_WINDOW", 10**9)
        unraced = optimize(cfg)
        assert "dominated" not in [s.stop_reason for s in unraced.restarts]
        assert raced.best_restart == unraced.best_restart == 0
        assert raced.best_value == unraced.best_value
        assert raced.best_state.mat.tobytes() == unraced.best_state.mat.tobytes()
        assert raced.history == unraced.history

    def test_benchmark_d4_instance_takes_few_steps(self):
        # the seesaw-d4 benchmark call; counts, not seconds, so any host
        # gives them
        res = optimize(SeesawConfig(d=4, seed=1, restarts=2))
        stats = res.restarts
        reasons = [s.stop_reason for s in stats]
        # both restarts converge, so the race retires neither
        assert "max_outer" not in reasons and "dominated" not in reasons, stats
        assert sum(s.outer_steps for s in stats) <= 100, stats
        # projections that stop at a share of the last gain and carry their
        # Anderson memory take 409 iterations and none caps
        assert sum(s.dykstra_iters for s in stats) <= 1000, stats
        assert sum(s.cap_hits for s in stats) == 0, stats
        # and the call is pinned bit for bit, as the d=3 call is in the slow lane
        assert res.best_restart == 1
        assert res.best_value == float.fromhex("0x1.7ffffffbc2fdbp+0")
        assert hashlib.sha256(json.dumps(res.to_dict(), sort_keys=True).encode()).hexdigest() == (
            "f53cbcdebd763e987a3ca96592cc03b67e7787edee118d93bbcc5058c34c1354")

    @pytest.mark.slow
    def test_benchmark_d3_instance_races(self):
        # the seesaw-d3 benchmark call.  A round is one stacked Dykstra
        # iteration, so the last round is the largest Dykstra count of any
        # restart.  With ANDERSON_MEMORY = 8 columns no restart's tail splits
        # off: no restart averages more than 3.3 Dykstra iterations per
        # step.  With 5 columns restart 9 averaged 8.9 and alone set the
        # call's last 370 of 1,088 rounds.  The race retires 18 against the
        # lead after 41 steps each; restart 9 converges last, in round 466,
        # 1.2e-9 below the winner, restart 19
        res = optimize(SeesawConfig(d=3, seed=1, restarts=20))
        stats = res.restarts
        assert "max_outer" not in [s.stop_reason for s in stats], stats
        assert max((s.dykstra_iters, r) for r, s in enumerate(stats)) == (466, 9), stats
        assert sum(s.dykstra_iters for s in stats) == 3341, stats
        assert [r for r, s in enumerate(stats) if s.dykstra_iters > 4 * s.outer_steps] == [], stats
        assert stats[9].stop_reason == "converged"
        assert [s.stop_reason for s in stats].count("dominated") == 18, stats
        assert res.best_restart == 19
        assert res.best_value == float.fromhex("0x1.3067691dee214p+0")

    def test_no_restart_tail_splits_off(self):
        # d=3 seed 3, the case of test_batched_run_equals_serial_reference
        # with max_outer 150: with 5 Anderson columns restart 0 spent 1,258
        # Dykstra iterations on its 150 steps and ran alone from round 452;
        # with ANDERSON_MEMORY it spends 405
        stats = optimize(SeesawConfig(d=3, seed=3, restarts=3, max_outer=150)).restarts
        assert [r for r, s in enumerate(stats) if s.dykstra_iters > 4 * s.outer_steps] == [], stats
        assert max(s.dykstra_iters for s in stats) == 405, stats

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
        # at d=3 restart 3 caps each of its 3 projections at 4 iterations
        # and falls back once; the lead retires restarts 0 and 1 after 41 steps
        (4, {"d": 3, "seed": 98, "max_outer": 60},
         ["dominated", "dominated", "max_outer", "decreased"]),
        # at d=2 restart 0 caps each of its 5 projections at 3 iterations
        (3, {"d": 2, "seed": 130, "max_outer": 50},
         ["decreased", "dominated", "converged", "dominated"]),
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
            # a fallback rejects the image of an extrapolated point and clears
            # the memory, and the first image after a clear writes no column:
            # the next fallback is three images on at the earliest
            assert 3 * s.safeguard_resets <= s.dykstra_iters
        assert any(s.cap_hits == s.outer_steps for s in stats)
        assert 0 < sum(s.cap_hits for s in stats) < sum(s.outer_steps for s in stats)
        assert stats[res.best_restart].outer_steps == len(res.history)

    def test_share_zero_is_the_fixed_tolerance(self, monkeypatch):
        # with no share every projection stops at PROJECTION_TOL: the digests
        # of that see-saw's state and report, with the Anderson memory carried
        # across its warm projections, are pinned here
        cfg = SeesawConfig(d=2, seed=2, restarts=4, max_outer=100)
        monkeypatch.setattr(seesaw, "PROJECTION_TOL_SHARE", 0.0)
        res = optimize(cfg)
        assert [(s.stop_reason, s.dykstra_iters) for s in res.restarts] == [
            ("converged", 71), ("dominated", 72), ("converged", 105), ("dominated", 98)]
        assert hashlib.sha256(res.best_state.mat.tobytes()).hexdigest() == (
            "85a6f751f460f054b31b7eaf07671225acb6d1666cfdb625d92f691f614062af")
        assert hashlib.sha256(json.dumps(res.to_dict(), sort_keys=True).encode()).hexdigest() == (
            "362f3a2e18fba586c6bf0822380ee75621e339e5e993c9004fb3bf200da97ffe")
        # the share moves the run: its projections stop earlier
        monkeypatch.undo()
        assert sum(s.dykstra_iters for s in optimize(cfg).restarts) < 71 + 72 + 105 + 98

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
        # max_outer enters the race's float arithmetic, so it stops at the
        # largest count a float holds exactly
        assert SeesawConfig(d=3, seed=0, max_outer=2**53).max_outer == 2**53
        for big in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="max_outer must lie in"):
                SeesawConfig(d=3, seed=0, max_outer=big)
        # the largest array, an (restarts, ANDERSON_MEMORY, 2 d^4) Anderson
        # buffer, is bounded before allocation
        per_restart = 2 * ANDERSON_MEMORY * 16**4
        assert SeesawConfig(d=16, seed=0, restarts=MAX_STACK_ENTRIES // per_restart).restarts == 4
        with pytest.raises(ValueError, match="restarts"):
            SeesawConfig(d=16, seed=0, restarts=5)
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
