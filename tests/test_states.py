import numpy as np
import pytest

from beqpt.bipartite import (
    BipartiteOperator,
    haar_unitary,
    max_entangled,
    operator_schmidt_rank,
    realign,
    singular_values,
    swap_operator,
)
from beqpt.diagnostics import ccnr_value, is_ppt
from beqpt.states import (
    RHO_CCNR_3X3_SPECTRUM,
    RHO_CCNR_3X3_TRACE_NORM,
    bell_ket,
    bell_state,
    cariello_gamma,
    filtered_werner_closed_form,
    isotropic,
    max_entangled_state,
    random_density_matrix,
    rho_ccnr,
    rho_ccnr_3x3,
    werner_f,
    werner_v,
)


class TestBellStates:
    def test_phi_plus_projector(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(bell_state("phi+").mat, np.outer(v, v))

    def test_mutually_orthogonal(self):
        kets = [bell_ket(w) for w in ("phi+", "phi-", "psi+", "psi-")]
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.allclose(gram, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("which", ("phi+", "phi-", "psi+", "psi-"))
    def test_trace_and_purity(self, which):
        rho = bell_state(which)
        assert rho.mat.trace().real == pytest.approx(1.0)
        assert np.vdot(rho.mat, rho.mat).real == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bell_ket("sigma+")


class TestWerner:
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_f_recovered_by_trace(self, d):
        f_op = swap_operator(d).mat
        for f in np.linspace(-1, 1, 9):
            rho = werner_f(d, float(f))
            # oracle: direct trace against the swap operator
            assert np.trace(f_op @ rho.mat).real == pytest.approx(f, abs=1e-12)

    def test_v_matches_f_parametrization(self):
        for d in (3, 4):
            for v in (0.0, 0.25, 0.5, 0.75, 1.0):
                rv = werner_v(d, v)
                f = np.trace(swap_operator(d).mat @ rv.mat).real
                assert f == pytest.approx(2 * v - 1, abs=1e-12)
                assert np.abs(rv.mat - werner_f(d, 2 * v - 1).mat).max() <= 1e-12

    def test_purity_at_maximally_entangled_point(self):
        for d in (3, 4, 5):
            purity = np.vdot(werner_f(d, -1.0).mat, werner_f(d, -1.0).mat).real
            assert purity == pytest.approx(2.0 / (d * (d - 1)), abs=1e-12)

    def test_d4_v0_trace_norm(self):
        assert ccnr_value(werner_v(4, 0.0)) == pytest.approx(1.5, abs=1e-10)

    def test_kink_point_is_maximally_mixed(self):
        d = 3
        rho = werner_f(d, 1.0 / d)
        assert np.allclose(rho.mat, np.eye(d * d) / d**2)
        assert ccnr_value(rho) == pytest.approx(1.0 / d, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            werner_f(3, 1.5)
        with pytest.raises(ValueError):
            werner_v(3, -0.1)
        with pytest.raises(ValueError):
            werner_f(1, 0.0)

    def test_uu_twirl_invariance(self, rng):
        d = 3
        rho = werner_f(d, 0.4)
        u = haar_unitary(d, rng)
        big = np.kron(u, u)
        assert np.abs(big @ rho.mat @ big.conj().T - rho.mat).max() <= 1e-10


class TestIsotropic:
    def test_alpha_one_is_max_entangled(self):
        assert np.allclose(isotropic(3, 1.0).mat, max_entangled_state(3).mat)

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_boundary_trace_norm_is_one(self, d):
        assert ccnr_value(isotropic(d, 1.0 / (d + 1))) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_purity(self):
        for d in (3, 4):
            rho = isotropic(d, 1.0 / (d + 1))
            assert np.vdot(rho.mat, rho.mat).real == pytest.approx(2.0 / (d * (d + 1)), abs=1e-12)
        assert np.vdot(isotropic(4, 0.2).mat, isotropic(4, 0.2).mat).real == pytest.approx(0.1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            isotropic(3, 1.01)
        with pytest.raises(ValueError):
            isotropic(3, -0.2)

    def test_uustar_twirl_invariance(self, rng):
        d = 3
        rho = isotropic(d, 0.35)
        u = haar_unitary(d, rng)
        big = np.kron(u, u.conj())
        assert np.abs(big @ rho.mat @ big.conj().T - rho.mat).max() <= 1e-10


class TestGammaFamily:
    def test_realignment_decomposition(self):
        # realign(gamma) = |u><u| + F + eps * realign(|v><v|) by linearity
        # and the three fixed points
        k, eps = 4, 0.3
        raw = cariello_gamma(k, 2, eps).mat * (k * k + k + eps * 2)
        u = max_entangled(k)
        e = np.eye(k)
        v = np.kron(e[0], e[1]) + np.kron(e[2], e[3])
        vv = np.outer(v, v)
        expected = (
            np.outer(u, u.conj())
            + swap_operator(k).mat
            + eps * realign(BipartiteOperator(vv, k, k))
        )
        assert np.abs(realign(BipartiteOperator(raw, k, k)) - expected).max() <= 1e-12

    def test_symmetric_antisymmetric_oracle(self):
        # |u><u| + F has eigenvalues k+1 (on u), +1 (rest of the symmetric
        # subspace), -1 (antisymmetric subspace): singular values
        # {k+1} + {1 x (k^2-1)}
        k = 4
        u = max_entangled(k)
        m = np.outer(u, u.conj()) + swap_operator(k).mat
        s = np.sort(singular_values(m))[::-1]
        expected = np.array([k + 1.0] + [1.0] * (k * k - 1))
        assert np.allclose(s, expected, atol=1e-12)

    @pytest.mark.parametrize("k", (4, 5, 6))
    def test_small_eps_trace_norm_limit(self, k):
        # by the oracle above, || realign(gamma) ||_1 -> (k^2+k)/(k^2+k) = 1
        rho = cariello_gamma(k, 2, 1e-8)
        assert ccnr_value(rho) == pytest.approx(1.0, abs=1e-6)

    def test_ppt_and_faithful(self):
        rho = cariello_gamma(4, 2, 0.1)
        min_eig = is_ppt(rho)[1]
        assert min_eig >= -1e-10
        s = singular_values(realign(rho))
        assert s[-1] / s[0] > 1e-8

    def test_raw_operator_trace(self):
        # the state times its trace k^2 + k + eps n is Id + F + eps |v><v|
        # with |v> = |0>|1> + |2>|3>
        k, n, eps = 4, 2, 0.5
        raw = cariello_gamma(k, n, eps).mat * (k * k + k + eps * n)
        e = np.eye(k)
        v = np.kron(e[0], e[1]) + np.kron(e[2], e[3])
        expected = np.eye(k * k) + swap_operator(k).mat + eps * np.outer(v, v)
        assert np.abs(raw - expected).max() <= 1e-12
        assert raw.trace().real == pytest.approx(k * k + k + eps * n)

    @pytest.mark.parametrize("k", (4, 5, 6))
    def test_ppt_exactly_up_to_eps_one(self, k):
        assert is_ppt(cariello_gamma(k, 2, 1.0))[0]
        assert not is_ppt(cariello_gamma(k, 2, 1.0 + 1e-6))[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            cariello_gamma(4, 0, 0.1)
        with pytest.raises(ValueError, match="2n <= k"):
            cariello_gamma(3, 2, 0.1)
        with pytest.raises(ValueError, match="positive"):
            cariello_gamma(4, 2, 0.0)
        for eps in (float("nan"), float("inf"), 1e308):  # 1e308 * n overflows
            with pytest.raises(ValueError, match="not finite"):
                cariello_gamma(4, 2, eps)


class TestRhoCcnr:
    def test_published_spectrum(self):
        s = np.sort(singular_values(realign(rho_ccnr())))[::-1]
        expected = np.array([1 / 4] + [1 / 12] * 15)
        assert np.abs(s - expected).max() <= 1e-10

    def test_trace_norm_ppt_purity(self):
        rho = rho_ccnr()
        assert ccnr_value(rho) == pytest.approx(1.5, abs=1e-10)
        assert is_ppt(rho)[1] >= -1e-10
        assert np.vdot(rho.mat, rho.mat).real == pytest.approx(1 / 6, abs=1e-10)


class TestRhoCcnr3x3:
    def test_published_values(self):
        rho = rho_ccnr_3x3()
        s = np.sort(singular_values(realign(rho)))[::-1]
        assert np.abs(s - np.array(RHO_CCNR_3X3_SPECTRUM)).max() <= 5e-4
        assert abs(ccnr_value(rho) - RHO_CCNR_3X3_TRACE_NORM) <= 5e-4

    def test_ppt_within_rounding(self):
        rho = rho_ccnr_3x3()
        assert is_ppt(rho)[1] >= -1e-4

    def test_faithful(self):
        s = singular_values(realign(rho_ccnr_3x3()))
        assert s[-1] / s[0] > 1e-3  # comfortably full rank


class TestFilteredWernerClosedForm:
    def test_v0_is_embedded_bell_with_trace_norm_two(self):
        # derived: the embedded Bell pair realigns to a rank-4 block with
        # all singular values 1/2, so the trace norm is 2
        rho = filtered_werner_closed_form(4, 0.0)
        s = np.sort(singular_values(realign(rho)))[::-1]
        assert np.allclose(s[:4], 0.5, atol=1e-12)
        assert np.allclose(s[4:], 0.0, atol=1e-14)
        assert ccnr_value(rho) == pytest.approx(2.0, abs=1e-12)

    def test_rank_deficient_for_d4(self):
        rho = filtered_werner_closed_form(4, 0.5)
        assert operator_schmidt_rank(rho) <= 16
        assert operator_schmidt_rank(rho) < 16  # hence not faithful

    def test_validation(self):
        with pytest.raises(ValueError):
            filtered_werner_closed_form(2, 0.5)
        with pytest.raises(ValueError):
            filtered_werner_closed_form(4, 1.5)


class TestRandomDensityMatrix:
    def test_deterministic_and_valid(self):
        a = random_density_matrix(3, 2, np.random.default_rng(5))
        b = random_density_matrix(3, 2, np.random.default_rng(5))
        assert np.array_equal(a.mat, b.mat)

    def test_rank_control(self):
        rho = random_density_matrix(2, 2, np.random.default_rng(0), rank=2)
        evals = np.linalg.eigvalsh(rho.mat)
        assert int(np.count_nonzero(evals > 1e-12)) == 2
        with pytest.raises(ValueError):
            random_density_matrix(2, 2, np.random.default_rng(0), rank=5)
