import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beqpt.bipartite import (
    PINV_RCOND,
    BipartiteOperator,
    DensityMatrix,
    check_realign,
    max_entangled,
    operator_schmidt_rank,
    partial_trace,
    partial_transpose,
    realign,
    realign_inverse,
    singular_values,
    swap_operator,
    tensor,
    trace_norm,
    vec,
)
from beqpt.states import max_entangled_state, random_density_matrix

from conftest import random_product_state


def rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # row 0*2+1, col 0*2+1
        assert np.array_equal(out, expected)

    def test_entry_oracle(self, rng):
        a = rand_c(rng, (3, 3))
        b = rand_c(rng, (3, 3))
        out = tensor(a, b)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert out[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])


class TestSwap:
    def test_k2_exchanges_01_10(self):
        f = swap_operator(2).mat
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(f, expected)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_trace_counts_diagonal(self, k):
        # oracle: F[(i,j),(i,j)] = 1 iff i == j, so the trace counts them
        assert swap_operator(k).mat.trace() == pytest.approx(k)

    def test_swaps_product_kets(self, rng):
        k = 4
        f = swap_operator(k).mat
        a = rand_c(rng, k)
        b = rand_c(rng, k)
        assert np.allclose(f @ np.kron(a, b), np.kron(b, a))

    def test_involution_and_hermitian(self):
        f = swap_operator(3).mat
        assert np.allclose(f @ f, np.eye(9))
        assert np.allclose(f, f.conj().T)


class TestMaxEntangled:
    def test_k2_unnormalized(self):
        assert np.array_equal(max_entangled(2), np.array([1, 0, 0, 1], dtype=complex))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_norms(self, k):
        u = max_entangled(k)
        assert np.vdot(u, u).real == pytest.approx(k)
        phi = max_entangled(k, normalized=True)
        assert np.vdot(phi, phi).real == pytest.approx(1.0)


class TestRealign:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_fixed_points(self, k):
        ident = BipartiteOperator(np.eye(k * k), k, k)
        f = swap_operator(k)
        u = max_entangled(k)
        uu = BipartiteOperator(np.outer(u, u.conj()), k, k)
        assert np.abs(realign(ident) - np.outer(u, u.conj())).max() <= 1e-12
        assert np.abs(realign(f) - f.mat).max() <= 1e-12
        assert np.abs(realign(uu) - np.eye(k * k)).max() <= 1e-12

    def test_entry_position_oracle(self, rng):
        dA, dB = 2, 3
        mat = rand_c(rng, (6, 6))
        r = realign(BipartiteOperator(mat, dA, dB))
        assert r.shape == (dA * dA, dB * dB)
        for i in range(dA):
            for j in range(dA):
                for k in range(dB):
                    for l in range(dB):
                        # rho_{ij,kl} sits at row (i,k), col (j,l) of the matrix
                        assert r[i * dA + j, k * dB + l] == mat[i * dB + k, j * dB + l]

    def test_product_factorizes_to_vec_outer(self, rng):
        a = rand_c(rng, (3, 3))
        b = rand_c(rng, (4, 4))
        r = realign(BipartiteOperator(np.kron(a, b), 3, 4))
        assert np.allclose(r, np.outer(vec(a), vec(b)))

    def test_frobenius_isometry(self, rng):
        op = BipartiteOperator(rand_c(rng, (12, 12)), 3, 4)
        assert abs(np.linalg.norm(realign(op)) - np.linalg.norm(op.mat)) <= 1e-12

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_hilbert_schmidt_isometry(self, dA, dB, seed):
        rng = np.random.default_rng(seed)
        n = dA * dB
        x = BipartiteOperator(rand_c(rng, (n, n)), dA, dB)
        y = BipartiteOperator(rand_c(rng, (n, n)), dA, dB)
        inner = np.vdot(x.mat, y.mat)
        assert abs(np.vdot(realign(x), realign(y)) - inner) <= 1e-12 * max(1.0, abs(inner))
        assert np.linalg.norm(realign(x)) == pytest.approx(np.linalg.norm(x.mat), rel=1e-14)

    def test_inverse_roundtrip(self, rng):
        for dA, dB in ((2, 2), (2, 3), (4, 3)):
            op = BipartiteOperator(rand_c(rng, (dA * dB, dA * dB)), dA, dB)
            back = realign_inverse(realign(op), dA, dB)
            assert np.allclose(back.mat, op.mat, atol=1e-14)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_inverse_on_fixed_points(self, k):
        u = max_entangled(k)
        uu = np.outer(u, u.conj())
        f = swap_operator(k).mat
        assert np.allclose(realign_inverse(uu, k, k).mat, np.eye(k * k))
        assert np.allclose(realign_inverse(f, k, k).mat, f)

    def test_inverse_shape_mismatch(self):
        with pytest.raises(ValueError):
            realign_inverse(np.zeros((4, 4)), 2, 3)


class TestCheckRealign:
    def test_matches_realign_spectrum(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density_matrix(d, d, rng)
            s1 = singular_values(realign(rho))
            s2 = singular_values(check_realign(rho))
            assert np.abs(s1 - s2).max() <= 1e-10

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_max_entangled_flat_spectrum(self, d):
        s = singular_values(check_realign(max_entangled_state(d)))
        assert np.allclose(s, np.full(d * d, 1.0 / d), atol=1e-12)

    def test_product_state_rank_one(self, rng):
        rho = random_product_state(3, 3, rng)
        s = singular_values(check_realign(rho))
        assert int(np.count_nonzero(s > 1e-12)) == 1

    def test_requires_square_bipartition(self, rng):
        with pytest.raises(ValueError):
            check_realign(random_density_matrix(2, 3, rng))


class TestPartialTranspose:
    def test_diagonal_fixed(self):
        d = np.diag([0.5, 0.2, 0.2, 0.1])
        op = BipartiteOperator(d, 2, 2)
        assert np.array_equal(partial_transpose(op, "B").mat, d)
        assert np.array_equal(partial_transpose(op, "A").mat, d)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_max_entangled_gives_swap(self, d):
        # oracle: (|Phi+><Phi+|)^{T_B} entry ((i,k),(j,l)) = delta_il delta_jk / d
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                expected[i * d + j, j * d + i] = 1.0 / d
        got = partial_transpose(max_entangled_state(d), "B").mat
        assert np.allclose(got, expected, atol=1e-14)
        assert np.allclose(got, swap_operator(d).mat / d)

    def test_involution(self, rng):
        op = BipartiteOperator(rand_c(rng, (6, 6)), 2, 3)
        for sub in ("A", "B"):
            assert np.array_equal(partial_transpose(partial_transpose(op, sub), sub).mat, op.mat)

    def test_both_sides_give_global_transpose(self, rng):
        op = BipartiteOperator(rand_c(rng, (6, 6)), 2, 3)
        both = partial_transpose(partial_transpose(op, "A"), "B").mat
        assert np.array_equal(both, op.mat.T)


class TestPartialTrace:
    def test_product(self, rng):
        a = rand_c(rng, (2, 2))
        b = rand_c(rng, (3, 3))
        op = BipartiteOperator(np.kron(a, b), 2, 3)
        assert np.allclose(partial_trace(op, "B"), a * np.trace(b))
        assert np.allclose(partial_trace(op, "A"), b * np.trace(a))

    def test_max_entangled_marginal(self):
        d = 3
        assert np.allclose(partial_trace(max_entangled_state(d), "B"), np.eye(d) / d)

    def test_double_sum_oracle(self, rng):
        dA, dB = 3, 2
        op = BipartiteOperator(rand_c(rng, (6, 6)), dA, dB)
        tb = np.zeros((dA, dA), dtype=complex)
        for i in range(dA):
            for j in range(dA):
                tb[i, j] = sum(op.mat[i * dB + k, j * dB + k] for k in range(dB))
        ta = np.zeros((dB, dB), dtype=complex)
        for k in range(dB):
            for l in range(dB):
                ta[k, l] = sum(op.mat[i * dB + k, i * dB + l] for i in range(dA))
        assert np.allclose(partial_trace(op, "B"), tb)
        assert np.allclose(partial_trace(op, "A"), ta)
        assert np.trace(ta) == pytest.approx(np.trace(op.mat))


class TestSpectraAndNorms:
    def test_identity_singular_values(self):
        assert np.allclose(singular_values(np.eye(5)), np.ones(5))

    def test_frobenius_identity(self, rng):
        m = rand_c(rng, (4, 6))
        s = singular_values(m)
        assert (s[:-1] >= s[1:]).all()
        # oracle: entrywise absolute-square sum
        assert (s**2).sum() == pytest.approx((np.abs(m) ** 2).sum())

    def test_trace_norm_vs_hermitian_eig_oracle(self, rng):
        m = rand_c(rng, (5, 5))
        w = np.linalg.eigvalsh(m @ m.conj().T)
        oracle = np.sqrt(np.clip(w, 0.0, None)).sum()
        assert trace_norm(m) == pytest.approx(oracle, abs=1e-10)


class TestOperatorSchmidtRank:
    def test_product_is_one(self, rng):
        assert operator_schmidt_rank(random_product_state(3, 3, rng)) == 1

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_max_entangled_is_full(self, d):
        assert operator_schmidt_rank(max_entangled_state(d)) == d * d

    def test_zero_operator(self):
        assert operator_schmidt_rank(BipartiteOperator(np.zeros((4, 4)), 2, 2)) == 0



class TestTypes:
    def test_operator_shape_mismatch(self):
        with pytest.raises(ValueError):
            BipartiteOperator(np.eye(5), 2, 2)

    def test_operator_rejects_nonfinite(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            BipartiteOperator(m, 2, 2)

    def test_density_matrix_validation(self):
        m = np.eye(4) / 4
        DensityMatrix(m, 2, 2)  # fine
        bad_herm = m.astype(complex).copy()
        bad_herm[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad_herm, 2, 2)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2, 2, 2)
        neg = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(neg, 2, 2)

    def test_density_matrix_relaxed_tolerance(self):
        slightly_neg = np.diag([0.6, 0.4 + 1e-5, -1e-5, 0.0])
        with pytest.raises(ValueError):
            DensityMatrix(slightly_neg, 2, 2)
        DensityMatrix(slightly_neg, 2, 2, psd_tol=1e-4)

    def test_mat_is_readonly(self, rng):
        rho = random_density_matrix(2, 2, rng)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_keeps_validation_spectrum(self, rng):
        rho = random_density_matrix(3, 2, rng)
        expected = np.linalg.eigvalsh((rho.mat + rho.mat.conj().T) / 2)
        assert np.array_equal(rho.eigenvalues, expected)
        assert not rho.eigenvalues.flags.writeable
        assert "eigenvalues" not in repr(rho)
        assert [f.name for f in dataclasses.fields(rho) if f.compare] == ["mat", "dA", "dB"]

    def test_realigned_spectrum_is_computed_once(self, rng):
        rho = random_density_matrix(3, 2, rng)
        s = rho.realigned_spectrum
        assert rho.realigned_spectrum is s
        assert np.array_equal(s, singular_values(realign(rho)))
        assert "realigned_spectrum" not in repr(rho)

    def test_realigned_spectrum_is_read_only(self, rng):
        s = random_density_matrix(2, 2, rng).realigned_spectrum
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0.0

    def test_realigned_pinv_is_computed_once(self, rng):
        rho = random_density_matrix(3, 2, rng)
        m = rho.realigned_pinv
        assert rho.realigned_pinv is m and not m.flags.writeable
        # the call it replaces, so a reconstruction keeps its bits
        assert m.tobytes() == np.linalg.pinv(realign(rho), rcond=PINV_RCOND).tobytes()
        assert "realigned_pinv" not in repr(rho)


def test_purity_identity_on_random_states(rng):
    for _ in range(25):
        dA = int(rng.integers(2, 5))
        dB = int(rng.integers(2, 5))
        rho = random_density_matrix(dA, dB, rng)
        purity = np.vdot(rho.mat, rho.mat).real
        s2 = (singular_values(realign(rho)) ** 2).sum()
        assert abs(purity - s2) <= 1e-10
