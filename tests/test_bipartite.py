import argparse
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beqpt import acceptance, cli
from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    check_realign,
    haar_unitary,
    max_entangled,
    operator_schmidt_rank,
    partial_trace,
    partial_transpose,
    realign,
    realign_inverse,
    singular_values,
    swap_operator,
    tensor,
    _kron,
)
from beqpt.channels import (
    ChoiMatrix,
    KrausChannel,
    dephasing,
    depolarizing,
    identity_channel,
    random_cptp,
)
from beqpt.diagnostics import analytic_ccnr, ccnr_value, is_ppt, rudolph_checks
from beqpt.filtering import FilterPair, identity_filters, werner_filters
from beqpt.reports import parse_matrix_file
from beqpt.seesaw import SeesawConfig
from beqpt.states import (
    bell_state,
    cariello_gamma,
    filtered_werner_closed_form,
    isotropic,
    max_entangled_state,
    random_density_matrix,
    rho_ccnr,
    werner_f,
    werner_v,
)
from beqpt.tomography import run_aaqpt, superop_to_choi

from conftest import random_product_state


def rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKronConvention:
    """``bipartite._kron`` is the tensor product everywhere in the package,
    and it is numpy's kron byte for byte; these pin the composite ordering,
    |i>|k> -> i*dB + k, on numpy's kron."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = np.kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # row 0*2+1, col 0*2+1
        assert np.array_equal(out, expected)

    @given(st.data())
    def test_private_product_is_numpy_kron(self, data):
        # the broadcast product numpy's kron forms, so the bytes are equal
        def draw_matrix():
            shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
            if data.draw(st.booleans()):  # square
                shape = (shape[0], shape[0])
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            m = rng.standard_normal(shape)
            return m + 1j * rng.standard_normal(shape) if data.draw(st.booleans()) else m

        a, b = draw_matrix(), draw_matrix()
        out = _kron(a, b)
        ref = np.kron(a, b)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_package_calls_no_numpy_kron(self, monkeypatch, tmp_path):
        # every tensor product of the package is _kron, numpy's kron none
        def kron(a, b):
            raise AssertionError("numpy's kron was called")

        monkeypatch.setattr(np, "kron", kron)
        out = str(tmp_path / "out.json")
        for argv in (
            ["diagnose", "--state", "werner", "--d", "3", "--f", "-1",
             "--rudolph-trials", "3", "--seed", "7"],
            ["reconstruct", "--probe", "rho-ccnr", "--channel", "depolarizing",
             "--channel-d", "4", "--p", "0.3", "--noise", "1e-4", "--seed", "1"],
            ["filter", "--state", "werner", "--d", "4", "--v", "0", "--filter", "werner"],
        ):
            assert cli.main(argv + ["--out", out]) == 0, argv
        rows = [fn for fn in acceptance.ROWS if fn is not acceptance.row_seesaw]
        assert len(rows) == 10
        for fn in rows:
            assert fn().passed, fn.__name__

    def test_entry_oracle(self, rng):
        a = rand_c(rng, (3, 3))
        b = rand_c(rng, (3, 3))
        out = np.kron(a, b)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert out[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])


@st.composite
def tensor_pairs(draw):
    """Two Wishart states rho on dA|dB and sigma on a|b with dA*a and dB*b
    at most 16, so their tensor product is at most 256 x 256."""
    dA, dB = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a, b = draw(st.integers(1, 16 // dA)), draw(st.integers(1, 16 // dB))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(random_density_matrix(x, y, rng, rank=draw(st.integers(1, x * y)))
                 for x, y in ((dA, dB), (a, b)))


def pt(rho):
    return BipartiteOperator(partial_transpose(rho.mat, rho.dA, rho.dB), rho.dA, rho.dB)


class TestTensor:
    """``tensor`` is the one regrouping rule: rho_AB kron sigma_A'B' on
    (AA')|(BB').  Its partial transpose is the product of the partial
    transposes, so products of PPT states are PPT, and its realigned
    spectrum is the product of the factors' spectra, so CCNR multiplies."""

    def assert_laws(self, rho, sigma):
        out = tensor(rho, sigma)
        assert (out.dA, out.dB) == (rho.dA * sigma.dA, rho.dB * sigma.dB)
        assert np.array_equal(partial_transpose(out.mat, out.dA, out.dB),
                              tensor(pt(rho), pt(sigma)).mat)
        s = out.realigned_spectrum
        products = np.sort(np.outer(rho.realigned_spectrum, sigma.realigned_spectrum), axis=None)
        ref = np.zeros_like(s)
        ref[:products.size] = products[::-1][:s.size]
        assert np.abs(s - ref).max() <= 1e-12
        assert abs(ccnr_value(out) - ccnr_value(rho) * ccnr_value(sigma)) <= 1e-12
        return out

    @given(tensor_pairs())
    def test_pt_and_spectrum_factor(self, pair):
        self.assert_laws(*pair)

    @given(tensor_pairs())
    def test_entries_are_numpy_kron_regrouped(self, pair):
        # the single products numpy's kron forms, each at its (AA')|(BB') index
        rho, sigma = pair
        out = tensor(rho, sigma)
        dims = (rho.dA, rho.dB, sigma.dA, sigma.dB)
        ref = np.kron(rho.mat, sigma.mat).reshape(dims + dims).transpose(0, 2, 1, 3, 4, 6, 5, 7)
        assert out.mat.tobytes() == ref.reshape(out.dim, out.dim).tobytes()

    def test_bound_entangled_product_stays_ppt(self):
        # rho_ccnr (CCNR 3/2) with the isotropic boundary state (CCNR 1), both PPT
        out = self.assert_laws(rho_ccnr(), isotropic(3, 0.25))
        assert out.dA == out.dB == 12
        assert is_ppt(out)[0]
        assert ccnr_value(out) == pytest.approx(1.5, abs=1e-12)


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
        assert np.allclose(r, np.outer(a.reshape(-1), b.reshape(-1)))

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
            assert np.allclose(back, op.mat, atol=1e-14)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_inverse_on_fixed_points(self, k):
        u = max_entangled(k)
        uu = np.outer(u, u.conj())
        f = swap_operator(k).mat
        assert np.allclose(realign_inverse(uu, k, k), np.eye(k * k))
        assert np.allclose(realign_inverse(f, k, k), f)

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


def transpose_a_oracle(m, dA, dB):
    # (rho^{T_A}) entry ((i,j),(k,l)) = rho entry ((k,j),(i,l))
    out = np.empty_like(m)
    for i in range(dA):
        for j in range(dB):
            for k in range(dA):
                for l in range(dB):
                    out[i * dB + j, k * dB + l] = m[k * dB + j, i * dB + l]
    return out


class TestPartialTranspose:
    def test_diagonal_fixed(self):
        d = np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex)
        assert np.array_equal(partial_transpose(d, 2, 2), d)
        assert np.array_equal(partial_transpose(d, 2, 2).T, d)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_max_entangled_gives_swap(self, d):
        # oracle: (|Phi+><Phi+|)^{T_B} entry ((i,k),(j,l)) = delta_il delta_jk / d
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                expected[i * d + j, j * d + i] = 1.0 / d
        got = partial_transpose(max_entangled_state(d).mat, d, d)
        assert np.allclose(got, expected, atol=1e-14)
        assert np.allclose(got, swap_operator(d).mat / d)

    def test_involution(self, rng):
        m = rand_c(rng, (6, 6))
        assert np.array_equal(partial_transpose(partial_transpose(m, 2, 3), 2, 3), m)
        t_a = partial_transpose(m, 2, 3).T
        assert np.array_equal(partial_transpose(t_a, 2, 3).T, m)

    def test_both_sides_give_global_transpose(self, rng):
        m = rand_c(rng, (6, 6))
        assert np.array_equal(partial_transpose(m, 2, 3).T, transpose_a_oracle(m, 2, 3))
        both = partial_transpose(transpose_a_oracle(m, 2, 3), 2, 3)
        assert np.array_equal(both, m.T)


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

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ValueError, match="subsystem"):
            partial_trace(max_entangled_state(2), "C")


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
        assert singular_values(m).sum() == pytest.approx(oracle, abs=1e-10)


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
        DensityMatrix(slightly_neg, 2, 2, slack=1e-4)

    def test_mat_is_readonly(self, rng):
        rho = random_density_matrix(2, 2, rng)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    @pytest.mark.parametrize("make, matrix, scale", [
        (lambda m: DensityMatrix(m, 2, 2), lambda r: r.mat, 0.25),
        (lambda m: KrausChannel((m,), 4), lambda r: r.kraus[0], 1.0),
        (lambda m: FilterPair(m, np.eye(2)), lambda r: r.A, 1.0),
    ], ids=["DensityMatrix", "KrausChannel", "FilterPair"])
    def test_validated_matrix_is_a_private_copy(self, make, matrix, scale):
        # a complex128 C-contiguous view is what a plain coercion would keep
        # and freeze; the record must copy it instead
        base = scale * np.eye(4, dtype=complex)
        view = base[:]
        record = make(view)
        kept = matrix(record).copy()
        assert view.flags.writeable and base.flags.writeable
        view[1, 1] = 0.5
        base[0, 3] = base[3, 0] = 5.0
        assert np.array_equal(matrix(record), kept)
        assert not matrix(record).flags.writeable

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


def test_purity_identity_on_random_states(rng):
    for _ in range(25):
        dA = int(rng.integers(2, 5))
        dB = int(rng.integers(2, 5))
        rho = random_density_matrix(dA, dB, rng)
        purity = np.vdot(rho.mat, rho.mat).real
        s2 = (singular_values(realign(rho)) ** 2).sum()
        assert abs(purity - s2) <= 1e-10


def _below(x):
    return float(np.nextafter(x, -np.inf))


def _above(x):
    return float(np.nextafter(x, np.inf))


_BELL = bell_state("phi+")
_UNIT = (_below(0.0), _above(1.0))  # just past [0, 1]

# (entry point, parameter, "count" or "real", a call with that parameter set
# to its argument and every other one valid, the values just past its bounds)
PARAMETERS = [
    ("BipartiteOperator", "dA", "count", lambda v: BipartiteOperator(np.eye(4), v, 2), [0]),
    ("BipartiteOperator", "dB", "count", lambda v: BipartiteOperator(np.eye(4), 2, v), [0]),
    ("DensityMatrix", "dA", "count", lambda v: DensityMatrix(np.eye(4) / 4, v, 2), [0]),
    ("DensityMatrix", "dB", "count", lambda v: DensityMatrix(np.eye(4) / 4, 2, v), [0]),
    # an int past the float range is refused, not overflowed on
    ("DensityMatrix", "slack", "real",
     lambda v: DensityMatrix(np.eye(4) / 4, 2, 2, slack=v), [_below(0.0), 10**400]),
    # a Choi state is a DensityMatrix on C^d kron C^d, so its d is checked as dA
    ("ChoiMatrix", "dA", "count", lambda v: ChoiMatrix(np.eye(4) / 4, v), [0]),
    ("ChoiMatrix", "slack", "real", lambda v: ChoiMatrix(np.eye(4) / 4, 2, slack=v),
     [_below(0.0)]),
    ("swap_operator", "k", "count", swap_operator, [0]),
    ("max_entangled", "k", "count", max_entangled, [0]),
    ("max_entangled_state", "d", "count", max_entangled_state, [0]),
    ("werner_f", "d", "count", lambda v: werner_f(v, 0.5), [1]),
    ("werner_f", "f", "real", lambda v: werner_f(3, v), [_below(-1.0), _above(1.0)]),
    ("werner_v", "d", "count", lambda v: werner_v(v, 0.5), [1]),
    ("werner_v", "v", "real", lambda v: werner_v(3, v), _UNIT),
    ("isotropic", "d", "count", lambda v: isotropic(v, 0.5), [1]),
    # the alpha bounds, [-1/(d^2-1), 1], carry a tolerance of 1e-15
    ("isotropic", "alpha", "real", lambda v: isotropic(3, v), [-1 / 8 - 2e-15, 1 + 2e-15]),
    # k is bounded only by the rule 2n <= k
    ("cariello_gamma", "k", "count", lambda v: cariello_gamma(v, 2, 0.1), []),
    ("cariello_gamma", "n", "count", lambda v: cariello_gamma(4, v, 0.1), [0]),
    ("cariello_gamma", "eps", "real", lambda v: cariello_gamma(4, 2, v), [0.0]),
    ("filtered_werner_closed_form", "d", "count",
     lambda v: filtered_werner_closed_form(v, 0.5), [2]),
    ("filtered_werner_closed_form", "v", "real",
     lambda v: filtered_werner_closed_form(3, v), _UNIT),
    ("random_density_matrix", "dA", "count",
     lambda v: random_density_matrix(v, 2, np.random.default_rng(0)), [0]),
    ("random_density_matrix", "dB", "count",
     lambda v: random_density_matrix(2, v, np.random.default_rng(0)), [0]),
    ("random_density_matrix", "rank", "count",
     lambda v: random_density_matrix(2, 2, np.random.default_rng(0), rank=v), [0, 5]),
    ("KrausChannel", "d", "count", lambda v: KrausChannel((np.eye(2),), v), [0]),
    ("identity_channel", "d", "count", identity_channel, [0]),
    ("depolarizing", "d", "count", lambda v: depolarizing(v, 0.5), [0]),
    ("depolarizing", "p", "real", lambda v: depolarizing(2, v), _UNIT),
    ("dephasing", "d", "count", lambda v: dephasing(v, 0.5), [0]),
    ("dephasing", "p", "real", lambda v: dephasing(2, v), _UNIT),
    ("random_cptp", "d", "count", lambda v: random_cptp(v, 2, 1), [0]),
    ("random_cptp", "n_kraus", "count", lambda v: random_cptp(2, v, 1), [0]),
    ("random_cptp", "seed", "count", lambda v: random_cptp(2, 2, v), [-1]),
    ("werner_filters", "d", "count", werner_filters, [2]),
    ("identity_filters", "dA", "count", lambda v: identity_filters(v, 2), [0]),
    ("identity_filters", "dB", "count", lambda v: identity_filters(2, v), [0]),
    ("haar_unitary", "d", "count", lambda v: haar_unitary(v, np.random.default_rng(0)), [0]),
    ("analytic_ccnr", "d", "count", lambda v: analytic_ccnr("werner", v, 0.5), [1]),
    ("analytic_ccnr", "alpha", "real", lambda v: analytic_ccnr("isotropic", 3, v),
     [-1 / 8 - 2e-15, 1 + 2e-15]),
    ("analytic_ccnr", "f", "real", lambda v: analytic_ccnr("werner", 3, v),
     [_below(-1.0), _above(1.0)]),
    ("rudolph_checks", "trials", "count", lambda v: rudolph_checks(_BELL, v, 0), [0]),
    ("rudolph_checks", "seed", "count", lambda v: rudolph_checks(_BELL, 1, v), [-1]),
    ("superop_to_choi", "d", "count", lambda v: superop_to_choi(np.eye(4), v), [0, -2]),
    ("superop_to_choi", "noise_level", "real",
     lambda v: superop_to_choi(np.eye(4), 2, noise_level=v), [_below(0.0), 10**400]),
    ("run_aaqpt", "noise", "real",
     lambda v: run_aaqpt(identity_channel(2), _BELL, noise=v, seed=1), _UNIT),
    ("run_aaqpt", "seed", "count", lambda v: run_aaqpt(identity_channel(2), _BELL, seed=v), [-1]),
    ("SeesawConfig", "d", "count", lambda v: SeesawConfig(d=v, seed=0), [1]),
    ("SeesawConfig", "seed", "count", lambda v: SeesawConfig(d=2, seed=v), [-1]),
    ("SeesawConfig", "max_outer", "count", lambda v: SeesawConfig(d=2, seed=0, max_outer=v), [0]),
    ("SeesawConfig", "restarts", "count", lambda v: SeesawConfig(d=2, seed=0, restarts=v), [0]),
    ("parse_matrix_file", "dims", "count", lambda v: parse_matrix_file(
        {"schema_version": 1, "dims": [v, 1], "re": [[1.0]], "im": [[0.0]]}), [0]),
    ("Param.value", "--d", "count", lambda v: cli.D.value(argparse.Namespace(d=v)),
     [0, cli.MAX_D + 1]),
    ("Param.value", "--f", "real", lambda v: cli.F.value(argparse.Namespace(f=v)), []),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value!r:.24}")
    for entry, name, kind, call, past in PARAMETERS
    for value in [True, "1", *([2.0] if kind == "count" else [math.nan, math.inf, -math.inf]),
                  *past]
])
def test_every_bad_parameter_is_named(call, name, value):
    # a bool, a string, a float count, a non-finite real or a value just past
    # a bound is refused by check_number, whose message starts with the name
    with pytest.raises(ValueError) as err:
        call(value)
    assert re.match(rf"{re.escape(name)}[ =]", str(err.value)), str(err.value)
