import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from beqpt.bipartite import (
    BipartiteOperator,
    haar_unitary,
    local_operation,
    operator_schmidt_rank,
    realign,
    singular_values,
)
from beqpt.diagnostics import ccnr_value
from beqpt.filtering import (
    ANNIHILATION_TOL,
    AnnihilatedState,
    FilterPair,
    filter_analysis,
    identity_filters,
    local_filter,
    werner_filters,
)
from beqpt.states import (
    filtered_werner_closed_form,
    random_density_matrix,
    werner_v,
)

from conftest import drawn_states


class TestFilterPair:
    def test_contraction_enforced(self):
        with pytest.raises(ValueError, match="contraction"):
            FilterPair(2.0 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="contraction"):
            FilterPair(np.eye(2), 1.1 * np.eye(2))
        # every entry is at most 1, but the largest eigenvalue of A^dag A is 2.56
        with pytest.raises(ValueError, match="largest eigenvalue"):
            FilterPair(np.full((2, 2), 0.8), np.eye(2))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            FilterPair(np.ones((2, 3)), np.eye(3))

    @pytest.mark.parametrize("bad", [np.ones(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])
    def test_malformed_filter_is_named(self, bad):
        with pytest.raises(ValueError, match="^filter A "):
            FilterPair(bad, np.eye(2))
        with pytest.raises(ValueError, match="^filter B "):
            FilterPair(np.eye(2), bad)

    def test_werner_filters_structure(self):
        for d in (3, 4, 5):
            pair = werner_filters(d)
            assert np.linalg.matrix_rank(pair.A) == 2
            assert np.linalg.matrix_rank(pair.B) == 2
            # A^dag A and B^dag B project onto the first two basis vectors
            proj = np.zeros((d, d))
            proj[0, 0] = proj[1, 1] = 1.0
            assert np.allclose(pair.A.conj().T @ pair.A, proj)
            assert np.allclose(pair.B.conj().T @ pair.B, proj)

    def test_werner_filters_entries_d4(self):
        pair = werner_filters(4)
        a = np.zeros((4, 4))
        a[0, 0] = 1.0
        a[1, 1] = -1.0
        assert np.array_equal(pair.A, a.astype(complex))
        nz = np.argwhere(pair.B != 0)
        assert sorted(map(tuple, nz)) == [(0, 1), (1, 0)]

    def test_requires_d_at_least_3(self):
        with pytest.raises(ValueError):
            werner_filters(2)


class TestLocalFilter:
    def test_identity_filters_do_nothing(self, rng):
        rho = random_density_matrix(3, 3, rng)
        out = local_filter(rho, identity_filters(3, 3))
        assert np.abs(out.mat - rho.mat).max() <= 1e-14

    def test_unitary_filters_preserve_ccnr(self, rng):
        rho = random_density_matrix(3, 3, rng)
        pair = FilterPair(haar_unitary(3, rng), haar_unitary(3, rng))
        assert abs(ccnr_value(local_filter(rho, pair)) - ccnr_value(rho)) <= 1e-9

    @pytest.mark.parametrize("d", (3, 4, 5))
    @pytest.mark.parametrize("v", (0.0, 0.25, 0.5, 0.75, 1.0))
    def test_werner_filtering_matches_closed_form(self, d, v):
        direct = local_filter(werner_v(d, v), werner_filters(d))
        closed = filtered_werner_closed_form(d, v)
        assert np.abs(direct.mat - closed.mat).max() <= 1e-12

    def test_filtered_werner_never_faithful(self):
        for d in (3, 4, 5):
            for v in (0.0, 0.5, 1.0):
                s = singular_values(realign(local_filter(werner_v(d, v), werner_filters(d))))
                assert s[-1] < 1e-12 * s[0]

    def test_annihilation(self, rng):
        # the filtered Werner state lives on the first two local levels;
        # a projector onto the complement kills it
        rho = filtered_werner_closed_form(4, 0.3)
        a = np.zeros((4, 4))
        a[2, 2] = a[3, 3] = 1.0
        with pytest.raises(AnnihilatedState):
            local_filter(rho, FilterPair(a, a))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            local_filter(random_density_matrix(3, 3, rng), identity_filters(4, 4))


@st.composite
def contractions(draw, d, rank=None):
    """(A, r): a complex d x d contraction of rank r in 1..d (``rank`` if
    given), a product of d x r and r x d Ginibre matrices scaled to a
    largest singular value in [0.1, 1]."""
    r = d - draw(st.integers(0, d - 1)) if rank is None else rank  # full rank first as it shrinks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
         for shape in ((d, r), (r, d))]
    a = g[0] @ g[1]
    return draw(st.floats(0.1, 1.0)) * a / np.linalg.norm(a, 2), r


class TestFilteringMechanism:
    """A local filter acts on the realigned matrix R as
    (A kron conj A) R (B kron conj B)^T, so it cannot raise the operator
    Schmidt rank above rank(A)^2 or rank(B)^2, and an invertible filter
    lowers sigma_min / sigma_max by at most cond(A)^2 cond(B)^2: only a
    rank-deficient filter can take a faithful state's full rank away."""

    @given(st.data())
    def test_filter_acts_on_the_realigned_matrix(self, data):
        rho = data.draw(drawn_states())
        a, ra = data.draw(contractions(rho.dA))
        b, rb = data.draw(contractions(rho.dB))
        weight = np.trace(rho.mat @ np.kron(a.conj().T @ a, b.conj().T @ b)).real
        assume(weight > ANNIHILATION_TOL)
        out = local_filter(rho, FilterPair(a, b))
        r = realign(rho)
        expected = np.kron(a, a.conj()) @ r @ np.kron(b, b.conj()).T
        # contractions do not raise the Frobenius norm, which bounds every entry
        assert np.abs(realign(out) * weight - expected).max() <= 1e-13 * np.linalg.norm(r)
        assert operator_schmidt_rank(out) <= min(ra, rb) ** 2
        if ra == rho.dA and rb == rho.dB:
            s, t = rho.realigned_spectrum, out.realigned_spectrum
            kappa = (np.linalg.cond(a) * np.linalg.cond(b)) ** 2
            assert t[-1] / t[0] >= s[-1] / s[0] / kappa - 1e-12


@st.composite
def local_factors(draw, d):
    """(A, r) from ``contractions``, singular in about a third of the draws."""
    singular = draw(st.integers(0, 2)) == 2
    return draw(contractions(d, rank=draw(st.integers(1, d - 1)) if singular else d))


class TestLocalOperation:
    """``local_operation`` against its realignment identity
    R((a kron b) rho (a kron b)^dag) = (a kron conj a) R(rho) (b kron conj b)^T
    and the two bounds it gives for one filter pair (Gittsovich, Guehne,
    Hyllus & Eisert, PRA 78, 052319 (2008))."""

    @given(st.data())
    def test_realignment_identity(self, data):
        rho = data.draw(drawn_states(max_d=4))
        a, _ = data.draw(local_factors(rho.dA))
        b, _ = data.draw(local_factors(rho.dB))
        out = BipartiteOperator(local_operation(rho, a, b), rho.dA, rho.dB)
        want = np.kron(a, a.conj()) @ realign(rho) @ np.kron(b, b.conj()).T
        assert np.linalg.norm(realign(out) - want) <= 1e-12 * np.linalg.norm(want)

    @given(st.data())
    def test_rank_bound(self, data):
        # rank R(rho_F) <= min(rank A, rank B)^2, so every singular filter
        # makes a probe unfaithful
        rho = data.draw(drawn_states(max_d=4))
        a, ra = data.draw(contractions(rho.dA))
        b, rb = data.draw(contractions(rho.dB))
        out = BipartiteOperator(local_operation(rho, a, b), rho.dA, rho.dB)
        assert operator_schmidt_rank(out) <= min(ra, rb) ** 2

    @given(st.data())
    def test_sigma_min_bound(self, data):
        # an invertible filter costs sigma_min only through its conditioning:
        # sigma_min(R(rho_F)) >= s(A)^2 s(B)^2 sigma_min(R(rho)) / N
        rho = data.draw(drawn_states(max_d=4))
        a, _ = data.draw(contractions(rho.dA, rank=rho.dA))
        b, _ = data.draw(contractions(rho.dB, rank=rho.dB))
        out = local_operation(rho, a, b)
        weight = out.trace().real
        t = BipartiteOperator(out / weight, rho.dA, rho.dB).realigned_spectrum
        s_min = [np.linalg.svd(m, compute_uv=False)[-1] for m in (a, b)]
        bound = (s_min[0] * s_min[1]) ** 2 * rho.realigned_spectrum[-1] / weight
        assert t[-1] >= bound - 1e-13 * t[0]

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_wrong_shape_names_both_dims(self, rng, dims):
        rho = random_density_matrix(3, 3, rng)
        a, b = (np.eye(d) for d in dims)
        with pytest.raises(ValueError, match=rf"\({dims[0]}, {dims[0]}\) and "
                                             rf"\({dims[1]}, {dims[1]}\).*\(3, 3\)"):
            local_operation(rho, a, b)


class TestFilterAnalysis:
    def test_werner_v0_d4(self):
        out = filter_analysis(werner_v(4, 0.0), werner_filters(4))
        assert out.before.ccnr_value == pytest.approx(1.5, abs=1e-9)
        assert out.after.ccnr_value == pytest.approx(2.0, abs=1e-9)
        assert out.ccnr_increased
        assert out.faithfulness_lost

    def test_werner_v05_rank_collapse(self):
        out = filter_analysis(werner_v(4, 0.5), werner_filters(4))
        assert out.after.schmidt_rank <= 16
        assert not out.after.faithful

    def test_identity_filters_change_nothing(self, rng):
        rho = random_density_matrix(3, 3, rng)
        out = filter_analysis(rho, identity_filters(3, 3))
        assert out.before.ccnr_value == pytest.approx(out.after.ccnr_value, abs=1e-12)
        assert not out.ccnr_increased
        assert not out.faithfulness_lost
