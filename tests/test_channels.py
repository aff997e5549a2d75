import numpy as np
import pytest

from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    haar_unitary,
    max_entangled,
    realign_inverse,
    vec,
)
from beqpt.channels import (
    ChoiMatrix,
    KrausChannel,
    apply_extended,
    choi_of,
    dephasing,
    depolarizing,
    identity_channel,
    random_cptp,
    superoperator_matrix,
    unitary_channel,
)
from beqpt.states import max_entangled_state, random_density_matrix


def rand_state_mat(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def apply(ch, rho):
    """E(rho) for a d x d matrix, as (E kron Id) on a [d, 1] operator."""
    return apply_extended(ch, BipartiteOperator(rho, len(rho), 1)).mat


class TestApply:
    def test_identity(self, rng):
        rho = rand_state_mat(3, rng)
        assert np.allclose(apply(identity_channel(3), rho), rho)

    def test_fully_depolarizing(self, rng):
        rho = rand_state_mat(2, rng)
        assert np.allclose(apply(depolarizing(2, 1.0), rho), np.eye(2) / 2, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self, rng):
        ch = random_cptp(3, 4, seed=7)
        rho = rand_state_mat(3, rng)
        out = apply(ch, rho)
        assert out.trace().real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply(identity_channel(3), np.eye(2))


class TestApplyExtended:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(3, 2, rng)
        out = apply_extended(identity_channel(3), rho)
        assert np.allclose(out.mat, rho.mat)

    def test_on_max_entangled_equals_choi(self):
        ch = depolarizing(3, 0.4)
        out = apply_extended(ch, max_entangled_state(3))
        assert np.abs(out.mat - choi_of(ch).mat).max() <= 1e-12

    def test_preserves_trace_and_hermiticity(self, rng):
        ch = random_cptp(2, 3, seed=5)
        rho = random_density_matrix(2, 3, rng)
        out = apply_extended(ch, rho)
        assert out.mat.trace().real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out.mat - out.mat.conj().T).max() <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_extended(identity_channel(3), random_density_matrix(2, 3, rng))


class TestChoi:
    def test_identity_channel_d2(self):
        assert np.allclose(choi_of(identity_channel(2)).mat, max_entangled_state(2).mat)

    def test_fully_depolarizing_d2(self):
        # oracle: apply_extended to the maximally entangled probe
        ch = depolarizing(2, 1.0)
        expected = apply_extended(ch, max_entangled_state(2)).mat
        assert np.allclose(choi_of(ch).mat, expected, atol=1e-14)
        assert np.allclose(choi_of(ch).mat, np.eye(4) / 4, atol=1e-14)

    def test_unitary_channel_is_pure(self, rng):
        d = 3
        u = haar_unitary(d, rng)
        ket = np.kron(u, np.eye(d)) @ max_entangled(d, normalized=True)
        assert np.allclose(choi_of(unitary_channel(u)).mat, np.outer(ket, ket.conj()))

    def test_choi_state_is_a_density_matrix(self):
        s = choi_of(depolarizing(3, 0.4))
        assert isinstance(s, DensityMatrix)
        assert (s.dA, s.dB, s.d) == (3, 3, 3)
        # the two extreme channels give the two extreme states at d = 3, 4:
        # the maximally mixed state and |Phi+><Phi+|
        for d in (3, 4):
            assert np.allclose(choi_of(depolarizing(d, 1.0)).mat, np.eye(d * d) / d**2,
                               atol=1e-14)
            assert np.allclose(choi_of(identity_channel(d)).mat, max_entangled_state(d).mat,
                               atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="PSD"):
            ChoiMatrix(np.diag([0.75, 0.5, 0.0, -0.25]), 2)
        with pytest.raises(ValueError, match="trace"):
            ChoiMatrix(np.eye(4), 2)
        tp_violating = np.diag([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="preservation"):
            ChoiMatrix(tp_violating, 2)


class TestSuperoperator:
    def test_identity(self):
        assert np.allclose(superoperator_matrix(identity_channel(3)), np.eye(9))

    def test_acts_as_vectorized_channel(self, rng):
        ch = random_cptp(3, 2, seed=9)
        rho = rand_state_mat(3, rng)
        lhs = superoperator_matrix(ch) @ vec(rho)
        rhs = vec(apply(ch, rho))
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_choi_is_realigned_superop_over_d(self):
        for seed in (3, 4):
            ch = random_cptp(3, 3, seed=seed)
            e_hat = superoperator_matrix(ch)
            expected = realign_inverse(e_hat, 3, 3) / 3
            assert np.abs(choi_of(ch).mat - expected).max() <= 1e-12


class TestStandardChannels:
    def test_depolarizing_zero_is_identity(self):
        assert np.allclose(
            superoperator_matrix(depolarizing(3, 0.0)),
            superoperator_matrix(identity_channel(3)),
        )

    def test_dephasing_action(self, rng):
        d, p = 3, 0.6
        rho = rand_state_mat(d, rng)
        expected = (1 - p) * rho + p * np.diag(np.diag(rho))
        assert np.allclose(apply(dephasing(d, p), rho), expected, atol=1e-12)

    def test_completeness_residuals(self):
        for ch in (depolarizing(4, 0.3), dephasing(3, 0.5), random_cptp(3, 4, seed=7)):
            total = sum(k.conj().T @ k for k in ch.kraus)
            assert np.linalg.norm(total - np.eye(ch.d)) < 1e-10

    def test_random_cptp_deterministic(self):
        a = random_cptp(3, 4, seed=7)
        b = random_cptp(3, 4, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
        c = random_cptp(3, 4, seed=8)
        assert not all(np.allclose(x, y) for x, y in zip(a.kraus, c.kraus))

    def test_random_cptp_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            random_cptp(2, 2, -1)

    @pytest.mark.parametrize("args, name", [
        ((True, 2, 1), "d"),
        ((2.0, 2, 1), "d"),
        ((2, True, 1), "n_kraus"),
        ((2, 2.0, 1), "n_kraus"),
        ((2, 2, True), "seed"),
        ((2, 2, 1.5), "seed"),
    ])
    def test_random_cptp_wrong_types_are_named(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            random_cptp(*args)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            depolarizing(3, 1.2)
        with pytest.raises(ValueError):
            dephasing(3, -0.1)
        with pytest.raises(ValueError):
            unitary_channel(np.ones((2, 2)))
        with pytest.raises(ValueError):
            random_cptp(3, 0, seed=1)


class TestKrausChannelType:
    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((np.eye(2) * 0.5,), 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel((), 2)

    def test_rectangular_rejected(self):
        # a 3 x 2 isometry is complete, but it maps C^2 into C^3
        with pytest.raises(ValueError, match="shape"):
            KrausChannel((np.eye(3)[:, :2],), 2)
