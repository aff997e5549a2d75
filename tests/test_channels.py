from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    haar_unitary,
    max_entangled,
    partial_trace,
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
    unitary_channel,
)
from beqpt.states import max_entangled_state, random_density_matrix

from conftest import drawn_states, kraus_sum


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

    @given(st.data())
    def test_is_the_kraus_sum(self, data):
        # realign_inverse(E_hat realign(rho)) against the Kraus sum; most
        # draws have dA != dB, which a swap of the two dimensions would fail
        rho = data.draw(drawn_states(max_d=4))
        ch = random_cptp(rho.dA, data.draw(st.integers(1, rho.dA**2)),
                         data.draw(st.integers(0, 2**32 - 1)))
        want = kraus_sum(ch, rho)
        assert np.linalg.norm(apply_extended(ch, rho).mat - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def channels(draw):
    """A random channel with d in 1..5 and 1..d^2 Kraus operators, or a
    depolarizing or dephasing channel of drawn strength."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "depolarizing", "dephasing"]))
    if kind == "random":
        return random_cptp(d, draw(st.integers(1, d * d)), draw(st.integers(0, 2**32 - 1)))
    return {"depolarizing": depolarizing, "dephasing": dephasing}[kind](d, draw(st.floats(0, 1)))


class TestChoi:
    @settings(max_examples=200)
    @given(channels())
    def test_extended_channel_on_phi_plus_is_the_oracle(self, ch):
        # the Kraus sum of (K kron Id) Phi+ (K kron Id)^dag never forms E_hat,
        # so it checks choi_of independently of the superoperator
        s = choi_of(ch)
        want = kraus_sum(ch, max_entangled_state(ch.d))
        assert np.abs(s.mat - want).max() <= 1e-14
        assert np.abs(partial_trace(s, "A") - np.eye(ch.d) / ch.d).max() <= 1e-14

    def test_choi_is_the_kraus_outer_sum(self):
        # (K kron Id)|Phi+> = vec(K) / sqrt(d) for the row-stacking vec, so
        # S = (1/d) sum_k vec(K_k) vec(K_k)^dag, with no E_hat and no
        # realignment; the complex Kraus sets of random_cptp catch a lost conj
        for ch in (random_cptp(3, 3, seed=3), random_cptp(4, 2, seed=4), random_cptp(2, 1, seed=5),
                   depolarizing(3, 0.4), dephasing(4, 0.6)):
            vecs = np.stack([k.reshape(-1) for k in ch.kraus])
            want = vecs.T @ vecs.conj() / ch.d
            assert np.abs(choi_of(ch).mat - want).max() <= 1e-14

    def test_identity_channel_d2(self):
        assert np.allclose(choi_of(identity_channel(2)).mat, max_entangled_state(2).mat)

    def test_fully_depolarizing_d2(self):
        # oracle: the Kraus sum on the maximally entangled probe
        ch = depolarizing(2, 1.0)
        expected = kraus_sum(ch, max_entangled_state(2))
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
        assert np.allclose(identity_channel(3).superoperator, np.eye(9))

    def test_acts_as_vectorized_channel(self, rng):
        ch = random_cptp(3, 2, seed=9)
        rho = rand_state_mat(3, rng)
        lhs = ch.superoperator @ rho.reshape(-1)
        rhs = kraus_sum(ch, BipartiteOperator(rho, 3, 1)).reshape(-1)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_built_once_and_read_only(self):
        ch = random_cptp(3, 2, seed=9)
        e_hat = ch.superoperator
        assert ch.superoperator is e_hat
        with pytest.raises(ValueError, match="read-only"):
            e_hat[0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            ch.superoperator = np.eye(9)


class TestStandardChannels:
    def test_depolarizing_zero_is_identity(self):
        assert np.allclose(
            depolarizing(3, 0.0).superoperator,
            identity_channel(3).superoperator,
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

    @pytest.mark.parametrize("make, d", [
        (identity_channel, 0),
        (lambda d: random_cptp(d, 2, 1), 0),
        # numpy's "negative dimensions" error named no parameter
        (lambda d: random_cptp(d, 2, 1), -1),
        # p / d divided by zero
        (lambda d: depolarizing(d, 0.5), 0),
        (lambda d: dephasing(d, 0.5), 0),
        (lambda d: KrausChannel((np.eye(1),), d), 0),
    ], ids=["identity", "random-cptp", "random-cptp-negative", "depolarizing", "dephasing",
            "kraus-channel"])
    def test_dimension_below_one_is_named(self, make, d):
        with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
            make(d)

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

    @pytest.mark.parametrize("bad", [np.ones(2), np.array([[np.inf, 0.0], [0.0, 1.0]])])
    def test_malformed_operator_is_named(self, bad):
        with pytest.raises(ValueError, match="^Kraus operator 1 "):
            KrausChannel((np.eye(2), bad), 2)
        with pytest.raises(ValueError, match="^u "):
            unitary_channel(bad)

    def test_unitary_channel_copies_u_once(self, monkeypatch, rng):
        # unitary_channel's coercion makes the private read-only copy, and
        # KrausChannel checks that copy and keeps it: one np.array call
        u = haar_unitary(3, rng)
        copies, array = [], np.array
        monkeypatch.setattr(np, "array", lambda *a, **k: copies.append(a[0]) or array(*a, **k))
        ch = unitary_channel(u)
        monkeypatch.undo()
        assert len(copies) == 1 and copies[0] is u
        assert not np.shares_memory(ch.kraus[0], u) and u.flags.writeable
        assert not ch.kraus[0].flags.writeable
