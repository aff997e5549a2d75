import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beqpt.bipartite import DensityMatrix, operator_schmidt_rank, realign, singular_values
from beqpt.diagnostics import (
    analytic_ccnr,
    attach_product_ancillas,
    ccnr_value,
    faithfulness,
    full_report,
    is_faithful,
    is_ppt,
    rudolph_checks,
)
from beqpt.states import (
    bell_state,
    filtered_werner_closed_form,
    isotropic,
    max_entangled_state,
    random_density_matrix,
    rho_ccnr,
    werner_f,
)

from conftest import drawn_states, random_product_state, random_separable_state


class TestCcnrValue:
    def test_product_states_give_one(self, rng):
        for _ in range(5):
            rho = random_product_state(3, 4, rng)
            assert ccnr_value(rho) == pytest.approx(1.0, abs=1e-10)

    def test_separable_mixtures_stay_below_one(self, rng):
        for _ in range(10):
            rho = random_separable_state(3, 3, rng)
            assert ccnr_value(rho) <= 1.0 + 1e-9

    def test_reference_values(self):
        assert ccnr_value(rho_ccnr()) == pytest.approx(1.5, abs=1e-10)


class TestIsPpt:
    def test_bell_state_fails_with_minus_half(self):
        # derived: the partial transpose of |Phi+><Phi+| is F/2 with
        # eigenvalues +-1/2
        flag, min_eig = is_ppt(bell_state("phi+"))
        assert flag is False
        assert min_eig == pytest.approx(-0.5, abs=1e-12)

    def test_rho_ccnr_is_ppt(self):
        flag, _ = is_ppt(rho_ccnr())
        assert flag

    def test_separable_mixture_is_ppt(self, rng):
        flag, _ = is_ppt(random_separable_state(2, 3, rng))
        assert flag



class TestFaithfulness:
    def test_reference_values(self):
        assert faithfulness(max_entangled_state(4)) == pytest.approx(1.0, abs=1e-12)
        assert faithfulness(werner_f(4, -1.0)) == pytest.approx(1 / 6, abs=1e-12)
        assert faithfulness(isotropic(4, 0.2)) == pytest.approx(0.1, abs=1e-12)


class TestIsFaithful:
    def test_rho_ccnr(self):
        ok, sigma_min, cond = is_faithful(rho_ccnr())
        assert ok
        assert sigma_min == pytest.approx(1 / 12, abs=1e-12)
        assert cond == pytest.approx(3.0, abs=1e-9)

    def test_filtered_werner_is_not(self):
        ok, _, cond = is_faithful(filtered_werner_closed_form(4, 0.5))
        assert not ok
        assert cond == float("inf")

    def test_maximally_mixed_is_not(self):
        d = 3
        rho = DensityMatrix(np.eye(d * d) / d**2, d, d)
        ok, _, _ = is_faithful(rho)
        assert not ok
        assert full_report(rho).schmidt_rank == 1

    def test_requires_square(self, rng):
        with pytest.raises(ValueError):
            is_faithful(random_density_matrix(2, 3, rng))


class TestAnalyticCcnr:
    def test_reference_points(self):
        assert analytic_ccnr("isotropic", 4, 1.0) == pytest.approx(4.0)
        assert analytic_ccnr("werner", 4, -1.0) == pytest.approx(1.5)
        assert analytic_ccnr("werner", 10, -1.0) == pytest.approx(1.2)

    def test_werner_d10_numeric_agreement(self):
        got = ccnr_value(werner_f(10, -1.0))
        assert abs(got - 1.2) <= 1e-9

    def test_grid_agreement_small_sample(self):
        for d in (2, 3):
            for alpha in np.linspace(-1.0 / (d * d - 1), 1.0, 11):
                assert abs(
                    ccnr_value(isotropic(d, float(alpha)))
                    - analytic_ccnr("isotropic", d, float(alpha))
                ) <= 1e-9
            for f in np.linspace(-1.0, 1.0, 11):
                assert abs(
                    ccnr_value(werner_f(d, float(f))) - analytic_ccnr("werner", d, float(f))
                ) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_ccnr("isotropic", 3, 2.0)
        with pytest.raises(ValueError):
            analytic_ccnr("werner", 3, -2.0)
        with pytest.raises(ValueError):
            analytic_ccnr("ghz", 3, 0.0)


class TestRudolphChecks:
    def test_unitary_invariance_on_rho_ccnr(self):
        rep = rudolph_checks(rho_ccnr(), trials=20, seed=11)
        assert rep.unitary_max_deviation < 1e-9
        assert rep.unitary_invariant

    def test_lueders_nonincrease_on_werner(self):
        rep = rudolph_checks(werner_f(3, -1.0), trials=20, seed=12)
        assert rep.lueders_max_increase <= 1e-9
        assert rep.lueders_nonincreasing

    def test_ancilla_nonincrease_random_state(self, rng):
        rho = random_density_matrix(3, 3, rng)
        rep = rudolph_checks(rho, trials=10, seed=13)
        assert rep.ancilla_max_increase <= 1e-9

    def test_fixed_product_ancilla_preserves_value(self):
        # derived: the realignment of a product ancilla pair contributes a
        # multiplicative factor ||sigma||_F ||tau||_F = 1 for pure states
        rho = rho_ccnr()
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1.0
        enlarged = attach_product_ancillas(rho, zero, zero)
        assert enlarged.dA == enlarged.dB == 8
        assert abs(ccnr_value(enlarged) - ccnr_value(rho)) <= 1e-9

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            rudolph_checks(rho_ccnr(), trials=0, seed=1)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            rudolph_checks(rho_ccnr(), 2, -1)

    @pytest.mark.parametrize("trials, seed, message", [
        (True, 0, "trials must be an integer"),
        (2.0, 0, "trials must be an integer"),
        (2, True, "seed must be an integer"),
        (2, 1.5, "seed must be an integer"),
    ])
    def test_wrong_typed_parameters_are_named(self, trials, seed, message):
        # trials=True ran one trial and reported "trials": true
        with pytest.raises(ValueError, match=message):
            rudolph_checks(werner_f(3, 0.5), trials=trials, seed=seed)

    def test_deterministic_in_seed(self):
        a = rudolph_checks(werner_f(3, 0.5), trials=3, seed=7)
        b = rudolph_checks(werner_f(3, 0.5), trials=3, seed=7)
        assert a == b


class TestFullReport:
    def test_internal_consistency(self, rng):
        rho = random_density_matrix(3, 3, rng)
        rep = full_report(rho)
        assert rep.ccnr_value == pytest.approx(sum(rep.realigned_spectrum), abs=1e-12)
        assert rep.purity == pytest.approx(
            sum(s**2 for s in rep.realigned_spectrum), abs=1e-10
        )

    def test_rho_ccnr_summary(self):
        rep = full_report(rho_ccnr())
        assert rep.ccnr_value == pytest.approx(1.5, abs=1e-10)
        assert rep.ccnr_entangled and rep.ppt and rep.faithful
        assert rep.purity == pytest.approx(1 / 6, abs=1e-10)
        assert rep.schmidt_rank == 16

    def test_max_entangled_summary(self):
        rep = full_report(max_entangled_state(4))
        assert rep.ccnr_value == pytest.approx(4.0, abs=1e-10)
        assert rep.ccnr_entangled and not rep.ppt and rep.faithful
        assert rep.purity == pytest.approx(1.0, abs=1e-10)
        assert rep.condition_number == pytest.approx(1.0, abs=1e-10)

    def test_isotropic_boundary_summary(self):
        rep = full_report(isotropic(4, 0.2))
        assert rep.ccnr_value == pytest.approx(1.0, abs=1e-10)
        assert not rep.ccnr_entangled and rep.ppt and rep.faithful
        assert rep.purity == pytest.approx(0.1, abs=1e-10)

    def test_nonsquare_dims_reported_unfaithful(self, rng):
        rep = full_report(random_density_matrix(2, 3, rng))
        assert not rep.faithful
        assert rep.condition_number == float("inf")
        assert rep.to_dict()["condition_number"] is None


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestOneSpectrumProperties:
    """full_report derives every field from one realigned spectrum; the
    single-purpose functions on a fresh copy of the state, which computes
    its own SVD, are the reference."""

    @given(drawn_states())
    def test_full_report_matches_single_purpose_functions(self, rho):
        rep = full_report(rho)
        fresh = DensityMatrix(rho.mat, rho.dA, rho.dB)
        assert _bits(rep.realigned_spectrum) == _bits(singular_values(realign(fresh)))
        assert _bits(rep.ccnr_value) == _bits(ccnr_value(fresh))
        assert _bits(rep.purity) == _bits(faithfulness(fresh))
        assert rep.schmidt_rank == operator_schmidt_rank(fresh)
        if rho.dA == rho.dB:
            flag, _, cond = is_faithful(fresh)
            assert rep.faithful == flag
            assert _bits(rep.condition_number) == _bits(cond)
        else:
            with pytest.raises(ValueError, match="square"):
                is_faithful(fresh)
            assert not rep.faithful
            assert rep.condition_number == float("inf")

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_ccnr_at_most_one_on_separable_mixtures(self, dA, dB, terms, seed):
        rho = random_separable_state(dA, dB, np.random.default_rng(seed), terms=terms)
        assert ccnr_value(rho) <= 1.0 + 1e-9

    def test_one_svd_per_report(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        # rho_ccnr's self-check computes the spectrum the report reads
        full_report(rho_ccnr())
        assert len(calls) == 1
