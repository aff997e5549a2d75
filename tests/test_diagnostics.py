import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beqpt.bipartite import (
    BipartiteOperator,
    DensityMatrix,
    haar_unitary,
    operator_schmidt_rank,
    realign,
    singular_values,
    tensor,
)
from beqpt.diagnostics import (
    RUDOLPH_MAX_WORK,
    analytic_ccnr,
    ccnr_value,
    full_report,
    is_faithful,
    is_ppt,
    lueders_product_measurement,
    purity,
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


class TestIsPpt:
    def test_bell_state_fails_with_minus_half(self):
        # derived: the partial transpose of |Phi+><Phi+| is F/2 with
        # eigenvalues +-1/2
        flag, min_eig = is_ppt(bell_state("phi+"))
        assert flag is False
        assert min_eig == pytest.approx(-0.5, abs=1e-12)

    def test_separable_mixture_is_ppt(self, rng):
        flag, _ = is_ppt(random_separable_state(2, 3, rng))
        assert flag


class TestPurity:
    def test_reference_values(self):
        assert purity(max_entangled_state(4)) == pytest.approx(1.0, abs=1e-12)
        assert purity(werner_f(4, -1.0)) == pytest.approx(1 / 6, abs=1e-12)
        assert purity(isotropic(4, 0.2)) == pytest.approx(0.1, abs=1e-12)


class TestIsFaithful:
    def test_rho_ccnr(self):
        ok, sigma_min, cond = is_faithful(rho_ccnr())
        assert ok
        assert sigma_min == pytest.approx(1 / 12, abs=1e-12)
        assert cond == pytest.approx(3.0, abs=1e-9)
        # above the 1/16 that bounds every separable d=4 probe
        assert sigma_min > 1 / 16

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


@st.composite
def ccnr_kink_draws(draw):
    """(family, d, param) with d in 2..8 and the param at a kink of the
    closed form (alpha = 0, alpha = -1/(d^2 - 1), f = 1/d), at a float
    neighbour of one, or anywhere in its range."""
    family = draw(st.sampled_from(("isotropic", "werner")))
    d = draw(st.integers(2, 8))
    lo = -1.0 / (d * d - 1) if family == "isotropic" else -1.0
    kink = draw(st.sampled_from((0.0, lo) if family == "isotropic" else (1.0 / d,)))
    near = st.sampled_from((kink, np.nextafter(kink, -np.inf), np.nextafter(kink, np.inf)))
    return family, d, float(draw(st.one_of(near, st.floats(lo, 1.0))))


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
                ) <= 1e-12
            for f in np.linspace(-1.0, 1.0, 11):
                assert abs(
                    ccnr_value(werner_f(d, float(f))) - analytic_ccnr("werner", d, float(f))
                ) <= 1e-12

    @settings(max_examples=300)
    @given(ccnr_kink_draws())
    @example(("isotropic", 3, -1.0 / 8))
    @example(("werner", 3, -1.0))
    def test_one_formula_across_the_kinks(self, case):
        # each family's closed form is one formula with one absolute value,
        # which must hold on both sides of its kink and at it
        family, d, param = case
        state = isotropic(d, param) if family == "isotropic" else werner_f(d, param)
        assert abs(ccnr_value(state) - analytic_ccnr(family, d, param)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_ccnr("ghz", 3, 0.0)


@st.composite
def rudolph_sizes(draw):
    """(dA, dB, trials) over the CLI's caps, d <= 16 and trials <= 1000, and
    next to the largest trial count the work bound allows at dA, dB."""
    dA, dB = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    allowed = RUDOLPH_MAX_WORK // (4 * dA * dB) ** 3
    near = st.integers(max(1, allowed - 1), allowed + 2)
    return dA, dB, draw(st.one_of(st.integers(1, 1000), near))


class SvdCalled(Exception):
    pass


def _refuse_svd(*args, **kwargs):
    raise SvdCalled


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

    @given(drawn_states(max_d=4), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_pure_product_ancillas_keep_the_value(self, rho, a, b, seed):
        # derived: a pure product ancilla sigma_A'' kron tau_B'' realigns to
        # the rank-one vec(sigma) vec(tau)^T of norm ||sigma||_F ||tau||_F = 1,
        # so the enlarged realigned spectrum is rho's, padded with zeros
        rng = np.random.default_rng(seed)

        def pure(k):
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            return np.outer(v, v.conj()) / np.vdot(v, v).real

        enlarged = tensor(tensor(rho, BipartiteOperator(pure(a), a, 1)),
                          BipartiteOperator(pure(b), 1, b))
        assert (enlarged.dA, enlarged.dB) == (rho.dA * a, rho.dB * b)
        assert abs(ccnr_value(enlarged) - ccnr_value(rho)) <= 1e-12

    def test_deterministic_in_seed(self):
        a = rudolph_checks(werner_f(3, 0.5), trials=3, seed=7)
        b = rudolph_checks(werner_f(3, 0.5), trials=3, seed=7)
        assert a == b

    def test_over_budget_run_starts_no_trial(self, monkeypatch):
        # every CLI flag in its cap, yet about 18 CPU-minutes of trials
        rho = isotropic(16, 1.0)
        monkeypatch.setattr(np.linalg, "svd", _refuse_svd)
        with pytest.raises(ValueError, match=r"trials\*\(4\*dA\*dB\)\^3 = 1\.07e\+12 exceeds "
                                             r"1\.07e\+09; dims \(16, 16\) allow at most 1 trials"):
            rudolph_checks(rho, trials=1000, seed=1)

    @settings(max_examples=60)
    @given(rudolph_sizes())
    @example((16, 16, 1))  # the estimate equals the bound
    @example((16, 16, 2))
    @example((8, 16, 8))
    def test_rejected_exactly_past_the_work_bound(self, size):
        # no trial runs: an admitted call reaches the SVD, which raises
        dA, dB, trials = size
        per_trial = (4 * dA * dB) ** 3
        allowed = RUDOLPH_MAX_WORK // per_trial
        rho = DensityMatrix(np.eye(dA * dB) / (dA * dB), dA, dB)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", _refuse_svd)
            with pytest.raises((ValueError, SvdCalled)) as info:
                rudolph_checks(rho, trials, 0)
        assert (info.type is ValueError) == (trials * per_trial > RUDOLPH_MAX_WORK)
        if info.type is ValueError:  # the largest count allowed at this size
            assert trials > allowed and f"at most {allowed} trials" in str(info.value)


def lueders_term_sum(rho, ua, ub):
    """The Lueders dephasing as its term sum, sum_kl (P_k kron Q_l) rho
    (P_k kron Q_l), each projector pair formed by numpy's kron."""
    out = np.zeros_like(rho.mat)
    for a in ua.T:
        for b in ub.T:
            m = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
            out += m @ rho.mat @ m.conj().T
    return out


class TestLuedersMeasurement:
    """``lueders_product_measurement`` is one basis change by W = ua kron ub,
    W diag(W^dag rho W) W^dag, which equals the term sum for any ua, ub."""

    @given(st.data())
    def test_haar_basis_matches_the_term_sum(self, data):
        rho = data.draw(drawn_states(max_d=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ua, ub = haar_unitary(rho.dA, rng), haar_unitary(rho.dB, rng)
        out = lueders_product_measurement(rho, ua, ub)
        assert np.abs(out.mat - lueders_term_sum(rho, ua, ub)).max() <= 1e-13
        # a complete measurement keeps the trace
        assert abs(out.mat.trace() - 1.0) <= 1e-13

    @given(st.data())
    def test_any_local_matrices_match_the_term_sum(self, data):
        # the identity needs no unitarity; the output is then a positive
        # operator of any trace, the scale of its entries and of their error
        rho = data.draw(drawn_states(max_d=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ua, ub = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for d in (rho.dA, rho.dB))
        ref = lueders_term_sum(rho, ua, ub)
        out = lueders_product_measurement(rho, ua, ub)
        assert np.abs(out.mat - ref).max() <= 1e-13 * ref.trace().real

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_wrong_shape_names_both_dims(self, rng, dims):
        rho = random_density_matrix(3, 3, rng)
        ua, ub = (np.eye(d) for d in dims)
        with pytest.raises(ValueError, match=rf"\({dims[0]}, {dims[0]}\) and "
                                             rf"\({dims[1]}, {dims[1]}\) do not act on "
                                             rf"local dims \(3, 3\)"):
            lueders_product_measurement(rho, ua, ub)


class TestSmallestRealignedSingularValue:
    """sigma_min(realign(rho)) of the isotropic and Werner families in closed
    form, the basis of comparing bound entangled probes with them."""

    @given(st.integers(2, 6), st.floats(0.0, 1.0))
    def test_closed_forms(self, d, t):
        # realign(Id) has the one singular value d, and the realigned swap F
        # and d |Phi+><Phi+| have d^2 singular values 1, so past its largest
        # each family's realigned spectrum is flat
        alpha = min(-1.0 / (d * d - 1) + t * (1.0 + 1.0 / (d * d - 1)), 1.0)  # the valid range
        assert abs(isotropic(d, alpha).realigned_spectrum[-1] - abs(alpha) / d) <= 1e-15
        f = 2.0 * t - 1.0
        want = min(abs(f * d - 1.0) / (d * (d * d - 1)), 1.0 / d)
        assert abs(werner_f(d, f).realigned_spectrum[-1] - want) <= 1e-15


def sigma_min_ceiling(rho: DensityMatrix, ccnr: float) -> float:
    """(ccnr - 1/sqrt(dA dB)) / (min(dA, dB)^2 - 1), the largest sigma_min a
    state of CCNR norm ``ccnr`` can have."""
    return (ccnr - 1.0 / np.sqrt(rho.dA * rho.dB)) / (min(rho.dA, rho.dB) ** 2 - 1)


class TestSigmaMinCeiling:
    """With e_A = vec(Id)/sqrt(dA) and e_B = vec(Id)/sqrt(dB), e_A^T R(rho)
    e_B = Tr rho / sqrt(dA dB), so sigma_max >= 1/sqrt(dA dB); the other
    min(dA, dB)^2 - 1 singular values are at least sigma_min, which gives
    the ceiling.  CCNR <= 1 on separable states (Chen & Wu, Quantum Inf.
    Comput. 3, 193 (2003); Rudolph, Quantum Inf. Process. 4, 219 (2005))
    then caps their sigma_min at 1/(d(d+1))."""

    @given(st.one_of(drawn_states(), drawn_states(square=True)))
    def test_sigma_min_at_most_the_ceiling(self, rho):
        s = rho.realigned_spectrum
        assert s[-1] <= sigma_min_ceiling(rho, s.sum()) + 1e-12

    @pytest.mark.parametrize("rho", [isotropic(3, 1 / 4), isotropic(4, 1 / 5),
                                     werner_f(4, -1.0), rho_ccnr()],
                             ids=["isotropic3", "isotropic4", "werner4", "rho_ccnr"])
    def test_ceiling_is_tight(self, rho):
        # the isotropic boundary alpha = 1/(d+1) attains the separable
        # ceiling 1/(d(d+1)); Werner f = -1 and rho_ccnr attain 1/12 at CCNR 1.5
        s = rho.realigned_spectrum
        assert abs(s[-1] - sigma_min_ceiling(rho, s.sum())) <= 1e-12


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
        assert _bits(rep.purity) == _bits(purity(fresh))
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

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_ccnr_at_most_one_on_separable_mixtures(self, dA, dB, terms, seed):
        # from 4 terms on (up to 25 at d=5) mixtures of full Schmidt rank are
        # drawn; CCNR <= 1 and TestSigmaMinCeiling's ceiling give sigma_min
        # <= (1 - 1/sqrt(dA dB)) / (min(dA, dB)**2 - 1), for square states
        # 1/(d(d+1)), which the isotropic boundary attains
        rho = random_separable_state(dA, dB, np.random.default_rng(seed), terms=terms)
        assert ccnr_value(rho) <= 1.0 + 1e-9
        assert rho.realigned_spectrum[-1] <= sigma_min_ceiling(rho, 1.0) + 1e-9

    def test_one_svd_per_report(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        # the report computes the state's realigned spectrum on first use
        full_report(rho_ccnr())
        assert len(calls) == 1
