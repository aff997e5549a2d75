import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beqpt import channels
from beqpt.bipartite import BipartiteOperator, realign, singular_values
from beqpt.channels import (
    ChoiMatrix,
    choi_of,
    depolarizing,
    identity_channel,
    random_cptp,
)
from beqpt.diagnostics import ccnr_value, full_report, is_faithful
from beqpt.states import (
    filtered_werner_closed_form,
    isotropic,
    max_entangled_state,
    random_density_matrix,
    rho_ccnr,
    werner_f,
)
from beqpt.tomography import (
    EXACT_CLIP_BUDGET,
    NoiseBudgetExceeded,
    ReconstructionResult,
    UnfaithfulProbe,
    reconstruct_superop,
    run_aaqpt,
    simulate_output,
    superop_to_choi,
    trace_distance,
)

from conftest import drawn_states, kraus_sum


def midranks(x):
    """Ranks from 1, each tie taking the mean of the ranks it spans: an
    entry with k smaller and m equal values (itself included) gets
    k + (m + 1) / 2."""
    x = np.asarray(x, dtype=float)
    below = (x[None, :] < x[:, None]).sum(axis=1)
    at_most = (x[None, :] <= x[:, None]).sum(axis=1)
    return (below + at_most + 1) / 2.0


class TestSimulateOutput:
    def test_identity_channel(self, rng):
        probe = random_density_matrix(3, 3, rng)
        out = simulate_output(identity_channel(3), probe)
        assert np.allclose(out.mat, probe.mat)

    def test_max_entangled_probe_gives_choi(self):
        ch = depolarizing(4, 0.3)
        out = simulate_output(ch, max_entangled_state(4))
        assert np.abs(out.mat - choi_of(ch).mat).max() <= 1e-12

    def test_output_is_valid_state(self, rng):
        out = simulate_output(random_cptp(3, 3, seed=2), random_density_matrix(3, 3, rng))
        assert out.mat.trace().real == pytest.approx(1.0, abs=1e-10)


class TestReconstructSuperop:
    def test_forward_identity_holds(self, rng):
        # load-bearing identity: realign(output) = E_hat realign(probe), with
        # the output formed as the Kraus sum, not through E_hat
        ch = random_cptp(3, 3, seed=11)
        probe = random_density_matrix(3, 3, rng)
        out = kraus_sum(ch, probe)
        lhs = realign(BipartiteOperator(out, 3, 3))
        rhs = ch.superoperator @ realign(probe)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_max_entangled_probe_shortcut(self):
        # realign(|Phi+><Phi+|) = Id/d, so E_hat = d * realign(output)
        d = 4
        ch = depolarizing(d, 0.3)
        probe = max_entangled_state(d)
        out = simulate_output(ch, probe)
        e_hat = reconstruct_superop(out, probe)
        assert np.abs(e_hat - d * realign(out)).max() <= 1e-10
        choi = superop_to_choi(e_hat, d)
        assert np.abs(choi.mat - out.mat).max() <= 1e-10

    def test_bound_entangled_probe(self):
        ch = depolarizing(4, 0.3)
        probe = rho_ccnr()
        e_hat = reconstruct_superop(simulate_output(ch, probe), probe)
        assert np.abs(e_hat - ch.superoperator).max() <= 1e-8

    def test_unfaithful_probe_rejected(self):
        probe = filtered_werner_closed_form(4, 0.5)
        out = simulate_output(identity_channel(4), probe)
        with pytest.raises(UnfaithfulProbe) as err:
            reconstruct_superop(out, probe)
        assert err.value.sigma_min <= 1e-9 * err.value.sigma_max

    @pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
    def test_mismatched_output_dims_rejected(self, rng, dims):
        out = random_density_matrix(*dims, rng)
        with pytest.raises(ValueError, match=rf"output dims \({dims[0]}, {dims[1]}\) "
                                             r"do not match probe dims \(2, 2\)"):
            reconstruct_superop(out, max_entangled_state(2))


class TestSuperopToChoi:
    def test_identity_superop(self):
        choi = superop_to_choi(np.eye(9), 3)
        assert np.abs(choi.mat - max_entangled_state(3).mat).max() <= 1e-12

    def test_roundtrip_with_choi_of(self):
        ch = random_cptp(3, 4, seed=21)
        choi = superop_to_choi(ch.superoperator, 3)
        assert np.abs(choi.mat - choi_of(ch).mat).max() <= 1e-10

    def test_fully_depolarizing_d2(self):
        choi = superop_to_choi(depolarizing(2, 1.0).superoperator, 2)
        assert np.allclose(choi.mat, np.eye(4) / 4, atol=1e-12)

    def test_negative_weight_beyond_budget_rejected(self):
        # a "Choi" with eigenvalue -0.1 is far outside any noise budget
        bad = np.diag([0.6, 0.5, 0.0, -0.1])
        e_hat = 2 * realign(BipartiteOperator(bad, 2, 2))
        with pytest.raises(ValueError, match="not PSD"):
            superop_to_choi(e_hat, 2, noise_level=1e-4)

    def test_rejection_carries_weight_and_budget(self):
        bad = np.diag([0.6, 0.5, 0.0, -0.1])
        e_hat = 2 * realign(BipartiteOperator(bad, 2, 2))
        with pytest.raises(NoiseBudgetExceeded) as info:
            superop_to_choi(e_hat, 2, noise_level=1e-4)
        assert info.value.clipped_weight == pytest.approx(0.1)
        assert info.value.budget == pytest.approx(1e-3 + 1e-8)

    def test_choi_check_failure_is_a_budget_verdict(self):
        # PSD with trace 1 but not trace preserving: no weight is clipped,
        # yet the result is not a channel within the budget
        bad = np.diag([0.5, 0.0, 0.5, 0.0])
        e_hat = 2 * realign(BipartiteOperator(bad, 2, 2))
        with pytest.raises(NoiseBudgetExceeded, match="trace preservation") as info:
            superop_to_choi(e_hat, 2, noise_level=1e-4)
        assert str(info.value.clipped_weight) == "0.0"  # reported, so not -0.0

    @given(st.integers(2, 4), st.data(), st.sampled_from([0.0, 1e-4]),
           st.sampled_from([-3.0, 3.0, None]))
    def test_scaled_channel_rejected(self, d, data, noise, excess):
        # c E has trace c; a roundoff-sized clip renormalizes the trace, so
        # it is checked first: c is 1 -+ 3 budgets or, for None, 5
        ch = random_cptp(d, data.draw(st.integers(1, d * d)), data.draw(st.integers(0, 199)))
        c = 5.0 if excess is None else 1.0 + excess * (10.0 * noise + EXACT_CLIP_BUDGET)
        with pytest.raises(NoiseBudgetExceeded):
            superop_to_choi(c * ch.superoperator, d, noise_level=noise)

    def test_small_negative_weight_clipped(self):
        eps = 1e-6
        bad = np.diag([0.5 + eps, 0.5, 0.0, -eps])
        e_hat = 2 * realign(BipartiteOperator(bad, 2, 2))
        choi = superop_to_choi(e_hat, 2, noise_level=eps)
        evals = np.linalg.eigvalsh(choi.mat)
        assert evals.min() >= -1e-14
        assert choi.mat.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            superop_to_choi(np.eye(8), 3)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_is_malformed(self, entry):
        # malformed input, not the domain verdict NoiseBudgetExceeded: a
        # plain ValueError that names the argument (d is checked with the
        # other named parameters in test_bipartite)
        e_hat = np.eye(4)
        e_hat[0, 1] = entry
        with pytest.raises(ValueError, match="^e_hat ") as info:
            superop_to_choi(e_hat, 2)
        assert type(info.value) is ValueError


class TestTraceDistance:
    def test_range_and_symmetry(self):
        a = ChoiMatrix(max_entangled_state(2).mat, 2)
        b = ChoiMatrix(np.eye(4) / 4, 2)
        d1 = trace_distance(a, b)
        assert 0.0 <= d1 <= 1.0
        assert d1 == pytest.approx(trace_distance(b, a))
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_choi_states(self):
        # distance 1 for orthogonal states: identity vs a swap-like unitary
        ua = np.eye(2)
        ub = np.array([[0, 1], [1, 0]], dtype=complex)
        from beqpt.channels import unitary_channel

        d = trace_distance(choi_of(unitary_channel(ua)), choi_of(unitary_channel(ub)))
        assert d == pytest.approx(1.0, abs=1e-12)


class TestRunAaqpt:
    def test_exact_roundtrips(self):
        probes = [
            max_entangled_state(4),
            rho_ccnr(),
            werner_f(4, -1.0),
            isotropic(4, 0.2),
        ]
        for probe in probes:
            res = run_aaqpt(depolarizing(4, 0.3), probe)
            assert res.trace_distance < 1e-8
            assert res.noise_level == 0.0

    @given(drawn_states(square=True).filter(lambda rho: is_faithful(rho)[0]), st.data())
    def test_noise_free_roundtrip_is_exact(self, probe, data):
        # solving against the realigned probe amplifies roundoff by its
        # condition number kappa: in 9,000 separate draws from this
        # distribution (d in 2..5, every probe faithful) the trace distance
        # was at most 1.5 kappa eps, largest at d=2
        d = probe.dA
        ch = random_cptp(d, data.draw(st.integers(1, d * d)),
                         data.draw(st.integers(0, 2**32 - 1)))
        res = run_aaqpt(ch, probe)
        kappa = res.probe_report.condition_number
        assert res.trace_distance <= 20 * kappa * np.finfo(float).eps

    @settings(max_examples=150)
    @given(drawn_states(square=True).filter(lambda rho: is_faithful(rho)[0]), st.data(),
           st.floats(-6.0, -2.0))
    def test_noisy_superop_error_is_bounded(self, probe, data, log_noise):
        # the density-set projection does not increase distances and the
        # true output lies in that set, so the output moves by at most
        # noise; realignment keeps the Frobenius norm, and solving against the
        # realigned probe scales it by at most 1/sigma_min
        d, noise = probe.dA, 10.0**log_noise
        ch = random_cptp(d, data.draw(st.integers(1, d * d)),
                         data.draw(st.integers(0, 2**32 - 1)))
        try:
            res = run_aaqpt(ch, probe, noise=noise, seed=data.draw(st.integers(0, 2**32 - 1)))
        except NoiseBudgetExceeded:
            reject()
        err = np.linalg.norm(res.superop_reconstructed.mat - ch.superoperator)
        sigma_min = probe.realigned_spectrum[-1]
        # the solve adds roundoff: in 9,000 separate noise-free draws from
        # this distribution ||E_hat - E||_F was at most 1.8 kappa eps, and in
        # the 1,738 noisy draws the budget accepted out of 3,000 the error
        # reached at most 0.88 of noise / sigma_min
        kappa = res.probe_report.condition_number
        assert err <= noise / sigma_min + 10 * kappa * np.finfo(float).eps

    def test_bell_identity_is_near_exact(self):
        res = run_aaqpt(identity_channel(2), max_entangled_state(2))
        assert res.trace_distance < 1e-12

    def test_seed_required_for_noise(self):
        with pytest.raises(ValueError, match="seed"):
            run_aaqpt(identity_channel(2), max_entangled_state(2), noise=1e-6)
        with pytest.raises(ValueError):
            run_aaqpt(identity_channel(2), max_entangled_state(2), noise=-1.0, seed=0)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_aaqpt(identity_channel(2), max_entangled_state(2), noise=1e-6, seed=-1)

    def test_noise_is_deterministic_in_seed(self):
        a = run_aaqpt(depolarizing(4, 0.3), rho_ccnr(), noise=1e-6, seed=5)
        b = run_aaqpt(depolarizing(4, 0.3), rho_ccnr(), noise=1e-6, seed=5)
        assert a.trace_distance == b.trace_distance

    def test_unfaithful_probe_propagates(self):
        with pytest.raises(UnfaithfulProbe):
            run_aaqpt(identity_channel(4), filtered_werner_closed_form(4, 0.5))

    @pytest.mark.parametrize("kwargs, message", [
        ({"noise": True, "seed": 1}, "noise must be a real number"),
        ({"noise": 1e-6 + 0j, "seed": 1}, "noise must be a real number"),
        ({"noise": "0.1", "seed": 1}, "noise must be a real number"),
        ({"noise": 1e-6, "seed": True}, "seed must be an integer"),
        ({"noise": 1e-6, "seed": 1.5}, "seed must be an integer"),
        ({"noise": 0.0, "seed": 1.0}, "seed must be an integer"),
    ])
    def test_wrong_typed_parameters_are_named(self, kwargs, message):
        # noise=True ran at noise 1.0 and seed=True as seed 1
        with pytest.raises(ValueError, match=message):
            run_aaqpt(identity_channel(2), max_entangled_state(2), **kwargs)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="finite"):
            run_aaqpt(identity_channel(2), max_entangled_state(2), noise=noise, seed=0)

    def test_nonsquare_probe_is_malformed_not_unfaithful(self, rng):
        probe = random_density_matrix(2, 3, rng)
        with pytest.raises(ValueError, match="square") as err:
            run_aaqpt(identity_channel(2), probe)
        assert not isinstance(err.value, UnfaithfulProbe)
        with pytest.raises(ValueError, match="square"):
            reconstruct_superop(simulate_output(identity_channel(2), probe), probe)

    def test_unfaithful_fields_come_from_the_probe_spectrum(self):
        probe = filtered_werner_closed_form(4, 0.5)
        s = singular_values(realign(probe))
        with pytest.raises(UnfaithfulProbe) as via_run:
            run_aaqpt(identity_channel(4), probe)
        with pytest.raises(UnfaithfulProbe) as via_superop:
            reconstruct_superop(simulate_output(identity_channel(4), probe), probe)
        for err in (via_run.value, via_superop.value):
            assert (err.sigma_min, err.sigma_max) == (float(s[-1]), float(s[0]))


    def test_error_tracks_probe_conditioning(self):
        # probes ordered by condition number of the realigned matrix:
        # 1 (max entangled), 3 (bound entangled), 3 (Werner), 5 (isotropic
        # boundary); reconstruction error at fixed noise must follow that
        # order (Spearman > 0.9, ties handled by midranks)
        probes = [
            max_entangled_state(4),
            rho_ccnr(),
            werner_f(4, -1.0),
            isotropic(4, 0.2),
        ]
        ch = depolarizing(4, 0.3)
        kappas = []
        errors = []
        for probe in probes:
            runs = [
                run_aaqpt(ch, probe, noise=1e-6, seed=seed).trace_distance
                for seed in range(8)
            ]
            res = run_aaqpt(ch, probe)
            # round so the analytically equal condition numbers (both
            # exactly 3) tie and get midranked instead of being ordered
            # by floating-point noise
            kappas.append(round(res.probe_report.condition_number, 9))
            errors.append(float(np.mean(runs)))
        # Spearman's rho: the Pearson correlation of the midranks
        corr = np.corrcoef(midranks(kappas), midranks(errors))[0, 1]
        assert corr > 0.9

    def test_result_fields(self):
        res = run_aaqpt(depolarizing(4, 0.3), rho_ccnr())
        assert isinstance(res, ReconstructionResult)
        assert res.probe_report.condition_number == pytest.approx(3.0, abs=1e-9)
        assert res.choi_true is not None
        assert res.probe_report.ppt


class TestFactorizationCount:
    """One spectrum SVD per probe, and one solve per reconstruction once
    the gate passes."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"svd": 0, "pinv": 0, "solve": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    def test_faithful_run(self, monkeypatch, noise):
        ch, probe = depolarizing(4, 0.3), rho_ccnr()
        calls = self._count(monkeypatch)
        run_aaqpt(ch, probe, noise=noise, seed=3)
        # the probe's one SVD, its realigned spectrum, happens at first use,
        # inside the run: the probe report takes it and the gate shares it
        assert calls["svd"] == 1
        assert calls["pinv"] == 0
        assert calls["solve"] == 1
        # validating the output state, the probe report's PPT test, the
        # reconstructed and the true Choi matrix, the trace distance, and
        # with noise the projected output; the probe's own eigenvalues come
        # from its validation
        assert calls["eigvalsh"] == (6 if noise else 5)

    def test_one_svd_per_probe(self, monkeypatch):
        calls = self._count(monkeypatch)
        probe = rho_ccnr()
        full_report(probe)
        ccnr_value(probe)
        is_faithful(probe)
        run_aaqpt(depolarizing(4, 0.3), probe)
        run_aaqpt(identity_channel(4), probe)
        # the first report computes the only realigned spectrum, which every
        # later reader shares, and each reconstruction solves against the
        # realigned probe
        assert calls["svd"] == 1
        assert calls["pinv"] == 0
        assert calls["solve"] == 2

    def test_simulate_output_reuses_probe_spectrum(self, monkeypatch):
        ch, probe = depolarizing(4, 0.3), rho_ccnr()
        calls = self._count(monkeypatch)
        simulate_output(ch, probe)
        assert calls["eigvalsh"] == 1  # the output's validation only

    def test_one_superoperator_per_run(self, monkeypatch):
        # the simulation and the true Choi state read the channel's one
        # E_hat: its build forms one product per Kraus operator, and a
        # second run on the same channel forms none
        ch, probe = depolarizing(4, 0.3), rho_ccnr()
        products, kron = [], channels._kron
        monkeypatch.setattr(channels, "_kron", lambda a, b: products.append(a) or kron(a, b))
        run_aaqpt(ch, probe)
        assert len(products) == len(ch.kraus) == 17
        run_aaqpt(ch, probe)
        assert len(products) == 17

    def test_unfaithful_run(self, monkeypatch):
        ch, probe = identity_channel(4), filtered_werner_closed_form(4, 0.5)
        calls = self._count(monkeypatch)
        with pytest.raises(UnfaithfulProbe):
            run_aaqpt(ch, probe)
        assert calls == {"svd": 1, "pinv": 0, "solve": 0, "eigvalsh": 2}
