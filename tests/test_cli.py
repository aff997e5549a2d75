import argparse
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from beqpt import acceptance, channels, cli, diagnostics, seesaw, states
from beqpt import tomography as tomo
from beqpt.bipartite import BipartiteOperator, DensityMatrix
from beqpt.cli import main
from beqpt.reports import (
    make_report,
    matrix_file,
    parse_matrix_file,
    report_json,
    to_jsonable,
    write_report,
)
from beqpt.states import random_density_matrix


def read(path):
    with open(path) as fh:
        return json.load(fh)


def write_matrix(path, dims, re):
    """A matrix file with the given real part and a zero imaginary part."""
    path.write_text(json.dumps({"schema_version": 1, "dims": dims, "re": re,
                                "im": [[0.0] * len(row) for row in re]}))
    return str(path)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestDiagnose:
    def test_rho_ccnr(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["diagnose", "--state", "rho-ccnr", "--out", str(out)]) == 0
        rep = read(out)["results"]["report"]
        assert rep["ccnr_value"] == pytest.approx(1.5, abs=1e-10)
        assert rep["ppt"] and rep["faithful"] and rep["ccnr_entangled"]

    def test_isotropic_boundary(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "diagnose", "--state", "isotropic", "--d", "4", "--alpha", "0.2",
            "--out", str(out),
        ])
        assert code == 0
        assert read(out)["results"]["report"]["ccnr_value"] == pytest.approx(1.0, abs=1e-10)

    def test_rudolph_section_and_trace_out_demo(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "diagnose", "--state", "rho-ccnr", "--rudolph-trials", "3",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        results = read(out)["results"]
        assert results["rudolph"]["all_passed"]
        assert "trace_out_demo" not in results

    @pytest.mark.parametrize("d, trials", [(3, 5), (8, 3)])
    def test_rudolph_checks_pass_on_werner(self, tmp_path, d, trials):
        # local unitaries, product ancillas and Lueders measurements leave
        # the realigned trace norm of Werner f = -1 no larger; at d=8 the
        # Lueders basis change is 64 x 64
        out = tmp_path / "r.json"
        assert main(["diagnose", "--state", "werner", "--d", str(d), "--f", "-1",
                     "--rudolph-trials", str(trials), "--seed", "7", "--out", str(out)]) == 0
        assert read(out)["results"]["rudolph"]["all_passed"] is True

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--state", "bell", "--which", "phi+", "--d", "4"],
        ["diagnose", "--state", "werner", "--d", "3", "--f", "-0.5", "--v", "0.2"],
        ["diagnose", "--state", "rho-ccnr", "--seed", "5"],
        ["diagnose", "--file", "state.json", "--d", "4"],
        ["reconstruct", "--probe-file", "state.json", "--alpha", "0.2",
         "--channel", "identity", "--channel-d", "4"],
        ["reconstruct", "--probe", "rho-ccnr", "--channel", "identity",
         "--channel-d", "4", "--p", "0.3"],
        ["reconstruct", "--probe", "rho-ccnr", "--channel", "random-unitary",
         "--channel-d", "4", "--channel-seed", "1", "--kraus", "4"],
        ["filter", "--state", "rho-ccnr", "--filter", "identity",
         "--filter-a", "state.json"],
        # a noise-free reconstruction draws nothing, so it takes no seed
        ["reconstruct", "--probe", "bell", "--which", "phi+", "--channel", "identity",
         "--channel-d", "2", "--seed", "5"],
        ["reconstruct", "--probe", "bell", "--which", "phi+", "--channel", "identity",
         "--channel-d", "2", "--noise", "0", "--seed", "5"],
    ])
    def test_flag_the_entry_does_not_take_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["diagnose", "--state", "rho-ccnr", "--dump-state", "state.json",
                     "--out", "dump.json"]) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert_one_line_error(capsys)

    def test_missing_params_exit_2(self):
        assert main(["diagnose", "--state", "werner", "--d", "4"]) == 2
        assert main(["diagnose", "--state", "isotropic", "--alpha", "0.2"]) == 2
        assert main(["diagnose"]) == 2

    def test_mismatched_dims_file_exit_2(self, tmp_path, capsys):
        bad = {
            "schema_version": 1,
            "dims": [2, 2],
            "re": [[0.0] * 3 for _ in range(3)],
            "im": [[0.0] * 3 for _ in range(3)],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["diagnose", "--file", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bool_dims_file_exit_2(self, tmp_path, capsys):
        bad = {"schema_version": 1, "dims": [True, True], "re": [[1.0]], "im": [[0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["diagnose", "--file", str(path)]) == 2
        assert_one_line_error(capsys)

    def test_overflowing_state_file_exit_2(self, tmp_path, capsys):
        # not a state, and its Hermitian part overflows: rejected before any
        # arithmetic, so no RuntimeWarning reaches stderr
        path = write_matrix(tmp_path / "s.json", [1, 2], [[0.5, 1e308], [1e308, 0.5]])
        assert main(["diagnose", "--file", path]) == 2
        assert_one_line_error(capsys)

    def test_dump_state_roundtrips(self, tmp_path):
        dumped = tmp_path / "state.json"
        out = tmp_path / "r1.json"
        assert main([
            "diagnose", "--state", "werner", "--d", "3", "--f", "-1",
            "--dump-state", str(dumped), "--out", str(out),
        ]) == 0
        out2 = tmp_path / "r2.json"
        assert main(["diagnose", "--file", str(dumped), "--out", str(out2)]) == 0
        assert (read(out)["results"]["report"]["ccnr_value"]
                == read(out2)["results"]["report"]["ccnr_value"])

    def test_failed_out_write_prints_no_summary(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["diagnose", "--state", "bell", "--which", "phi+", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestReconstruct:
    def test_bound_entangled_probe(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe", "rho-ccnr",
            "--channel", "depolarizing", "--channel-d", "4", "--p", "0.3",
            "--out", str(out),
        ])
        assert code == 0
        results = read(out)["results"]
        assert results["verdict"] == "ok"
        assert results["trace_distance"] < 1e-8

    @pytest.mark.parametrize("argv", [
        ["--probe", "isotropic", "--d", "6", "--alpha", "0.5",
         "--channel", "depolarizing", "--channel-d", "6", "--p", "0.3"],
        ["--probe", "rho-ccnr", "--channel", "random-unitary", "--channel-d", "4",
         "--channel-seed", "3"],
        # the largest Kraus set the CLI accepts
        ["--probe", "isotropic", "--d", "16", "--alpha", "0.5", "--channel", "random-cptp",
         "--channel-d", "16", "--kraus", "256", "--channel-seed", "1"],
        # a negative float in exponent form, given as its own word, is a value
        ["--probe", "isotropic", "--d", "3", "--alpha", "-1e-3",
         "--channel", "depolarizing", "--channel-d", "3", "--p", "0.3"],
        ["--probe", "werner", "--d", "3", "--f", "-5e-1",
         "--channel", "dephasing", "--channel-d", "3", "--p", "0.3"],
    ], ids=["d6", "one-kraus", "d16-256-kraus", "alpha-exponent", "f-exponent"])
    def test_reconstruction_is_exact(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert main(["reconstruct", *argv, "--out", str(out)]) == 0
        assert read(out)["results"]["trace_distance"] < 1e-8

    def test_bell_identity(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe", "bell", "--which", "phi+",
            "--channel", "identity", "--channel-d", "2", "--out", str(out),
        ])
        assert code == 0
        assert read(out)["results"]["trace_distance"] < 1e-12

    def test_unfaithful_probe_exit_1(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe", "filtered-werner", "--d", "4", "--v", "0.5",
            "--channel", "identity", "--channel-d", "4", "--out", str(out),
        ])
        assert code == 1
        assert read(out)["results"]["verdict"] == "unfaithful_probe"

    def test_overflowing_probe_file_exit_2(self, tmp_path, capsys):
        # the same overflow at 4x4; without the entry bound eigvalsh fails to converge
        re = np.diag([0.25] * 4)
        re[0, 1] = re[1, 0] = 1e308
        path = write_matrix(tmp_path / "p.json", [2, 2], re.tolist())
        assert main(["reconstruct", "--probe-file", path,
                     "--channel", "identity", "--channel-d", "2"]) == 2
        assert_one_line_error(capsys)

    def test_report_matrices_are_the_run_matrices(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["reconstruct", "--probe", "rho-ccnr-3x3", "--channel", "depolarizing",
                     "--channel-d", "3", "--p", "0.3", "--out", str(out)]) == 0
        results = read(out)["results"]
        run = tomo.run_aaqpt(channels.depolarizing(3, 0.3), states.rho_ccnr_3x3())
        for key in ("choi_reconstructed", "choi_true", "superop_reconstructed"):
            mat, dA, dB = parse_matrix_file(results[key])
            assert [dA, dB] == [3, 3]
            assert np.array_equal(mat, getattr(run, key).mat)
        # one pass over the record gives the report of two passes over its dict
        rep = read(out)
        twice = make_report("reconstruct", rep["inputs"],
                            to_jsonable({**run.to_dict(), "verdict": "ok"}), {})
        assert report_json({**rep, "timings": None}) == report_json({**twice, "timings": None})

    def test_probe_and_channel_dimensions_echo_apart(self, tmp_path):
        # --d and --channel-d each keep their own key in inputs
        out = tmp_path / "r.json"
        assert main(["reconstruct", "--probe", "max-entangled", "--d", "3",
                     "--channel", "identity", "--channel-d", "3", "--out", str(out)]) == 0
        inputs = read(out)["inputs"]
        assert (inputs["d"], inputs["channel_d"]) == (3, 3)

    def test_noise_requires_seed(self):
        code = main([
            "reconstruct", "--probe", "bell", "--which", "phi+",
            "--channel", "identity", "--channel-d", "2", "--noise", "1e-6",
        ])
        assert code == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exit_2(self, capsys, noise):
        code = main([
            "reconstruct", "--probe", "bell", "--which", "phi+",
            "--channel", "identity", "--channel-d", "2", "--noise", noise, "--seed", "1",
        ])
        assert code == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("noise", ["1.0000001", "1e200", "1e308"])
    def test_overflowing_noise_keeps_the_contract(self, capsys, noise):
        # noise scales a perturbation of a trace-1 state, whose Frobenius
        # norm is at most 1; past that the error names the bound
        code = main([
            "reconstruct", "--probe", "bell", "--which", "phi+",
            "--channel", "identity", "--channel-d", "2", "--noise", noise, "--seed", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: noise must be finite and lie in [0, 1], got {float(noise)}\n"

    def test_noise_at_its_bound_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe", "bell", "--which", "phi+",
            "--channel", "identity", "--channel-d", "2", "--noise", "1", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert read(out)["results"]["verdict"] == "ok"

    def test_small_noise_choi_trace_within_budget(self, tmp_path):
        # no weight is clipped here, but the Choi trace is off by ~6e-8:
        # within the noise budget, which the trace check uses
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe", "rho-ccnr-3x3", "--channel", "depolarizing",
            "--channel-d", "3", "--p", "0.9", "--noise", "1e-6", "--seed", "123456",
            "--out", str(out),
        ])
        assert code == 0
        results = read(out)["results"]
        assert results["verdict"] == "ok"
        assert results["trace_distance"] < 1e-5

    def test_noise_budget_exceeded_exit_1(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe", "werner", "--d", "5", "--f", "-0.7",
            "--channel", "identity", "--channel-d", "5", "--noise", "1e-4", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 1
        results = read(out)["results"]
        assert results["verdict"] == "noise_budget_exceeded"
        assert results["clipped_weight"] > results["budget"] == pytest.approx(1e-3, rel=1e-4)


class TestOptimize:
    def test_d2_bounded_and_deterministic(self, tmp_path):
        args = ["optimize", "--d", "2", "--seed", "1",
                "--restarts", "2", "--max-outer", "60"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        r1, r2 = read(out1), read(out2)
        assert r1["results"]["best_value"] <= 1.0 + 1e-6
        assert report_json({**r1, "timings": None}) == report_json({**r2, "timings": None})

    def test_report_carries_restart_telemetry(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["optimize", "--d", "2", "--seed", "3", "--restarts", "4",
                     "--max-outer", "50", "--out", str(out)]) == 0
        results = read(out)["results"]
        assert results["best_restart"] == 2
        assert [r["stop_reason"] for r in results["restarts"]] == [
            "dominated", "dominated", "converged", "converged"]
        assert set(results["restarts"][0]) == {
            "outer_steps", "stop_reason", "dykstra_iters", "cap_hits", "safeguard_resets",
            "final_value", "tail_estimate"}
        # each restart ran past the 20-step window with a geometric tail: the
        # two retired had far more left than the converged two's 1.5e-9 and
        # 2.1e-9; restart 2's reach once fell 1e-12 below the bar, restart
        # 3's value, a tie within OBJECTIVE_TOL that the race keeps, and it
        # ran on to converge above restart 3
        tails = [r["tail_estimate"] for r in results["restarts"]]
        assert all(t > 1e-6 for t in tails[:2]) and all(0 < t < 1e-8 for t in tails[2:])
        assert "restarts_summary" not in results
        lines = capsys.readouterr().out.splitlines()
        assert "best restart  2; stops: converged 2, decreased 0, max_outer 0, dominated 2" in lines
        # the rounds are read from the records, with no field of their own
        iters = sorted(r["dykstra_iters"] for r in results["restarts"])
        assert f"rounds        {iters[-1]} (solo {iters[-1] - iters[-2]})" in lines

    @pytest.mark.parametrize("iters, line", [
        ((5, 9, 7), "rounds        9 (solo 2)"),
        ((9, 4, 9), "rounds        9 (solo 0)"),
        # a stack of one runs every round alone
        ((4,), "rounds        4 (solo 4)"),
    ])
    def test_summary_counts_the_rounds(self, monkeypatch, capsys, iters, line):
        # a round is one stacked Dykstra iteration: the run takes as many as
        # its longest restart and runs that one alone past the second longest
        def fake_optimize(cfg):
            return seesaw.SeesawResult(
                best_state=DensityMatrix(np.eye(4) / 4, 2, 2), best_value=1.0,
                history=(1.0,), ppt_residual=0.0, psd_residual=0.0, best_restart=0,
                restarts=tuple(seesaw.RestartStats(1, "converged", k, 0, 0, 1.0, 0.0)
                               for k in iters),
                final_projection_iters=1)

        monkeypatch.setattr(seesaw, "optimize", fake_optimize)
        assert main(["optimize", "--d", "2", "--seed", "1", "--restarts", str(len(iters))]) == 0
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("overrides, expected_step, expected_tol", [
        # integer module constants run as they stand
        ({"STEP": 1, "PROJECTION_TOL": 1}, "1.0", "1.0"),
        # the default step is 0.1 at every d
        ({}, "0.1", "1e-09"),
    ])
    def test_inputs_echo_the_run_config(self, tmp_path, monkeypatch, overrides,
                                        expected_step, expected_tol):
        for name, value in overrides.items():
            monkeypatch.setattr(seesaw, name, value)
        configs, steps, tols = [], set(), set()
        optimize, dykstra_step, rho_step = seesaw.optimize, seesaw._dykstra_step, seesaw._rho_step

        def spy_optimize(cfg):
            configs.append(cfg)
            return optimize(cfg)

        def spy_dykstra_step(*args):
            tols.update(np.ravel(args[-1]).tolist())
            return dykstra_step(*args)

        def spy_rho_step(mat, y_inv, step):
            steps.add(step)
            return rho_step(mat, y_inv, step)

        monkeypatch.setattr(seesaw, "optimize", spy_optimize)
        monkeypatch.setattr(seesaw, "_rho_step", spy_rho_step)
        monkeypatch.setattr(seesaw, "_dykstra_step", spy_dykstra_step)
        out = tmp_path / "r.json"
        assert main(["optimize", "--d", "3", "--seed", "1", "--restarts", "1",
                     "--max-outer", "4", "--out", str(out)]) == 0
        # exactly the SeesawConfig fields, whatever the module constants;
        # they rebuild the config that ran
        report = read(out)
        inputs = report["inputs"]
        assert json.dumps(inputs, sort_keys=True) == (
            '{"d": 3, "max_outer": 4, "restarts": 1, "seed": 1}')
        assert configs == [seesaw.SeesawConfig(**inputs)]
        # the step and the see-saw projections' tolerances come from the
        # constants: the final projection's, PROJECTION_TOL, and
        # PROJECTION_TOL_SHARE times a recorded gain where that is larger
        assert steps == {float(expected_step)}
        h = report["results"]["history"]
        shares = {seesaw.PROJECTION_TOL_SHARE * (b - a) for a, b in zip(h, h[1:])}
        assert {float(expected_tol), seesaw.FINAL_PROJECTION_TOL} <= tols
        assert tols <= {float(expected_tol), seesaw.FINAL_PROJECTION_TOL} | {
            t for t in shares if t > float(expected_tol)}
        # the projections after the second and third Y-steps stop at a
        # share of the gain, unless the fixed tolerance is the larger
        assert len(tols) == (2 if float(expected_tol) > max(shares) else 4)

    @pytest.mark.parametrize("override", [
        ["--restarts", "2.5"],
        ["--max-outer", "nan"],
        ["--max-outer", "true"],
        ["--restarts", "1e400"],
    ])
    def test_mistyped_config_exit_2(self, capsys, override):
        # a SeesawConfig override flag that is not an integer
        assert main(["optimize", "--d", "2", "--seed", "1", *override]) == 2
        assert_one_line_error(capsys)

    def test_max_outer_past_float_range_exit_2(self, capsys):
        # the race's arithmetic would overflow; the config bounds it first
        assert main(["optimize", "--d", "2", "--seed", "1", "--restarts", "2",
                     "--max-outer", str(10**400)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: max_outer must lie in [1, 9007199254740992]")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--config", "--step", "--projection-tol",
                                      "--objective-tol", "--projection-iters"])
    def test_removed_options_exit_2(self, capsys, flag):
        assert main(["optimize", "--d", "2", "--seed", "1", flag, "1"]) == 2
        assert_one_line_error(capsys)


class TestFilter:
    def test_werner_filters(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "filter", "--state", "werner", "--d", "4", "--v", "0",
            "--filter", "werner", "--out", str(out),
        ])
        assert code == 0
        results = read(out)["results"]
        assert results["after"]["ccnr_value"] == pytest.approx(2.0, abs=1e-9)
        assert results["faithfulness_lost"]

    def test_identity_filters(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "filter", "--state", "rho-ccnr", "--filter", "identity",
            "--out", str(out),
        ])
        assert code == 0
        results = read(out)["results"]
        assert results["before"]["ccnr_value"] == pytest.approx(
            results["after"]["ccnr_value"], abs=1e-12
        )

    def test_identity_filters_on_a_non_square_state(self, tmp_path, rng):
        path, out = tmp_path / "state.json", tmp_path / "r.json"
        write_report(matrix_file(random_density_matrix(2, 3, rng)), str(path))
        assert main(["filter", "--file", str(path), "--filter", "identity",
                     "--out", str(out)]) == 0
        results = read(out)["results"]
        assert results["after"]["dims"] == [2, 3]
        assert results["after"]["ccnr_value"] == pytest.approx(
            results["before"]["ccnr_value"], abs=1e-12)
        assert not results["faithfulness_lost"]

    @pytest.mark.parametrize("state, dims", [
        (["--state", "werner", "--d", "3", "--v", "0"], (3, 3)),
        (["--file", "state.json"], (2, 3)),
    ], ids=["werner-3x3", "file-2x3"])
    def test_wrong_size_filter_file_names_the_local_dims(
            self, tmp_path, monkeypatch, capsys, rng, state, dims):
        monkeypatch.chdir(tmp_path)
        write_report(matrix_file(random_density_matrix(2, 3, rng)), "state.json")
        eye = write_matrix(tmp_path / "a.json", [2, 1], np.eye(2).tolist())
        assert main(["filter", *state, "--filter", "files",
                     "--filter-a", eye, "--filter-b", eye]) == 2
        assert capsys.readouterr().err == (
            f"error: local operators of shapes (2, 2) and (2, 2) do not act on local dims {dims}\n")

    def test_annihilating_filter_exit_1(self, tmp_path):
        proj = np.zeros((4, 4))
        proj[2, 2] = proj[3, 3] = 1.0
        a_path = tmp_path / "a.json"
        write_report(matrix_file(BipartiteOperator(proj, 4, 1)), str(a_path))
        out = tmp_path / "r.json"
        code = main([
            "filter", "--state", "filtered-werner", "--d", "4", "--v", "0.3",
            "--filter", "files", "--filter-a", str(a_path), "--filter-b", str(a_path),
            "--out", str(out),
        ])
        assert code == 1
        assert read(out)["results"]["verdict"] == "annihilated_state"


class TestReproduce:
    def test_exit_codes_and_lines(self, tmp_path, capsys, monkeypatch):
        rows = [
            acceptance.RowResult(key="fake_ok", title="ok row", passed=True, measured={}),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda: [(r, 0.25) for r in rows])
        out = tmp_path / "r.json"
        assert main(["reproduce", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[PASS] fake_ok" in text
        rep = read(out)
        assert rep["results"]["all_passed"]
        # wall times stay out of the reproducible results section
        assert rep["timings"]["rows_s"] == {"fake_ok": 0.25}

        rows.append(
            acceptance.RowResult(key="fake_bad", title="bad row", passed=False, measured={})
        )
        assert main(["reproduce", "--out", str(out)]) == 1
        assert "[FAIL] fake_bad" in capsys.readouterr().out

    def test_seesaw_row_measures_no_wall_time(self, monkeypatch):
        def fake_optimize(cfg):
            n = cfg.d * cfg.d
            return seesaw.SeesawResult(
                best_state=DensityMatrix(np.eye(n) / n, cfg.d, cfg.d),
                best_value=1.0, history=(1.0,), ppt_residual=0.0,
                psd_residual=0.0, best_restart=0,
                restarts=(seesaw.RestartStats(1, "converged", 1, 0, 0, 1.0, 0.0),),
                final_projection_iters=1,
            )

        monkeypatch.setattr(seesaw, "optimize", fake_optimize)
        row = acceptance.row_seesaw()
        assert not any("seconds" in key for key in row.measured)


def _refuse(*args, **kwargs):
    raise AssertionError("constructor called for an out-of-range size")


class TestSizeCaps:
    @pytest.mark.parametrize("argv, module, name", [
        (["diagnose", "--state", "max-entangled", "--d", "17"],
         states, "max_entangled_state"),
        (["diagnose", "--state", "gamma", "--k", "17", "--n", "2", "--eps", "0.1"],
         states, "cariello_gamma"),
        (["reconstruct", "--probe", "bell", "--which", "phi+",
          "--channel", "identity", "--channel-d", "17"], channels, "identity_channel"),
        (["reconstruct", "--probe", "bell", "--which", "phi+", "--channel", "random-cptp",
          "--channel-d", "2", "--channel-seed", "1", "--kraus", "257"], channels, "random_cptp"),
        (["optimize", "--d", "17", "--seed", "1"], seesaw, "SeesawConfig"),
        # one restart past the bound on the (restarts, ANDERSON_MEMORY, 162)
        # Anderson buffers at d=3
        (["optimize", "--d", "3", "--seed", "1", "--restarts",
          str(seesaw.MAX_STACK_ENTRIES // (2 * seesaw.ANDERSON_MEMORY * 3**4) + 1)],
         seesaw, "optimize"),
        (["diagnose", "--state", "bell", "--which", "phi+", "--seed", "1",
          "--rudolph-trials", str(cli.RUDOLPH_TRIALS.cap + 1)], diagnostics, "rudolph_checks"),
        # every flag in its cap, but about 18 CPU-minutes of Rudolph trials;
        # each trial starts with a Haar unitary
        (["diagnose", "--state", "isotropic", "--d", "16", "--alpha", "1", "--seed", "1",
          "--rudolph-trials", "1000"], diagnostics, "haar_unitary"),
    ])
    def test_just_past_the_cap_exit_2_before_allocation(
            self, monkeypatch, capsys, argv, module, name):
        monkeypatch.setattr(module, name, _refuse)
        assert main(argv) == 2
        assert_one_line_error(capsys)

    def test_zero_channel_dimension_exit_2(self, capsys):
        # depolarizing(0, p) used to raise ZeroDivisionError
        assert main(["reconstruct", "--probe", "bell", "--which", "phi+",
                     "--channel", "depolarizing", "--channel-d", "0", "--p", "0.5"]) == 2
        assert_one_line_error(capsys)


@pytest.mark.parametrize("argv, flag, value", [
    (["optimize", "--d", "2", "--seed", "-1", "--restarts", "1", "--max-outer", "2"],
     "--seed", -1),
    (["reconstruct", "--probe", "bell", "--which", "phi+", "--channel", "random-unitary",
      "--channel-d", "2", "--channel-seed", "-4"], "--channel-seed", -4),
    (["reconstruct", "--probe", "bell", "--which", "phi+", "--channel", "identity",
      "--channel-d", "2", "--noise", "1e-6", "--seed", "-1"], "--seed", -1),
    (["diagnose", "--state", "rho-ccnr", "--rudolph-trials", "2", "--seed", "-3"],
     "--seed", -3),
], ids=["optimize", "channel-seed", "reconstruct", "diagnose"])
def test_negative_seed_exit_2_names_its_flag(capsys, argv, flag, value):
    # numpy seeds only from integers >= 0; the parser says which flag is at fault
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: argument {flag}: must be non-negative, got {value}\n")


# (argv, parameter) for every float flag of every state and channel entry;
# the other flags of its set take these values
_VALID = {"--d": "3", "--k": "4", "--n": "2", "--channel-d": "2"}
FLOAT_FLAGS = [
    ([command, *prefix, f"--{kind}", name,
      *(x for q in params if q is not p for x in (q.flag, _VALID[q.flag]))], p)
    for command, prefix, kind, table in (
        ("diagnose", [], "state", cli.STATES),
        ("reconstruct", ["--probe", "bell", "--which", "phi+"], "channel", cli.CHANNELS))
    for name, sets in table.items() for params, _ in sets for p in params if p.type is float
]


@given(st.sampled_from(FLOAT_FLAGS),
       st.one_of(st.sampled_from(["nan", "inf", "-inf"]),
                 st.floats(max_value=-1.5, allow_infinity=False).map(repr)),
       st.booleans())
def test_bad_float_flag_is_named_by_the_library(case, value, joined):
    # the CLI checks only sizes; the constructor refuses a non-finite or
    # out-of-range float and names its own parameter, the flag's dest.  As
    # its own word, a negative value such as -1e+300 or -inf is still a value
    argv, param = case
    err = io.StringIO()
    spelled = [f"{param.flag}={value}"] if joined else [param.flag, value]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main([*argv, *spelled]) == 2
    err = err.getvalue()
    assert re.match(rf"error: {param.dest}[ =]", err) and err.count("\n") == 1, err


@st.composite
def _flag_value(draw, param, d):
    """A command-line value for a table parameter: mostly in range, else
    missing (None), just past the cap, negative, 0, non-finite or huge."""
    kind = draw(st.integers(0, 14))
    if kind == 0:
        return None
    if kind == 1:
        edge = ["-1", "0", "nan", "inf", "-inf", "1e200", "1e308"]
        return draw(st.sampled_from(edge + ([str(param.cap + 1)] if param.cap else [])))
    if param.choices:
        return draw(st.sampled_from(param.choices))
    if param.cap is not None:
        return str(d if kind > 3 else draw(st.integers(1, min(param.cap, 4))))
    if param.type in (int, cli.seed):
        return str(draw(st.integers(1, 2)))
    if param.type is str:
        return draw(st.sampled_from(["eye.json", "proj.json", "big.json", "huge.json"]))
    return str(draw(st.floats(0.0, 1.0)))


@st.composite
def table_commands(draw):
    """An argv for one command, with names drawn from the CLI's tables."""
    d = draw(st.integers(2, 4))
    command = draw(st.sampled_from(["diagnose", "reconstruct", "filter", "optimize"]))
    if command == "optimize":
        # past the stack bound at every d >= 2
        restarts = draw(st.sampled_from(["1", str(seesaw.MAX_STACK_ENTRIES // 2**4 + 1)]))
        argv = ["optimize", "--seed", "1", "--restarts", restarts]
        value = draw(_flag_value(cli.D, d))
        argv += [] if value is None else [cli.D.flag, value]
        # --max-outer is always given: its default would run 500 steps
        max_outer = cli.TUNABLES[-1]
        return argv + [max_outer.flag, draw(_flag_value(max_outer, d).filter(bool))]
    kinds = {"diagnose": [("state", cli.STATES)],
             "reconstruct": [("probe", cli.STATES), ("channel", cli.CHANNELS)],
             "filter": [("state", cli.STATES), ("filter", cli.FILTERS)]}[command]
    argv, used = [command], set()
    for kind, table in kinds:
        name = draw(st.sampled_from(sorted(table)))
        argv += [f"--{kind}", name]
        d = {"bell": 2, "rho-ccnr-3x3": 3, "rho-ccnr": 4}.get(name, d)
        # one parameter set, so a werner draw takes --f or --v, not both
        params, _ = draw(st.sampled_from(table[name]))
        for param in params:
            used.add(param.flag)
            value = draw(_flag_value(param, d))
            if value is not None:
                argv += [param.flag, value]
    # now and then a flag of another set or entry: exit 2 unless it is the default
    if draw(st.integers(0, 9)) == 0:
        others = {p.flag: p for _, table in kinds for p in cli._table_params(table)}
        param = others[draw(st.sampled_from(sorted(others.keys() - used)))]
        value = draw(_flag_value(param, d))
        argv += [] if value is None else [param.flag, value]
    if command == "reconstruct":
        noise = draw(st.sampled_from([None, "1e-6", "1e-3", "1e200"]))
        if noise is not None:
            argv += ["--noise", noise, "--seed", "1"]
        elif draw(st.integers(0, 4)) == 0:
            argv += ["--seed", "1"]  # a seed without noise: exit 2
    return argv


VERDICTS = {verdict for verdict, _ in cli.VERDICTS.values()}


@pytest.fixture(scope="module")
def filter_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("filters")
    write_report(matrix_file(BipartiteOperator(np.eye(2), 2, 1)), str(work / "eye.json"))
    write_report(matrix_file(BipartiteOperator(np.diag([0.0, 0.0, 1.0, 1.0]), 4, 1)),
                 str(work / "proj.json"))
    # not a contraction, and A^dag A overflows
    write_report(matrix_file(BipartiteOperator(np.diag([1e200, 0.0]), 2, 1)), str(work / "big.json"))
    # an integer entry too large for a float
    (work / "huge.json").write_text(json.dumps(
        {"schema_version": 1, "dims": [1, 1], "re": [[10**400]], "im": [[0]]}))
    # deeper than the parser's recursion limit
    (work / "deep.json").write_text("[" * 100000 + "]" * 100000)
    return work


class TestExitCodeContract:
    @pytest.mark.parametrize("argv", [["--help"], ["diagnose", "--help"]])
    def test_help_exits_0(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue().startswith("usage: ")

    @settings(max_examples=300)
    @given(argv=table_commands())
    @example(argv=["reconstruct", "--probe", "filtered-werner", "--d", "4", "--v", "0.5",
                   "--channel", "identity", "--channel-d", "4"])
    @example(argv=["filter", "--state", "filtered-werner", "--d", "4", "--v", "0.3",
                   "--filter", "files", "--filter-a", "proj.json", "--filter-b", "proj.json"])
    @example(argv=["filter", "--state", "werner", "--d", "2", "--f", "0.5",
                   "--filter", "files", "--filter-a", "big.json", "--filter-b", "big.json"])
    @example(argv=["diagnose", "--file", "huge.json"])
    @example(argv=["diagnose", "--file", "deep.json"])
    # a finite flag whose arithmetic overflows: the trace k^2+k+eps*n
    @example(argv=["diagnose", "--state", "gamma", "--k", "4", "--n", "2", "--eps", "1e308"])
    def test_exit_codes(self, filter_dir, argv):
        argv = [str(filter_dir / a) if a.endswith(".json") else a for a in argv]
        out = filter_dir / "r.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        err = err.getvalue()
        event(f"exit {code} {argv[0]}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
            verdict = read(out)["results"].get("verdict")
            assert verdict in ((None, "ok") if code == 0 else VERDICTS)


def _parser_state(parser):
    """What parse_args could change on a parser and its subparsers: the
    error hook, the defaults and each action's default, type and choices."""
    state, todo = [], [parser]
    while todo:
        p = todo.pop()
        state.append((p.prog, p.error.__func__, dict(p._defaults),
                      [(a.dest, a.default, a.type, a.choices, a.required) for a in p._actions]))
        todo += [sub for a in p._actions if isinstance(a, argparse._SubParsersAction)
                 for sub in a.choices.values()]
    return state


class TestParserReuse:
    ARGVS = [
        ["diagnose", "--state", "werner", "--d", "3", "--f", "-0.7"],
        ["reconstruct", "--probe", "isotropic", "--d", "3", "--alpha", "0.5",
         "--channel", "depolarizing", "--channel-d", "3", "--p", "0.3"],
        ["filter", "--state", "werner", "--d", "3", "--v", "0.4", "--filter", "werner"],
        ["optimize", "--d", "2", "--seed", "1", "--restarts", "1", "--max-outer", "2"],
        ["diagnose", "--state", "no-such-state"],  # a usage error
    ]

    def _run(self, argv, out, capsys):
        out.unlink(missing_ok=True)
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        return code, read(out)["results"] if out.exists() else err

    def test_one_parser_serves_every_command(self, tmp_path, capsys):
        def makers():
            return [(name, [make for _, make in sets]) for table in
                    (cli.STATES, cli.CHANNELS, cli.FILTERS) for name, sets in table.items()]

        parser, tables = cli.build_parser(), makers()
        before = _parser_state(parser)
        out = tmp_path / "r.json"
        reused = [self._run(argv, out, capsys) for argv in self.ARGVS]
        assert cli.build_parser() is parser
        assert _parser_state(parser) == before and makers() == tables
        fresh = []
        for argv in self.ARGVS:
            cli.build_parser.cache_clear()
            fresh.append(self._run(argv, out, capsys))
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 0, 0, 0, 2]


class TestStateFileInputs:
    def test_probe_file(self, tmp_path, rng):
        probe = random_density_matrix(2, 2, rng)
        path = tmp_path / "probe.json"
        write_report(matrix_file(probe), str(path))
        out = tmp_path / "r.json"
        code = main([
            "reconstruct", "--probe-file", str(path),
            "--channel", "depolarizing", "--channel-d", "2", "--p", "0.5",
            "--out", str(out),
        ])
        # a random full-rank state is faithful with high probability
        assert code == 0
        assert read(out)["results"]["trace_distance"] < 1e-6

    def test_state_and_file_both_given_exit_2(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["diagnose", "--state", "rho-ccnr", "--file", str(path)]) == 2


def _readme_commands():
    """Each ``beqpt`` line of the README's sh blocks, continuations joined,
    as (argv, the exit code its comment names); ``reproduce`` is left to
    the acceptance tests, which run its rows one by one."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cases = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["beqpt"] and argv[1] != "reproduce":
                slow = argv[1:] == ["optimize", "--d", "3", "--seed", "1"]
                cases.append(pytest.param(argv[1:], 1 if "exits 1" in comment else 0,
                                          id=" ".join(argv[1:]),
                                          marks=[pytest.mark.slow] if slow else []))
    return cases


class TestReadmeExamples:
    @pytest.mark.parametrize("argv, code", _readme_commands())
    def test_example_runs(self, tmp_path, monkeypatch, capsys, argv, code):
        monkeypatch.chdir(tmp_path)  # the examples read state.json from here
        assert main(["diagnose", "--state", "rho-ccnr", "--dump-state", "state.json",
                     "--out", "dump.json"]) == 0
        assert main([*argv, "--out", "r.json"]) == code
        assert capsys.readouterr().err == ""
        text = Path("r.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
