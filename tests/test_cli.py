import json

import numpy as np
import pytest

from beqpt import acceptance, seesaw
from beqpt.bipartite import DensityMatrix
from beqpt.cli import main
from beqpt.reports import operator_file, results_json, write_report
from beqpt.states import random_density_matrix


def read(path):
    with open(path) as fh:
        return json.load(fh)


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
        assert "trace_out_demo" in results

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
        assert results_json(r1) == results_json(r2)

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 2, "max_outer": 40}))
        out = tmp_path / "r.json"
        code = main(["optimize", "--d", "2", "--seed", "1",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["inputs"]["restarts"] == 2
        assert len(rep["results"]["restarts_summary"]) == 2

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["optimize", "--d", "2", "--seed", "1", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("override", [
        {"restarts": 2.5},
        {"projection_tol": float("nan")},
        {"max_outer": True},
    ])
    def test_mistyped_config_exit_2(self, tmp_path, capsys, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        assert main(["optimize", "--d", "2", "--seed", "1", "--config", str(cfg)]) == 2
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

    def test_annihilating_filter_exit_1(self, tmp_path):
        proj = np.zeros((4, 4))
        proj[2, 2] = proj[3, 3] = 1.0
        a_path = tmp_path / "a.json"
        write_report(operator_file(proj), str(a_path))
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
                psd_residual=0.0, restarts_summary=(1.0,),
            )

        monkeypatch.setattr(seesaw, "optimize", fake_optimize)
        row = acceptance.row_seesaw()
        assert not any("seconds" in key for key in row.measured)


class TestStateFileInputs:
    def test_probe_file(self, tmp_path, rng):
        from beqpt.reports import matrix_file

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
