import json
import pathlib
import re
import subprocess
import sys

import pytest

from bessel_lab import cli
from bessel_lab.cli import main
from bessel_lab.quadrature import QuadratureError

CASES = {
    "cases": [
        {"id": "d3_closed", "delta": 3, "a": 0, "ap": 0, "mode": "bridge",
         "h": {"type": "bump", "theta": 0.2}},
        {"id": "d25_atom", "delta": 2.5, "a": 1, "ap": 0, "mode": "bridge",
         "phi": [{"coef": 1.0,
                  "measure": {"atoms": [{"t": 0.6, "w": 1.0}]}}]},
    ]
}


@pytest.fixture
def cases_file(tmp_path):
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(CASES))
    return str(path)


class TestExitCodes:
    def test_pass_is_zero(self, cases_file, tmp_path, capsys):
        code = main(["ibpf-check", "--config", cases_file,
                     "--out", str(tmp_path / "rep")])
        assert code == 0

    def test_corrupted_json_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cases": [')
        code = main(["ibpf-check", "--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_two(self, capsys):
        assert main(["ibpf-check", "--config", "/nonexistent.json"]) == 2

    def test_failing_tolerance_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps({
            "cases": [{"id": "impossible", "delta": 2.5, "a": 1,
                       "tol": 1e-300}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 1

    def test_empty_case_list(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"cases": []}))
        out = tmp_path / "rep"
        assert main(["run-suite", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text()) == []

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps({
            "cases": [{"id": "x", "delta": 3}, {"id": "x", "delta": 2}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 2

    def test_null_delta_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"cases": [{"delta": None}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_tol_flag_applies_to_cases_without_tol(self, tmp_path, capsys):
        cfg = tmp_path / "d3.json"
        cfg.write_text(json.dumps({"cases": [{"id": "d3", "delta": 3}]}))
        for jobs in ("1", "2"):
            assert main(["ibpf-check", "--config", str(cfg), "--tol",
                         "1e-300", "--jobs", jobs]) == 1
            assert json.loads(capsys.readouterr().out)[0]["pass"] is False

    def test_auto_ids_tell_cases_apart(self, tmp_path, capsys):
        atom = {"measure": {"atoms": [{"t": 0.6, "w": 1.0}]}}
        cfg = tmp_path / "auto.json"
        cfg.write_text(json.dumps({"cases": [
            {"delta": 3}, {"delta": 3, "phi": [atom]},
            {"delta": 3, "tol": 1e-4},
            {"delta": 3, "h": {"type": "bump", "theta": 0.2000001}}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 0
        ids = [r["case_id"] for r in json.loads(capsys.readouterr().out)]
        assert len(set(ids)) == 4
        assert all(re.fullmatch(r"d3_a0_ap0_bridge_bump\(0\.2\)_[0-9a-f]{8}",
                                i) for i in ids)
        # stable: the same case gets the same id in a later run
        assert main(["ibpf-check", "--config", str(cfg)]) == 0
        assert [r["case_id"] for r in
                json.loads(capsys.readouterr().out)] == ids

    def test_usage_error_is_two(self, capsys):
        assert main(["ibpf-check"]) == 2

    @pytest.mark.parametrize("command,config,field", [
        ("ibpf-check", [], "must be a JSON object"),
        ("run-suite", [{"delta": 3}], "must be a JSON object"),
        ("sigma", [], "must be a JSON object"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": {"coef": 1.0}}]},
         '"phi"'),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [1]}]}, '"phi"'),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"measure": 1}]}]},
         "measure must be a JSON object"),
        ("ibpf-check", {"cases": [{"delta": 3, "h": "bump"}]}, '"h"'),
        ("run-suite", {"spde": "x"}, '"spde"'),
        ("sigma", {"delta": 2, "measure": []},
         "measure must be a JSON object"),
        ("ibpf-check", {"cases": [{"delta": 3, "tol": "x"}]}, "'tol'"),
        ("ibpf-check", {"cases": [{"delta": 3, "tol": [1]}]}, "'tol'"),
        ("ibpf-check", {"cases": [{"delta": 3, "h": {"theta": None}}]},
         "'theta'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": "x"}, "'mc'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "seed": [1]}, "'seed'"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"coef": "x"}]}]},
         "'coef'"),
        ("run-suite", {"spde": {"K": "x"}}, "'K'"),
        ("ibpf-check", {"cases": [{"delta": 3, "id": [1]}]}, "'id'"),
        ("ibpf-check", {"cases": [{"delta": 3, "h": {"theta": 0.7}}]},
         "'theta'"),
        ("ibpf-check", {"cases": [{"delta": 3, "mode": "x"}]}, "'mode'"),
        ("sigma", {"delta": 2, "measure": {}, "mode": "x"}, "'mode'")])
    def test_wrong_json_type_is_two(self, command, config, field, tmp_path,
                                    capsys):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err


    def test_bad_jobs_env_is_two(self, cases_file, capsys, monkeypatch):
        monkeypatch.setenv("BESSEL_LAB_JOBS", "x")
        assert main(["ibpf-check", "--config", cases_file]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "BESSEL_LAB_JOBS" in err

    def test_number_id_stays_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "ids.json"
        cfg.write_text(json.dumps({"cases": [{"delta": 3, "id": 5},
                                             {"delta": 3, "id": 0},
                                             {"delta": 3, "id": "a"}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 0
        ids = [r["case_id"] for r in json.loads(capsys.readouterr().out)]
        assert ids == [5, 0, "a"]


class TestReports:
    def test_schema_and_columns(self, cases_file, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["ibpf-check", "--config", cases_file, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert [r["case_id"] for r in report] == ["d3_closed", "d25_atom"]
        assert set(report[0]) == {"case_id", "lhs_analytic", "lhs_mc",
                                  "stderr", "rhs", "abs_err", "rel_err",
                                  "pass"}
        csv_text = (out / "report.csv").read_text().splitlines()
        assert csv_text[0] == ("case_id,lhs_analytic,lhs_mc,stderr,rhs,"
                               "abs_err,rel_err,pass")
        assert len(csv_text) == 3

    def test_byte_determinism(self, cases_file, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["ibpf-check", "--config", cases_file, "--out", str(out),
                  "--seed", "7"])
            outs.append(((out / "report.json").read_bytes(),
                         (out / "report.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_jobs_env_fallback(self, cases_file, tmp_path, capsys,
                               monkeypatch):
        monkeypatch.setenv("BESSEL_LAB_JOBS", "2")
        out = tmp_path / "rep"
        assert main(["ibpf-check", "--config", cases_file,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(r["pass"] for r in report)


class TestDataCommands:
    def test_density_csv(self, capsys):
        assert main(["density", "--delta", "2", "--r", "0.5", "--n", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "b,p"
        assert len(lines) == 6

    @pytest.mark.parametrize("n", [0, 1])
    def test_density_short_grid(self, n, capsys):
        # below dimension 1 the point b = 0 moves to 1e-12
        assert main(["density", "--delta", "0.5", "--r", "0.5",
                     "--n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "b,p"
        assert [line.split(",")[0] for line in lines[1:]] == ["1e-12"] * n

    def test_mu_value(self, capsys):
        assert main(["mu", "--alpha", "-1.5", "--fn", "exp",
                     "--lambda", "2.0"]) == 0
        val = json.loads(capsys.readouterr().out)["value"]
        assert val == pytest.approx(2.0**1.5, rel=1e-8)

    def test_mu_unknown_fn(self, capsys):
        assert main(["mu", "--alpha", "0.5", "--fn", "nope"]) == 2

    @pytest.mark.parametrize("lam", ["0", "-1"])
    def test_mu_nonpositive_lambda(self, lam, capsys):
        # e^{-lam x} does not decay: a config error, not a traceback
        assert main(["mu", "--alpha", "0.5", "--fn", "exp",
                     "--lambda", lam]) == 2
        assert "config error" in capsys.readouterr().err

    def test_mu_no_decay_is_two(self, capsys):
        # e^{-x/1000} has not decayed within the window: a typed numerical
        # failure, reported as a message
        assert main(["mu", "--alpha", "0.5", "--fn", "exp",
                     "--lambda", "1e-3"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_quadrature_failure_is_two(self, monkeypatch, capsys):
        def fail(alpha, f):
            raise QuadratureError("did not converge")

        monkeypatch.setattr(cli, "mu_pair", fail)
        assert main(["mu", "--alpha", "0.5", "--fn", "exp"]) == 2
        assert "error: did not converge" in capsys.readouterr().err

    def test_sl_solve_too_heavy_measure(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"measure": {
            "pieces": [{"lo": 0, "hi": 1, "coeffs": [1e6]}]}}))
        assert main(["sl-solve", "--config", str(cfg)]) == 2
        assert "double range" in capsys.readouterr().err

    def test_sl_solve(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [], "pieces": []}}))
        assert main(["sl-solve", "--config", str(cfg), "--n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r,phi,phi_prime,rho"
        assert lines[1].startswith("0.0,1.0,")

    def test_sigma(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "delta": 2.0, "a": 0.0, "ap": 0.0, "mode": "bridge",
            "measure": {"atoms": [{"t": 0.5, "w": 1.0}], "pieces": []}}))
        assert main(["sigma", "--config", str(cfg), "--r", "0.4",
                     "--n", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "b,sigma"

    @pytest.mark.parametrize("mode,r,code", [
        ("bridge", "0", 2), ("bridge", "1", 2), ("bridge", "-0.5", 2),
        ("bridge", "1.5", 2), ("unconstrained", "0", 2),
        ("unconstrained", "2", 2), ("unconstrained", "1", 0)])
    def test_sigma_r_range(self, mode, r, code, tmp_path, capsys):
        # phi and rho are only tabulated on [0, 1], and a bridge's Sigma
        # needs 0 < r < 1
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "delta": 2.5, "a": 1.0, "mode": mode,
            "measure": {"pieces": [{"lo": 0, "hi": 1, "coeffs": [1.0]}]}}))
        assert main(["sigma", "--config", str(cfg), "--r", r,
                     "--n", "3"]) == code
        if code:
            assert "config error: --r must lie in" in capsys.readouterr().err

    def test_sigma_missing_delta_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"a": 0.0, "measure": {}}))
        assert main(["sigma", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sample_deterministic(self, tmp_path, capsys):
        args = ["sample", "--delta", "1.5", "--a", "1", "--ap", "2",
                "--n", "3", "--seed", "11", "--mesh", "5"]
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == out1
        assert out1.splitlines()[0] == "r,path0,path1,path2"

    def test_spde_sim_small(self, tmp_path, capsys):
        out = tmp_path / "spde"
        code = main(["spde-sim", "--K", "32", "--dt", "1e-4", "--T", "0.004",
                     "--replicas", "3", "--seed", "1", "--store-every", "10",
                     "--out", str(out)])
        assert code in (0, 1)  # tiny scale need not pass diagnostics
        summary = json.loads((out / "diagnostics.json").read_text())
        assert {"bracket_ratio", "pass"} <= set(summary)
        assert (out / "replica_0.csv").read_text().splitlines()[0] == \
            "t,uh,lap,n,m"

    @pytest.mark.parametrize("T,store_every", [("1e-4", "1"),
                                               ("0.004", "10")])
    def test_spde_sim_gamma_check_holds_at_small_T(self, T, store_every,
                                                   capsys):
        # the Gamma bound is met with equality at the corner pair as T -> 0
        main(["spde-sim", "--K", "16", "--dt", "1e-5", "--T", T,
              "--replicas", "2", "--store-every", store_every])
        assert json.loads(capsys.readouterr().out)["gamma_det_bound_ok"]

    @pytest.mark.parametrize("flag,value,message", [
        ("--dt", "0", "time step must be positive"),
        ("--dt", "-0.0001", "time step must be positive"),
        ("--K", "0", "k_max must be >= 1"),
        ("--K", "-3", "k_max must be >= 1"),
        ("--store-every", "0", "store_every must be >= 1"),
        ("--replicas", "1", "config error: need --replicas >= 2"),
        ("--replicas", "0", "config error: need --replicas >= 2"),
        ("--T", "-0.001", "t_final must be positive"),
        ("--T", "0", "t_final must be positive"),
        ("--T", "1e-4", "needs at least 2 increments per replica"),
        ("--eta", "0", "config error: need 0 < eta < eps"),
        ("--eta", "0.05", "config error: need 0 < eta < eps")])
    def test_spde_sim_bad_settings_are_two(self, flag, value, message,
                                           capsys):
        args = {"--K": "16", "--dt": "1e-4", "--T": "0.001",
                "--replicas": "2", "--store-every": "5"}
        args[flag] = value
        argv = ["spde-sim"] + [item for pair in args.items() for item in pair]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_entry_point_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "bessel_lab.cli", "density", "--delta",
             "2", "--r", "0.5", "--n", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("b,p")


def test_readme_command_lines_parse():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("bessel-lab ")]
    assert len(lines) >= 8
    parser = cli._build_parser()
    for argv in lines:
        assert parser.parse_args(argv[1:]).func.__name__.startswith("cmd_")
