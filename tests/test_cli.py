import copy
import json
import math
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

from bessel_lab import cli, ibpf
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

    @pytest.mark.parametrize("ids", [(1, "1"), (2.5, "2.5"), ("a", 1, 1)])
    def test_ids_that_print_alike_are_duplicates(self, ids, tmp_path,
                                                 capsys):
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps(
            {"cases": [{"id": i, "delta": 3} for i in ids]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "duplicate case ids" in err

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
        ("sigma", {"delta": 2, "measure": {}, "mode": "x"}, "'mode'"),
        # JSON's NaN and Infinity, one key of each kind
        ("ibpf-check", {"cases": [{"delta": math.inf}]}, "'delta'"),
        ("ibpf-check", {"cases": [{"delta": 3, "a": math.nan}]}, "'a'"),
        ("ibpf-check", {"cases": [{"delta": 3, "ap": -math.inf}]}, "'ap'"),
        ("ibpf-check", {"cases": [{"delta": 3, "tol": math.nan}]}, "'tol'"),
        ("ibpf-check", {"cases": [{"delta": 3, "h": {"theta": math.nan}}]},
         "'theta'"),
        ("ibpf-check", {"cases": [{"delta": 3,
                                   "phi": [{"coef": math.inf}]}]}, "'coef'"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"measure": {
            "atoms": [{"t": 0.5, "w": math.nan}]}}]}]}, "atom weight"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"measure": {
            "pieces": [{"lo": 0, "hi": 1, "coeffs": [math.inf]}]}}]}]},
         "not finite"),
        ("ibpf-check", {"cases": [{"delta": 3, "id": math.nan}]}, "'id'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": math.inf}, "'mc'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "seed": math.nan}, "'seed'"),
        ("run-suite", {"spde": {"dt": math.nan}}, "'dt'"),
        ("run-suite", {"spde": {"K": math.inf}}, "'K'"),
        # mc is 0 or at least 100, a seed lies in [0, 2**64), a piece has a
        # coefficient
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": 50}, "'mc'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": -5}, "'mc'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "seed": -1}, "'seed'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "seed": 2**64}, "'seed'"),
        ("run-suite", {"spde": {"seed": -1}}, "'seed'"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"measure": {
            "pieces": [{"lo": 0, "hi": 1, "coeffs": []}]}}]}]}, "'coeffs'"),
        # an integer key given a fraction is not truncated; a tolerance is
        # positive
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": 100.9}, "'mc'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "seed": 2.7}, "'seed'"),
        ("run-suite", {"spde": {"K": 256.5}}, "'K'"),
        ("run-suite", {"spde": {"replicas": 200.5}}, "'replicas'"),
        ("run-suite", {"spde": {"store_every": 99.9}}, "'store_every'"),
        ("run-suite", {"spde": {"seed": 0.5}}, "'seed'"),
        ("ibpf-check", {"cases": [{"delta": 3, "tol": 0}]}, "'tol'"),
        # past 5000 * 2**20 paths the blocks would reuse the next case's
        # substreams
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": 1e300}, "'mc'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "mc": 5242880001}, "'mc'"),
        # a bool is not a number, nor a test-function type
        ("ibpf-check", {"cases": [{"delta": True}]}, "'delta'"),
        ("ibpf-check", {"cases": [{"delta": 3, "tol": True}]}, "'tol'"),
        ("ibpf-check", {"cases": [{"delta": 3}], "seed": True}, "'seed'"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"coef": False}]}]},
         "'coef'"),
        ("ibpf-check", {"cases": [{"delta": 3, "phi": [{"measure": {
            "atoms": [{"t": 0.5, "w": True}]}}]}]}, "'measure'"),
        ("run-suite", {"spde": {"K": True}}, "'K'"),
        ("ibpf-check", {"cases": [{"delta": 3, "h": {"type": []}}]},
         "'type'")])
    def test_wrong_json_type_is_two(self, command, config, field, tmp_path,
                                    capsys):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err


    @pytest.mark.parametrize("flag,value", [
        ("--mc", "50"), ("--mc", "-5"), ("--mc", "6000000000"),
        ("--seed", "-1"), ("--seed", str(2**64))])
    def test_bad_mc_or_seed_flag_is_two(self, flag, value, cases_file,
                                        capsys):
        assert main(["ibpf-check", "--config", cases_file, flag, value]) == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["density", "--delta", "2", "--r", "0.5", "--bmax", "nan"],
         "argument --bmax"),
        (["density", "--delta", "2", "--r", "0.5", "--a", "-1"],
         "config error: bad bridge spec: boundary value a must be >= 0"),
        (["sample", "--delta", "inf", "--n", "1", "--seed", "1"],
         "argument --delta"),
        (["sample", "--delta", "2", "--a", "-1", "--n", "1", "--seed", "1"],
         "config error: bad bridge spec: boundary value a must be >= 0"),
        (["sample", "--delta", "2", "--ap", "-1", "--n", "1", "--seed",
          "1"], "boundary value ap must be >= 0"),
        (["spde-sim", "--dt", "nan"], "argument --dt"),
        (["mu", "--alpha", "inf", "--fn", "exp"], "argument --alpha")])
    def test_bad_number_flag_is_two(self, argv, message, capsys):
        # a float flag is finite, and a bridge's ends are non-negative
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n,mesh,message", [
        # 1.49 TiB of paths, and one path over 2**25 values at two points
        ("100000000", "2049", "config error: bad --n"),
        (str(2**24 + 1), "2", "config error: bad --n"),
        ("-3", "101", "argument --n"), ("0", "101", "argument --n"),
        ("1", "1", "argument --mesh"), ("1", "2050", "argument --mesh"),
        ("1", "1000000000", "argument --mesh")])
    def test_bad_sample_size_is_two(self, n, mesh, message, capsys,
                                    monkeypatch):
        # rejected before any path is drawn or allocated
        def no_draw(*args, **kwargs):
            raise AssertionError("sample drew paths")

        monkeypatch.setattr(cli, "bessel_bridge_general", no_draw)
        argv = ["sample", "--delta", "2", f"--n={n}", "--seed", "1",
                f"--mesh={mesh}"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ibpf-check", "run-suite"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-5"])
    def test_bad_tol_flag_is_two(self, command, value, cases_file, capsys):
        assert main([command, "--config", cases_file, f"--tol={value}"]) == 2
        assert "argument --tol" in capsys.readouterr().err

    def test_integral_float_is_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "whole.json"
        cfg.write_text(json.dumps({"cases": [{"delta": 3}], "mc": 100.0,
                                   "seed": 2.0}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)[0]["lhs_mc"] is not None

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_jobs_is_two(self, value, cases_file, capsys):
        # a worker count is a positive integer
        assert main(["ibpf-check", "--config", cases_file,
                     f"--jobs={value}"]) == 2
        assert "argument --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (["density", "--delta", "2.5", "--r", "0.5", "--a", "40"], None),
        (["sigma"], {"delta": 2.5, "a": 40, "ap": 0, "measure": {}}),
        (["ibpf-check"], {"cases": [{"delta": 2.5, "a": 0, "ap": 45}]})],
        ids=["density", "sigma", "ibpf-check"])
    def test_underflowed_bridge_normaliser_is_two(self, argv, config,
                                                  tmp_path, capsys):
        # q_reg(delta, 1, a^2, ap^2) is 0 in float64 once |a - ap| passes
        # about 38.6, and no bridge value can come from it: the command
        # ends before any integral, with no 0/0 warning
        if config is not None:
            cfg = tmp_path / "far.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: q_reg(delta, 1, a^2, ap^2) = 0.0")
        assert err.count("\n") == 1

    def test_number_id_stays_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "ids.json"
        cfg.write_text(json.dumps({"cases": [{"delta": 3, "id": 5},
                                             {"delta": 3, "id": 0},
                                             {"delta": 3, "id": "a"}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 0
        ids = [r["case_id"] for r in json.loads(capsys.readouterr().out)]
        assert ids == [5, 0, "a"]

    @pytest.mark.parametrize("case,key", [
        ({"delta": 3, "a": 1e300}, "'a'"),
        ({"delta": 3, "ap": 1e300}, "'ap'"),
        ({"delta": 3, "a": 1e300, "mode": "unconstrained"}, "'a'"),
        ({"delta": 1e300}, "'delta'")])
    def test_out_of_range_case_is_one_line(self, case, key, tmp_path,
                                           capsys):
        # a boundary value whose square overflows, or a dimension past the
        # engine's range, ends in one short line naming its key
        cfg = tmp_path / "range.json"
        cfg.write_text(json.dumps({"cases": [case]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ibpf-check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200 and key in err
        # the ranges keep far-apart bridges and the largest squares
        case = cli._parse_case({"delta": cli.CASE_DELTA_MAX, "a": 45.0,
                                "ap": 1.3e154})
        assert case.spec.ap == 1.3e154

    @pytest.mark.parametrize("command", ["ibpf-check", "run-suite", "sigma"])
    @pytest.mark.parametrize("ap", [5, 45, 1e-300])
    def test_unconstrained_end_value_is_two(self, command, ap, tmp_path,
                                            capsys):
        # the process has no end, so an 'ap' that its law would ignore is a
        # config error naming 'ap', before any work and with no report;
        # 'ap': 0 stays valid
        law = {"delta": 2.5, "a": 1.0, "mode": "unconstrained",
               "measure": {"atoms": [{"t": 0.6, "w": 1.0}]}}
        config = law if command == "sigma" else {"cases": [law]}
        out = tmp_path / "out"
        argv = [command, "--config", str(tmp_path / "c.json"), "--out",
                str(out)]
        for value, code in ((ap, 2), (0, 0)):
            law["ap"] = value
            (tmp_path / "c.json").write_text(json.dumps(config))
            assert main(argv) == code
            err = capsys.readouterr().err
            assert (err.startswith("config error: bad 'ap'")
                    and err.count("\n") == 1) if code else err == ""
            assert out.exists() == (code == 0)

    def test_mode_count_is_bounded(self, tmp_path, monkeypatch, capsys):
        # K is bounded by the memory of spde-sim's (replicas x 2 x K)
        # coefficients: a config error naming 'K' before any field is made,
        # from the flag and from a "spde" block alike
        def forbidden(*args, **kwargs):
            raise AssertionError("made a field past the mode bound")

        monkeypatch.setattr(cli.spde, "stationary_field", forbidden)
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"spde": {"K": 1e12}}))
        for argv in (["spde-sim", "--K", str(10**12)],
                     ["run-suite", "--config", str(cfg)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: bad 'K': at most 65536 "
                                  "modes, got 1000000000000\n")
        assert cli.spde.check_settings(1e-4, 1e-4, cli.spde.K_MAX, 0.05,
                                       0.01, 2, 1) == (1, 2)

    @pytest.mark.parametrize("command, setting", [
        ("spde-sim", ["--replicas", str(10**12)]),
        ("spde-sim", ["--K", str(2**16), "--replicas", "257"]),
        ("run-suite", {"replicas": 1e12}),
        ("run-suite", {"K": 2**16, "replicas": 257})])
    def test_replica_count_is_bounded(self, command, setting, tmp_path,
                                      monkeypatch, capsys):
        # the (replicas x 2 x K) coefficients are bounded before any is made
        def forbidden(*args, **kwargs):
            raise AssertionError("spde-sim ran past its coefficient bound")

        monkeypatch.setattr(cli.spde, "run_decomposition", forbidden)
        if command == "run-suite":
            cfg = tmp_path / "suite.json"
            cfg.write_text(json.dumps({"spde": setting}))
            setting = ["--config", str(cfg)]
        assert main([command] + setting) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'replicas'" in err
        # the default 200 replicas pass the bound at K_MAX
        assert 200 * 2 * cli.spde.K_MAX <= cli.spde.VALUES_MAX

    @pytest.mark.parametrize("command", ["spde-sim", "run-suite"])
    def test_snapshot_count_is_bounded(self, command, tmp_path, monkeypatch,
                                       capsys):
        # T = 1e6 at the default dt and store_every asks for 10^9 + 1
        # snapshots of 200 replicas: a config error before any case or step
        def forbidden(*args, **kwargs):
            raise AssertionError("ran past the snapshot bound")

        monkeypatch.setattr(cli, "verify", forbidden)
        monkeypatch.setattr(cli.spde, "run_decomposition", forbidden)
        out = tmp_path / "rep"
        argv = ["spde-sim", "--T", "1e6", "--out", str(out)]
        if command == "run-suite":
            cfg = tmp_path / "suite.json"
            cfg.write_text(json.dumps({
                "cases": [{"delta": 2.5, "a": 1, "ap": 2}],
                "spde": {"T": 1e6}}))
            argv = ["run-suite", "--config", str(cfg), "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "bad 'T': 200 replicas x 1000000001 snapshots" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spde-sim", "run-suite"])
    def test_one_increment_per_replica_is_rejected(self, command, tmp_path,
                                                   monkeypatch, capsys):
        # the defaults' 5000 steps stored every 5000 leave one increment of
        # M per replica, which the martingale regression cannot take: a
        # config error before any step, with the regression's message
        def forbidden(*args, **kwargs):
            raise AssertionError("ran a decomposition its diagnostics reject")

        monkeypatch.setattr(cli, "verify", forbidden)
        monkeypatch.setattr(cli.spde, "run_decomposition", forbidden)
        out = tmp_path / "rep"
        argv = ["spde-sim", "--store-every", "5000", "--out", str(out)]
        if command == "run-suite":
            cfg = tmp_path / "suite.json"
            cfg.write_text(json.dumps({
                "cases": [{"delta": 2.5, "a": 1, "ap": 2}],
                "spde": {"store_every": 5000}}))
            argv = ["run-suite", "--config", str(cfg), "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "config error: the martingale regression needs at least 2 "
            "increments per replica and 4 in all, got 1 per replica and "
            "200 in all\n")
        assert not out.exists()

    # the ids of the K and T cases keep the names these settings had in
    # their messages before they took spde-sim's, so each case keeps its id
    @pytest.mark.parametrize("spde_block, message", [
        ({"replicas": 1e12}, "'replicas'"),
        ({"K": "x"}, "'K'"),
        ({"eta": 0.05}, "need 0 < eta < eps"),
        ({"replicas": 1}, "need --replicas >= 2"),
        ({"dt": -1e-5}, "bad 'dt': time step must be positive"),
        pytest.param({"T": 0.00035, "dt": 1e-4}, "bad 'T': T must be",
                     id="spde_block5-bad 'T': t_final must be"),
        pytest.param({"T": 0.0}, "bad 'T': T must be positive",
                     id="spde_block6-bad 'T': t_final must be positive"),
        pytest.param({"T": 1e300, "dt": 1e-300}, "bad 'T': T must be",
                     id="spde_block7-bad 'T': t_final must be"),
        pytest.param({"K": 0}, "bad 'K': K must be >= 1",
                     id="spde_block8-bad 'K': k_max must be >= 1"),
        ({"store_every": 0}, "bad 'store_every': store_every must be >= 1")])
    def test_run_suite_checks_spde_before_cases(self, spde_block, message,
                                                tmp_path, monkeypatch,
                                                capsys):
        # a bad "spde" block ends run-suite before its first case runs, so
        # no report of the cases is written
        def forbidden(*args, **kwargs):
            raise AssertionError("a case ran before the spde block's check")

        monkeypatch.setattr(cli, "verify", forbidden)
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({
            "cases": [{"delta": 2.5, "a": 1, "ap": 2}], "spde": spde_block}))
        out = tmp_path / "rep"
        assert main(["run-suite", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


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

    def test_jobs_flag_runs_a_pool(self, cases_file, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["ibpf-check", "--config", cases_file, "--jobs", "2",
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

    def test_series_truncation_is_two(self, monkeypatch, tmp_path, capsys):
        # a Sigma series with a huge last coefficient cannot carry the
        # closed-form piece of the branch RHS: a typed numerical failure
        series = ibpf.sigma_s_series

        def huge_tail(ctx, r):
            c = series(ctx, r).copy()
            c[..., -1] = 1e300
            return c

        monkeypatch.setattr(ibpf, "sigma_s_series", huge_tail)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"cases": [{"delta": 2.5}]}))
        assert main(["ibpf-check", "--config", str(cfg)]) == 2
        assert "error: Sigma series truncation" in capsys.readouterr().err

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

    def test_sample_streams_its_csv(self, tmp_path):
        # rows reach the file as they are formatted: the traced peak is the
        # paths and their (mesh x paths) table, about 19 bytes per path
        # value, where the whole CSV as one text took 82
        n, mesh = 64, 2049
        tracemalloc.start()
        try:
            assert main(["sample", "--delta", "1.5", "--a", "1", "--ap", "2",
                         "--n", str(n), "--seed", "3", "--mesh", str(mesh),
                         "--out", str(tmp_path / "paths.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n * mesh
        rows = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(rows) == mesh + 1 and rows[-1] == "1.0," + ",".join(
            ["2.0"] * n)

    def test_sample_large_delta_warns_nothing(self, capsys):
        # order 199: scipy's ive(199, w) underflows to 0 on these paths
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--delta", "400", "--a", "1", "--ap", "1",
                         "--n", "3", "--seed", "1", "--mesh", "9"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 10 and rows[-1] == "1.0,1.0,1.0,1.0"

    def test_sample_far_end_is_two(self, capsys):
        # the Bessel draws toward ap = 1e20 would need modes past 2**53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--delta", "2.5", "--a", "1", "--ap",
                         "1e20", "--n", "2", "--mesh", "3", "--seed",
                         "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Bessel(nu, w) draws need w <= 2**53")

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

    # the ids of the K and T cases keep the names these settings had in
    # their messages before they took spde-sim's, so each case keeps its id
    @pytest.mark.parametrize("flag,value,message", [
        ("--dt", "0", "time step must be positive"),
        ("--dt", "-0.0001", "time step must be positive"),
        pytest.param("--K", "0", "bad 'K': K must be >= 1",
                     id="--K-0-k_max must be >= 1"),
        pytest.param("--K", "-3", "bad 'K': K must be >= 1",
                     id="--K--3-k_max must be >= 1"),
        ("--store-every", "0", "store_every must be >= 1"),
        ("--replicas", "1", "config error: need --replicas >= 2"),
        ("--replicas", "0", "config error: need --replicas >= 2"),
        pytest.param("--T", "-0.001", "bad 'T': T must be positive",
                     id="--T--0.001-t_final must be positive"),
        pytest.param("--T", "0", "bad 'T': T must be positive",
                     id="--T-0-t_final must be positive"),
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


def _readme_config():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("### Case configuration", 1)[1]
    return json.loads(block.split("```json", 1)[1].split("```", 1)[0])


def _paths(node, prefix=()):
    """The key path of every value inside a JSON object or list."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


#: Values of a wrong JSON type, and numbers that are not finite, zero,
#: negative or huge.
_WRONG = ["x", True, False, None, [], [1], {}, {"x": 1}, math.nan, math.inf,
          -math.inf, 0, -1, 1e300]


def _mutations(config):
    """Each single mutation of ``config``: every value dropped, replaced by
    each of ``_WRONG`` and, for a list, emptied; and a duplicated case."""
    for path in _paths(config):
        for how in ["drop", "empty", *_WRONG]:
            yield path, how
    yield ("cases",), "duplicate"


def _mutate(config, mutations):
    """A copy of ``config`` with the ``mutations`` applied in turn; one whose
    path an earlier one removed is skipped."""
    config = copy.deepcopy(config)
    for path, how in mutations:
        try:
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            key = path[-1]
            if how == "drop":
                del parent[key]
            elif how == "empty":
                if isinstance(parent[key], list):
                    parent[key] = []
            elif how == "duplicate":
                parent[key].append(copy.deepcopy(parent[key][0]))
            else:
                parent[key] = copy.deepcopy(how)
        except (KeyError, IndexError, TypeError):
            continue
    return config


def test_seeded_config_mutations(tmp_path, capsys):
    # README's example config and a cheap variant of it (delta = 3, Phi = 1,
    # no Monte Carlo), each mutated one key at a time and, with a seed, two
    # at a time: a config is parsed into cases or is a ConfigError, and
    # main ends every cheap one with an exit code, never a traceback
    rng = random.Random(8)
    base = _readme_config()
    cheap = copy.deepcopy(base)
    for case in cheap["cases"]:
        case.update(delta=3)
        del case["phi"]
    cheap["mc"] = 0
    singles = list(_mutations(base))
    pairs = [rng.sample(singles, 2) for _ in range(100)]
    outcomes = []
    for mutations in [[m] for m in singles] + pairs:
        try:
            cases = cli._parse_cases(_mutate(base, mutations))
        except cli.ConfigError:
            outcomes.append(None)
        else:
            outcomes.append(len(cases))
    assert len(outcomes) > 400 and None in outcomes and 1 in outcomes

    cfg = tmp_path / "mutated.json"
    for mutation in rng.sample(list(_mutations(cheap)), 60):
        cfg.write_text(json.dumps(_mutate(cheap, [mutation])))
        assert main(["ibpf-check", "--config", str(cfg)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
