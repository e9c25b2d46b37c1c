"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert layer[:len(tracer.LAYER_METRICS)] == [
        (name, unit) for name, unit, _ in tracer.LAYER_METRICS]


def test_mc_references_are_fresh():
    """The cheapest stored RHS reference must match a fresh computation."""
    spec = (3.0, 1.0, 0.0, "m0")
    mods = workloads.import_package()
    fresh = mods["ibpf"].rhs_ibpf(workloads.build_mc_case(mods, *spec))
    stored = json.loads(workloads.REFS_FILE.read_text())["rhs"]
    want = stored[workloads.mc_case_id(*spec)]
    assert abs(fresh - want) <= 1e-9 * abs(want)


def test_report_bytes_do_not_depend_on_jobs(tmp_path):
    mods = workloads.import_package()
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"cases": [
        {"id": "d3_m0", "delta": 3.0, "a": 0.0, "ap": 0.0},
        {"id": "d1_atom", "delta": 1.0, "a": 0.0, "ap": 0.0,
         "phi": [{"coef": 1.0, "measure": workloads.measure_json(
             "atom", 0.6, 1.0, 0.5)}]},
    ]}))
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert mods["cli"].main(["ibpf-check", "--config", str(config),
                                 "--out", str(out), "--jobs", jobs]) == 0
        outputs.append([(out / n).read_bytes()
                        for n in ("report.json", "report.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds",
                     "0.5", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "identity", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
