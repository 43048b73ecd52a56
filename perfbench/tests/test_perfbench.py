"""Tests for the benchmark itself: a tiny run of every workload emits every
declared metric, and a substituted wrong verdict is caught."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import workloads  # noqa: E402
from polyplane import mosaic  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    result, report = run.run_workload(workload, seed=3, seconds=0, trace=trace,
                                      tiny=True)
    assert report["wrong"] == []
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = _declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert report["fingerprint"]["ops"] > 0


def test_sat_hard_records_its_failures():
    result, report = run.run_workload("sat", seed=3, seconds=0, trace=False,
                                      tiny=True)
    errors = {f["error"] for f in report["failures"]}
    assert errors == {"BudgetExceededError", "RecursionError"}
    assert result["failed"] == len(report["failures"]) > 0
    assert report["failed_frac"] == pytest.approx(
        1.0 - result["metrics"]["ok_frac"]["value"])
    assert report["sections"]["sat_hard"]["failed"] == len(report["failures"])


def test_wrong_verdict_is_caught(monkeypatch):
    real = mosaic.decide_sat

    def flipped(theta, **kw):
        res = real(theta, **kw)
        return mosaic.SatResult(not res.sat, stats=res.stats)

    monkeypatch.setattr(mosaic, "decide_sat", flipped)
    result, report = run.run_workload("sat", seed=3, seconds=0, trace=False,
                                      tiny=True)
    assert result["correct"] is False
    assert any("crown_sat_oracle" in w["problem"] for w in report["wrong"])


def test_same_seed_same_inputs():
    a = run.fingerprint(workloads.scenes(5, tiny=True))
    b = run.fingerprint(workloads.scenes(5, tiny=True))
    c = run.fingerprint(workloads.scenes(6, tiny=True))
    assert a == b
    assert a["sha256"] != c["sha256"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "sat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
