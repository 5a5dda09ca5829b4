"""Tests of the benchmark itself, at a tiny stream size.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import workload as workload_process

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): _bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_layers_match_the_workload_rationale(results):
    layers = {w: {k: v["value"] for k, v in results[w, 1]["metrics"].items()} for w in WORKLOADS}
    assert layers["paper-run"]["evaluation.rolling_update.calls"] > 0
    assert layers["serve-latency"]["evaluation.rolling_update.calls"] == 0
    assert layers["ingest-drift"]["evaluation.rolling_update.calls"] == 0
    for kind in run.MODELS:
        assert layers["ingest-drift"][f"models.{kind}.score_one.calls"] == 0
        assert layers["ingest-drift"][f"models.{kind}.learn_one.calls"] == 0
        assert layers["ingest-drift"][f"models.{kind}.pretrain.ms"] == 0
    assert layers["ingest-drift"]["telemetry.validate.calls"] > 0
    assert layers["serve-latency"]["arf.online_p50_us"] > 0
    assert layers["paper-run"]["drift.page_hinkley.updates_per_learn"] == 20  # 10 trees x 2 detectors


def test_benchmark_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the output checks catch one changed byte -----------------------------------


def _run_steps(spec: run.Workload) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spec.write_configs()
    stdout = ""
    for step in spec.steps[spec.seeds[0]]:
        if "rename_header" in step:
            workload_process._rename_header(step["rename_header"])
            continue
        proc = subprocess.run([sys.executable, "-m", "driftstream.cli", *step["cli"]], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=170, check=True)
        stdout = proc.stdout
    for step in spec.reference_steps:
        subprocess.run([sys.executable, "-m", "driftstream.cli", *step["cli"]], cwd=ROOT, env=env,
                       capture_output=True, timeout=170, check=True)
    return stdout


def _flip_byte(path: str, position=None) -> None:
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    pos = len(data) // 2 if position is None else position
    data[pos] = ord("0") if data[pos] != ord("0") else ord("1")
    with open(path, "wb") as fh:
        fh.write(data)


def test_paper_run_check_catches_one_changed_byte(tmp_path):
    spec = run.Workload("paper-run", 7, "tiny", str(tmp_path))
    _run_steps(spec)
    problems, info = spec.check("", 7)
    assert problems == []
    digest = info["digest"]
    assert spec.check("", 7)[0] == []  # the second look compares against the first digest
    for name in sorted(os.listdir(spec.out)):
        pristine = os.path.join(str(tmp_path), "pristine")
        shutil.copytree(spec.out, pristine)
        _flip_byte(os.path.join(spec.out, name))
        assert spec.expected_digest[7] == digest
        problems, _ = spec.check("", 7)
        assert problems, f"a changed byte in {name} passed the check"
        shutil.rmtree(spec.out)
        shutil.move(pristine, spec.out)


def test_serve_latency_check_catches_one_changed_byte(tmp_path):
    spec = run.Workload("serve-latency", 7, "tiny", str(tmp_path))
    stdout = _run_steps(spec)
    assert spec.check(stdout, 7)[0] == []
    table = os.path.join(spec.out, "latency.csv")
    with open(table, "rb") as fh:
        first_value = fh.read().index(b"\nlr,") + len(b"\nlr,")
    _flip_byte(table, first_value)
    assert spec.check(stdout, 7)[0]


def test_serve_latency_check_catches_a_missing_raw_row(tmp_path):
    spec = run.Workload("serve-latency", 7, "tiny", str(tmp_path))
    stdout = _run_steps(spec)
    raw = os.path.join(spec.out, "latency_raw.csv")
    with open(raw, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(raw, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    assert spec.check(stdout, 7)[0]


def test_ingest_drift_check_catches_one_changed_byte(tmp_path):
    spec = run.Workload("ingest-drift", 7, "tiny", str(tmp_path))
    _run_steps(spec)
    assert spec.check("", 7)[0] == []
    _flip_byte(os.path.join(spec.out, "drift_events.csv"), position=len("index,class_context,feature\n"))
    assert spec.check("", 7)[0]


# -- the host-speed correction -------------------------------------------------


def test_corrected_time_divides_each_slice_by_the_probed_slowdown():
    fast = hostspeed.FAST_PROBE_S
    at_full_speed = [(0.1 * i, fast) for i in range(1, 10)]
    assert hostspeed.corrected(0.0, 1.0, at_full_speed) == pytest.approx(1.0 - 9 * fast)
    at_half_speed = [(at, 2.0 * took) for at, took in at_full_speed]
    assert hostspeed.corrected(0.0, 1.0, at_half_speed) == pytest.approx((1.0 - 18 * fast) / 2.0)
    one_interrupted_probe = at_full_speed[:4] + [(0.5, 100.0 * fast)] + at_full_speed[5:]
    assert hostspeed.corrected(0.0, 1.0, one_interrupted_probe) == pytest.approx(1.0 - 108 * fast, rel=1e-3)
    assert hostspeed.corrected(0.0, 1.0, []) == 1.0
