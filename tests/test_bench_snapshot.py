import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_snapshot.py")
_spec = importlib.util.spec_from_file_location("bench_snapshot", _PATH)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)


@pytest.mark.parametrize(
    "output, expected",
    [
        ("....\n304 passed in 41.67s\n", {"passed": 304, "failed": 0, "seconds": 41.67}),
        ("FAILED a::b\n1 failed, 12 passed in 27.29s\n", {"passed": 12, "failed": 1, "seconds": 27.29}),
        ("= 3 failed, 2 passed, 130 deselected, 1 error in 2.45s =", {"passed": 2, "failed": 4, "seconds": 2.45}),
    ],
)
def test_pytest_summary_is_parsed(output, expected):
    assert bench_snapshot.parse_pytest_summary(output) == expected


def test_pytest_output_without_a_summary_is_rejected():
    with pytest.raises(ValueError):
        bench_snapshot.parse_pytest_summary("ERROR: file not found\n")


def test_snapshot_keeps_each_workloads_end_to_end_metrics_and_provenance(tmp_path):
    (tmp_path / "src" / "driftstream").mkdir(parents=True)
    (tmp_path / "src" / "driftstream" / "a.py").write_text("x = 1\n")
    for i, name in enumerate(bench_snapshot.WORKLOADS):
        meta = {key: f"{name}-{key}" for key in bench_snapshot.META_KEYS}
        meta.update(workload=name, scale="full")
        meta["layer_ms"] = {"dropped": 1.0}
        metrics = {metric: {"value": i + j, "unit": "s"} for j, metric in enumerate(bench_snapshot.END_TO_END)}
        metrics["cli.self_ms"] = {"value": 9.0, "unit": "ms"}
        report = {"result": {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}, "meta": meta}
        (tmp_path / ".perfbench" / name).mkdir(parents=True)
        (tmp_path / ".perfbench" / name / "report.json").write_text(json.dumps(report))
    tier1 = {"passed": 5, "failed": 0, "seconds": 1.5}
    data = bench_snapshot.snapshot(str(tmp_path), tier1)
    assert data["tier1"] == tier1
    assert list(data["workloads"]) == list(bench_snapshot.WORKLOADS)
    ingest = data["workloads"]["ingest-drift"]
    assert ingest["metrics"] == {"setup_s": 2, "wall_s": 3, "peak_rss_mb": 4}
    assert ingest["src_lines"] == "ingest-drift-src_lines" and "layer_ms" not in ingest
    assert (ingest["correct"], ingest["attempted"], ingest["failed"]) == (True, 4, 0)
    before = data["src_sha256"]
    (tmp_path / "src" / "driftstream" / "a.py").write_text("x = 2\n")
    assert bench_snapshot.snapshot(str(tmp_path), tier1)["src_sha256"] != before


def test_a_tiny_scale_report_is_rejected():
    report = {"result": {}, "meta": {"workload": "paper-run", "scale": "tiny"}}
    with pytest.raises(ValueError, match="paper-run.*tiny"):
        bench_snapshot.workload_entry(report)
