import importlib.util
import json
import os
import subprocess

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


def _bench_file(root, n, commit, wall_s, tier1_s, src_lines, peak_rss_mb=(40.0, 41.0, 56.5)):
    workloads = {
        name: {"git_commit": commit, "src_lines": src_lines, "metrics": {"wall_s": wall, "peak_rss_mb": peak}}
        for name, wall, peak in zip(bench_snapshot.WORKLOADS, wall_s, peak_rss_mb)
    }
    data = {"tier1": {"passed": 1, "failed": 0, "seconds": tier1_s}, "workloads": workloads}
    (root / f"BENCH_{n}.json").write_text(json.dumps(data))


def test_trajectory_orders_the_bench_files_by_the_commit_they_measured(tmp_path):
    _bench_file(tmp_path, 8, "c" * 40, (1.161, 1.444, 1.23), 38.61, 2829, (44.06, 43.75, 67.43))
    _bench_file(tmp_path, 10, "e" * 40, (0.953, 1.174), 53.92, 2987)  # no ingest-drift entry
    _bench_file(tmp_path, 3, "a" * 40, (5.79, 2.68, 2.68), 20.0, 2811)  # backfilled for an older commit
    _bench_file(tmp_path, 2, "f" * 40, (9.0, 9.0, 9.0), 1.0, 1)  # a commit outside the history goes last
    (tmp_path / "BENCH_notes.json").write_text("not a snapshot")
    order = {"a" * 40: 0, "c" * 40: 2, "e" * 40: 4}
    rows = bench_snapshot.trajectory(str(tmp_path), order)
    assert [row["n"] for row in rows] == [3, 8, 10, 2]
    assert rows[1] == {
        "n": 8, "commit": "c" * 40, "tier1_s": 38.61, "src_lines": 2829,
        "wall_s": dict(zip(bench_snapshot.WORKLOADS, (1.161, 1.444, 1.23))),
        "peak_rss_mb": dict(zip(bench_snapshot.WORKLOADS, (44.06, 43.75, 67.43))),
    }
    lines = bench_snapshot.format_trajectory(rows).splitlines()
    assert lines[0].split() == ["bench", "commit", "paper-run", "s", "paper-run", "MB", "serve-latency", "s",
                                "serve-latency", "MB", "ingest-drift", "s", "ingest-drift", "MB",
                                "tier1", "s", "src", "lines"]
    assert lines[1].split() == ["BENCH_3", "aaaaaaa", "5.790", "40.0", "2.680", "41.0", "2.680", "56.5", "20.0", "2811"]
    assert lines[2].split() == ["BENCH_8", "ccccccc", "1.161", "44.1", "1.444", "43.8", "1.230", "67.4", "38.6", "2829"]
    assert lines[3].split() == ["BENCH_10", "eeeeeee", "0.953", "40.0", "1.174", "41.0", "-", "-", "53.9", "2987"]
    assert len({len(line) for line in lines}) == 1  # aligned columns


def test_trajectory_without_git_orders_by_number(tmp_path):
    _bench_file(tmp_path, 10, "e" * 40, (1.0, 1.0, 1.0), 1.0, 1)
    _bench_file(tmp_path, 9, "c" * 40, (1.0, 1.0, 1.0), 1.0, 1)
    assert bench_snapshot.commit_order(str(tmp_path)) == {}
    assert [row["n"] for row in bench_snapshot.trajectory(str(tmp_path), {})] == [9, 10]


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
                   cwd=root, check=True, capture_output=True)


def test_snapshot_records_whether_src_had_uncommitted_changes(tmp_path):
    assert bench_snapshot.src_uncommitted(str(tmp_path)) is False  # not a git checkout
    source = tmp_path / "src" / "driftstream" / "a.py"
    source.parent.mkdir(parents=True)
    source.write_text("x = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    (tmp_path / "BENCH_1.json").write_text("{}")  # a change outside src/ does not count
    assert bench_snapshot.src_uncommitted(str(tmp_path)) is False
    source.write_text("x = 2\n")
    assert bench_snapshot.src_uncommitted(str(tmp_path)) is True
    source.unlink()
    assert bench_snapshot.src_uncommitted(str(tmp_path)) is True
    _git(tmp_path, "checkout", "-q", "--", "src")
    (tmp_path / "src" / "driftstream" / "b.py").write_text("y = 1\n")  # an untracked file counts
    assert bench_snapshot.src_uncommitted(str(tmp_path)) is True


def test_snapshot_stores_the_uncommitted_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_snapshot, "workload_entry", lambda report: {})
    for name in bench_snapshot.WORKLOADS:
        (tmp_path / ".perfbench" / name).mkdir(parents=True)
        (tmp_path / ".perfbench" / name / "report.json").write_text("{}")
    for flag in (True, False):
        monkeypatch.setattr(bench_snapshot, "src_uncommitted", lambda root: flag)
        assert bench_snapshot.snapshot(str(tmp_path), {})["src_uncommitted"] is flag


def test_trajectory_marks_a_commit_measured_with_uncommitted_changes(tmp_path):
    for n, flag in ((1, True), (2, False), (3, None)):
        _bench_file(tmp_path, n, f"{n}" * 40, (1.0, 1.0, 1.0), 1.0, 1)
        if flag is not None:
            path = tmp_path / f"BENCH_{n}.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "src_uncommitted": flag}))
    rows = bench_snapshot.trajectory(str(tmp_path), {})
    assert [row.get("uncommitted", False) for row in rows] == [True, False, False]
    lines = bench_snapshot.format_trajectory(rows).splitlines()
    assert [line.split()[1] for line in lines[1:]] == ["1111111+", "2222222", "3333333"]
    assert len({len(line) for line in lines}) == 1
