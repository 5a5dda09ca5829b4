"""`driftstream gen` under the shared fork rule: sfd.csv is written in one forked child, hfd.csv in the parent.

Each run is compared with an inline one (``os.fork`` deleted, or a host
that reports one usable CPU): the same bytes in both files, the same
stdout, and on failure the same exit code and stderr line, with the sfd
error first when both files fail. Forked runs take the ``forks`` fixture,
which reports two usable CPUs whatever the host has. After ``main``
returns, on every path, no child process is left to reap.
"""

import os
import signal

import pytest

from driftstream import cli
from driftstream.cli import main
from driftstream.streams import SynthConfig, generate_synthetic_segments
from driftstream.telemetry import TelemetryEvent

from conftest import one_cpu
from test_cli import read_bytes_tree, write_config
from test_run_processes import assert_no_children


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def gen_both_ways(tmp_path, monkeypatch, capsys, forks, out, *flags, inline=no_fork):
    """(exit code, stdout, stderr, files) of a forked gen, then of one that ``inline`` keeps in one process."""
    cfg = write_config(tmp_path)
    results = []
    for serial in (False, True):
        if serial:
            inline(monkeypatch)
        code = main(["gen", "--config", cfg, "--seed", "11", "--out", str(out), *flags])
        assert_no_children()
        assert len(forks) == 1
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, read_bytes_tree(out)))
    return results


def test_forked_gen_equals_inline_gen(tmp_path, monkeypatch, capsys, forks):
    forked, inline = gen_both_ways(tmp_path, monkeypatch, capsys, forks, tmp_path / "g")
    assert forked == inline
    code, out, err, files = forked
    assert code == 0 and err == ""
    assert out.count("\n") == 1 and '"sfd_events": 1500' in out and '"hfd_events": 800' in out
    assert sorted(files) == ["hfd.csv", "manifest.json", "sfd.csv"]


def test_on_one_cpu_gen_writes_both_files_inline(tmp_path, monkeypatch, capsys, forks):
    forked, inline = gen_both_ways(tmp_path, monkeypatch, capsys, forks, tmp_path / "g", inline=one_cpu)
    assert forked == inline
    assert forked[0] == 0 and sorted(forked[3]) == ["hfd.csv", "manifest.json", "sfd.csv"]


@pytest.mark.parametrize("blocked", [("sfd",), ("hfd",), ("sfd", "hfd")])
def test_an_unwritable_file_exits_3_like_inline_gen(tmp_path, monkeypatch, capsys, forks, blocked):
    out = tmp_path / "g"
    for name in blocked:
        (out / f"{name}.csv").mkdir(parents=True)
    forked, inline = gen_both_ways(tmp_path, monkeypatch, capsys, forks, out, "--quiet")
    code, stdout, err, _ = forked
    assert (code, stdout, err) == inline[:3]
    assert code == 3 and stdout == ""
    assert err == f"i/o error: [Errno 21] Is a directory: {str(out / (blocked[0] + '.csv'))!r}\n"


def test_a_killed_child_exits_4_naming_the_segment(tmp_path, monkeypatch, capsys, forks):
    write_rows = cli.write_rows

    def killed_sfd(rows, path):
        if path.endswith("sfd.csv"):
            os.kill(os.getpid(), signal.SIGKILL)
        write_rows(rows, path)

    monkeypatch.setattr(cli, "write_rows", killed_sfd)
    assert main(["gen", "--config", write_config(tmp_path), "--out", str(tmp_path / "g")]) == 4
    assert_no_children()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: segment 'sfd': its process was killed by signal {int(signal.SIGKILL)} without a result\n"


def test_gen_builds_no_event(tmp_path, monkeypatch):
    built = []
    init = TelemetryEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(TelemetryEvent, "__init__", counted)
    no_fork(monkeypatch)  # so that both files are written, and counted, in this process
    assert main(["gen", "--config", write_config(tmp_path), "--out", str(tmp_path / "g"), "--quiet"]) == 0
    assert built == []
    assert (tmp_path / "g" / "sfd.csv").stat().st_size > 0 and (tmp_path / "g" / "hfd.csv").stat().st_size > 0
    generate_synthetic_segments(SynthConfig(n_sfd=10, n_hfd=0, sfd_episodes=0), 1)
    assert built == list(range(10))  # the count sees events the generator builds
