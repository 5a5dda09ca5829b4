"""`driftstream gen` writes sfd.csv in a forked child while the parent writes hfd.csv.

Each run is compared with an inline one (``os.fork`` deleted): the same
bytes in both files, the same stdout, and on failure the same exit code and
stderr line, with the sfd error first when both files fail. After ``main``
returns, on every path, no child process is left to reap.
"""

import os
import signal

import pytest

from driftstream import cli
from driftstream.cli import main

from test_cli import read_bytes_tree, write_config
from test_run_processes import assert_no_children


def gen_both_ways(tmp_path, monkeypatch, capsys, out, *flags):
    """(exit code, stdout, stderr, files) of a forked gen, then of an inline one, both into ``out``."""
    cfg = write_config(tmp_path)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    results = []
    for inline in (False, True):
        if inline:
            monkeypatch.delattr(os, "fork")
        code = main(["gen", "--config", cfg, "--seed", "11", "--out", str(out), *flags])
        assert_no_children()
        assert len(forks) == 1
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, read_bytes_tree(out)))
    return results


def test_forked_gen_equals_inline_gen(tmp_path, monkeypatch, capsys):
    forked, inline = gen_both_ways(tmp_path, monkeypatch, capsys, tmp_path / "g")
    assert forked == inline
    code, out, err, files = forked
    assert code == 0 and err == ""
    assert out.count("\n") == 1 and '"sfd_events": 1500' in out and '"hfd_events": 800' in out
    assert sorted(files) == ["hfd.csv", "manifest.json", "sfd.csv"]


@pytest.mark.parametrize("blocked", [("sfd",), ("hfd",), ("sfd", "hfd")])
def test_an_unwritable_file_exits_3_like_inline_gen(tmp_path, monkeypatch, capsys, blocked):
    out = tmp_path / "g"
    for name in blocked:
        (out / f"{name}.csv").mkdir(parents=True)
    forked, inline = gen_both_ways(tmp_path, monkeypatch, capsys, out, "--quiet")
    code, stdout, err, _ = forked
    assert (code, stdout, err) == inline[:3]
    assert code == 3 and stdout == ""
    assert err == f"i/o error: [Errno 21] Is a directory: {str(out / (blocked[0] + '.csv'))!r}\n"


def test_a_killed_child_exits_4_naming_the_segment(tmp_path, monkeypatch, capsys):
    write_csv = cli.write_csv

    def killed_sfd(events, path):
        if path.endswith("sfd.csv"):
            os.kill(os.getpid(), signal.SIGKILL)
        write_csv(events, path)

    monkeypatch.setattr(cli, "write_csv", killed_sfd)
    assert main(["gen", "--config", write_config(tmp_path), "--out", str(tmp_path / "g")]) == 4
    assert_no_children()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: segment 'sfd': its process was killed by signal {int(signal.SIGKILL)} without a result\n"
