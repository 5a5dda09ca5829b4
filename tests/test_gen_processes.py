"""`driftstream gen` under the shared fork rule, its rows split evenly between two processes.

A forked child writes sfd.csv's header and first ⌈(n_sfd + n_hfd) / 2⌉
rows; the parent writes hfd.csv, renders the rest of sfd.csv into an
unnamed temporary file and appends it once the child is done. Both render their rows from the
generator's arrays, ``streams._CHUNK_ROWS`` rows at a time, and the files
are those ``write_csv`` writes for the generator's events. Each run is compared with an inline
one (``os.fork`` deleted, or a host that reports one usable CPU): the same
bytes in both files, the same stdout, and on failure the same exit code and
stderr line, with the child's (sfd) error first when both processes fail.
Forked runs take the ``forks`` fixture, which reports two usable CPUs
whatever the host has. After ``main`` returns, on every path, no child
process is left to reap.
"""

import os
import signal

import pytest

from driftstream import cli, streams
from driftstream.cli import main
from driftstream.config import named_seed
from driftstream.streams import SynthConfig, generate_synthetic_segments, write_csv
from driftstream.telemetry import TelemetryEvent

from conftest import one_cpu
from test_cli import read_bytes_tree, write_config
from test_run_processes import assert_no_children


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def gen_both_ways(tmp_path, monkeypatch, capsys, forks, out, *flags, inline=no_fork, config=None):
    """(exit code, stdout, stderr, files) of a forked gen, then of one that ``inline`` keeps in one process."""
    cfg = write_config(tmp_path, config)
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


SPLITS = {
    "ingest-sizes": {"n_sfd": 60000, "n_hfd": 30000, "sfd_episodes": 30, "hfd_episodes": 54},
    "sfd-shorter": {"n_sfd": 500, "n_hfd": 1500, "sfd_episodes": 1, "hfd_episodes": 2},
    "one-each": {"n_sfd": 1, "n_hfd": 1, "sfd_episodes": 0, "hfd_episodes": 0},
    "no-hfd": {"n_sfd": 700, "n_hfd": 0, "sfd_episodes": 1, "hfd_episodes": 0},
    # the split, row 5501, falls inside a chunk of 2, 3 and 1024 rows
    "head-in-chunk": {"n_sfd": 10000, "n_hfd": 1001, "sfd_episodes": 5, "hfd_episodes": 2},
}


@pytest.fixture(scope="module")
def written_by_write_csv(tmp_path_factory):
    """SPLITS name -> the files ``write_csv`` writes for ``generate_synthetic_segments`` on gen's seed 11."""
    files = {}

    def of(name):
        if name not in files:
            out = tmp_path_factory.mktemp(name)
            segments = generate_synthetic_segments(SynthConfig(**SPLITS[name]), named_seed(11, "generator"))
            for segment, events in zip(("sfd", "hfd"), segments):
                write_csv(events, str(out / f"{segment}.csv"))
            files[name] = read_bytes_tree(out)
        return files[name]

    return of


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, streams._CHUNK_ROWS])
@pytest.mark.parametrize("name", SPLITS)
def test_the_row_split_writes_the_bytes_of_an_inline_gen(tmp_path, monkeypatch, capsys, forks, written_by_write_csv,
                                                         name, chunk_rows):
    synth = SPLITS[name]
    monkeypatch.setattr(streams, "_CHUNK_ROWS", chunk_rows)
    tails = []
    encode_rows = cli.encode_rows

    def counted(rows, sink):
        start = sink.tell()
        encode_rows(rows, sink)
        sink.seek(start)
        tails.append(sink.read().count(b"\r\n"))

    monkeypatch.setattr(cli, "encode_rows", counted)
    config = {"stream": {"mode": "synth", "synth": synth}}
    forked, inline = gen_both_ways(tmp_path, monkeypatch, capsys, forks, tmp_path / "g", config=config)
    assert forked == inline
    code, _, err, files = forked
    n_sfd, n_hfd = synth["n_sfd"], synth["n_hfd"]
    assert code == 0 and err == ""
    assert tails == [max(0, n_sfd - (n_sfd + n_hfd + 1) // 2)] * 2  # the parent's part of sfd.csv, in each run
    assert files["sfd.csv"].count(b"\r\n") == n_sfd + 1 and files["hfd.csv"].count(b"\r\n") == n_hfd + 1
    assert [line.split(b",")[0] for line in files["sfd.csv"].splitlines()] == [b"timestamp", *(
        str(i).encode() for i in range(n_sfd))]
    assert {key: files[key] for key in ("sfd.csv", "hfd.csv")} == written_by_write_csv(name)


def test_a_failed_append_exits_3_like_a_serial_write(tmp_path, monkeypatch, capsys, forks):
    """sfd.csv turns into a directory after the child wrote its rows, so the parent's append fails."""
    run_forked = cli._run_forked
    out = tmp_path / "g"

    def then_blocked(*args):
        written = run_forked(*args)
        (out / "sfd.csv").unlink()
        (out / "sfd.csv").mkdir()
        return written

    monkeypatch.setattr(cli, "_run_forked", then_blocked)
    cfg = write_config(tmp_path)
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 3
    assert_no_children()
    assert len(forks) == 1
    assert capsys.readouterr() == ("", f"i/o error: [Errno 21] Is a directory: {str(out / 'sfd.csv')!r}\n")
    monkeypatch.setattr(cli, "_run_forked", run_forked)
    no_fork(monkeypatch)
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 3  # sfd.csv is still a directory
    assert capsys.readouterr() == ("", f"i/o error: [Errno 21] Is a directory: {str(out / 'sfd.csv')!r}\n")


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
