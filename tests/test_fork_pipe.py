"""The one pipe between a forked child and its parent, which carries arf's share and then the child's result.

A share larger than the pipe's buffer makes the child wait until the parent
reads it. Where Linux lets a process resize a pipe (``fcntl.F_SETPIPE_SZ``),
the ``pipe`` fixture shrinks each new pipe's buffer to 4 KiB, so that the
default 10-tree forest's share exceeds it; elsewhere it falls back to a
forest of 100 trees, whose half pickles to more than the default 64 KiB.
With such a share, ``run`` must still write the bytes of a one-CPU run,
``bench`` must time the models a serial bench times, and a parent whose arf
fails before it reads the share must still read the child's result, exit as
a serial run exits and leave no child. A share smaller than the child's
write buffer must reach the parent before the child runs its own models,
and no path may need a temporary file. Forked runs take the ``forks``
fixture, which reports two usable CPUs whatever the host has.
"""

import csv
import fcntl
import os
import pickle
import tempfile
import time
from types import SimpleNamespace

import pytest

from driftstream import cli
from driftstream.cli import main
from driftstream.errors import NonFiniteInput

from conftest import one_cpu
from test_bench_processes import BENCH, no_fork, timed_models
from test_run_processes import MODELS, assert_forked_and_inline_runs_match, assert_no_children, failing_models
from test_cli import write_config

PIPE_BUFFER = 65_536
SMALL_PIPE = 4_096
LARGE_SHARE = {
    "arf": {"n_trees": 100},
    "stream": {"mode": "synth", "synth": {"n_sfd": 4000, "n_hfd": 1000, "hfd_episodes": 4}},
}


@pytest.fixture
def pipe(monkeypatch):
    """``config``, a forest whose share exceeds the pipe's buffer, and ``buffers``, each new pipe's buffer size.

    With ``F_SETPIPE_SZ``, every new pipe gets a 4 KiB buffer and ``config``
    keeps the default forest; without it, pipes keep the default 64 KiB and
    ``config`` is ``LARGE_SHARE``.
    """
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        return SimpleNamespace(config=LARGE_SHARE, buffers=[PIPE_BUFFER])
    buffers = []
    make_pipe = os.pipe

    def small_pipe():
        read_fd, write_fd = make_pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, SMALL_PIPE)
        buffers.append(fcntl.fcntl(write_fd, fcntl.F_GETPIPE_SZ))
        return read_fd, write_fd

    monkeypatch.setattr(os, "pipe", small_pipe)
    return SimpleNamespace(config={}, buffers=buffers)


def record_message_sizes(monkeypatch, path):
    """Append the pickled size of each ``_outcome`` message to ``path``, in the process that makes it."""
    outcome = cli._outcome

    def recording(work):
        message = outcome(work)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{len(pickle.dumps(message))}\n")
        return message

    monkeypatch.setattr(cli, "_outcome", recording)


def run(tmp_path, out, config, *flags):
    cfg = write_config(tmp_path, {"models": list(MODELS), **config})
    code = main(["run", "--config", cfg, "--out", str(tmp_path / out), "--quiet", *flags])
    assert_no_children()
    return code


def test_a_share_larger_than_the_pipe_buffer_writes_the_bytes_of_a_one_cpu_run(tmp_path, monkeypatch, forks, pipe):
    sizes = tmp_path / "sizes"
    record_message_sizes(monkeypatch, sizes)
    assert run(tmp_path, "forked", pipe.config, "--save-models") == 0
    assert len(forks) == 1
    share, _ = map(int, sizes.read_text().split())
    assert share > pipe.buffers[-1]
    one_cpu(monkeypatch)
    assert run(tmp_path, "inline", pipe.config, "--save-models") == 0
    assert len(forks) == 1
    assert_forked_and_inline_runs_match(tmp_path)


def test_a_share_larger_than_the_pipe_buffer_is_timed_as_a_serial_bench_times_it(tmp_path, monkeypatch, forks, pipe):
    sizes = tmp_path / "sizes"
    record_message_sizes(monkeypatch, sizes)
    timed = timed_models(tmp_path, monkeypatch, MODELS, pipe.config)
    assert len(forks) == 1
    assert int(sizes.read_text().split()[0]) > pipe.buffers[-1]
    assert set(timed["forked"]) == set(MODELS)
    assert timed["forked"] == timed["serial"]
    for out in ("forked", "serial"):
        with open(tmp_path / out / "latency.csv", newline="", encoding="utf-8") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["model", *MODELS]


# The parent's arf fails before it asks for the child's share; with lr failing in the child too, the
# child's error must win, so the parent must read the child's result and not the share it left unread.
FAILING = [("arf",), ("lr", "arf")]


@pytest.mark.parametrize("failing", FAILING)
def test_a_parent_that_fails_before_it_receives_a_large_share_exits_like_a_serial_run(tmp_path, monkeypatch, capsys,
                                                                                       forks, pipe, failing):
    failing_models(monkeypatch, {name: NonFiniteInput(f"{name} in its arms") for name in failing})
    assert run(tmp_path, "forked", pipe.config) == 4
    assert len(forks) == 1
    forked = capsys.readouterr().err
    one_cpu(monkeypatch)
    assert run(tmp_path, "serial", pipe.config) == 4
    assert capsys.readouterr().err == forked == f"error: non-finite {failing[0]} in its arms\n"


@pytest.mark.parametrize("failing", FAILING)
def test_a_bench_parent_that_fails_before_it_receives_a_large_share_exits_like_a_serial_bench(tmp_path, monkeypatch,
                                                                                              capsys, forks, pipe,
                                                                                              failing):
    parent = os.getpid()
    pretrained = cli._pretrained

    def failing_pretrain(cfg, name, *args):
        if name in failing and (name != "arf" or os.getpid() == parent):  # the child's share of arf still pretrains
            raise NonFiniteInput(f"{name} in its pretrain")
        return pretrained(cfg, name, *args)

    monkeypatch.setattr(cli, "_pretrained", failing_pretrain)
    cfg = write_config(tmp_path, {"models": list(MODELS), "bench": BENCH, **pipe.config})
    for out in ("forked", "serial"):
        if out == "serial":
            no_fork(monkeypatch)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / out)]) == 4
        assert_no_children()
        assert capsys.readouterr().err == f"error: non-finite {failing[0]} in its pretrain\n"
    assert len(forks) == 1


def no_temporary_file(*args, **kwargs):
    raise OSError(28, "No space left on device")


def test_a_forked_run_and_bench_need_no_temporary_file(tmp_path, monkeypatch, capsys, forks):
    monkeypatch.setattr(tempfile, "TemporaryFile", no_temporary_file)
    cfg = write_config(tmp_path, {"models": list(MODELS), "bench": BENCH})
    for command in ("run", "bench"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command), "--quiet"]) == 0
        assert_no_children()
    assert len(forks) == 2
    assert capsys.readouterr().err == ""


def test_the_share_reaches_the_parent_before_the_child_runs_its_own_models(tmp_path, monkeypatch, forks):
    received = tmp_path / "received"
    run_model, run_arms = cli._run_model, cli.prequential_run

    def waiting_for_the_share(cfg, name, *args):
        deadline = time.monotonic() + 10
        while name == "lr" and not received.exists():  # in the child, once it has sent arf's share
            assert time.monotonic() < deadline, "the parent never received the share"
            time.sleep(0.01)
        return run_model(cfg, name, *args)

    def announcing(*args, share=None, **kwargs):
        def announced():
            forest = share()
            received.touch()
            return forest

        return run_arms(*args, share=share and announced, **kwargs)

    monkeypatch.setattr(cli, "_run_model", waiting_for_the_share)
    monkeypatch.setattr(cli, "prequential_run", announcing)
    # one tree that never splits pickles to less than the child's write buffer, so it arrives only if flushed
    cfg = write_config(tmp_path, {"models": list(MODELS), "arf": {"n_trees": 2, "grace_period": 100_000}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert_no_children()
    assert len(forks) == 1
