"""`driftstream run` under the shared fork rule: every model but the last runs in one forked child.

The forked run must be indistinguishable from a serial one: the same bytes
in every report, and on failure the same exit code and stderr line, with
the earliest failing model in ``cfg.models`` order named. Forked runs take
the ``forks`` fixture, which reports two usable CPUs whatever the host has.
After ``main`` returns, on every path, no child process is left to reap.
"""

import json
import os
import signal
import time

import pytest

from driftstream import cli
from driftstream.cli import main
from driftstream.config import load_config
from driftstream.errors import NonFiniteInput, PrequentialAbort
from driftstream.evaluation import prequential_run
from driftstream.models import AdaptiveRandomForest, HoeffdingTree
from driftstream.telemetry import to_features

from conftest import one_cpu
from test_cli import read_bytes_tree, write_config

MODELS = ("lr", "nb", "arf")
CLASS_OF = {"LogisticRegression": "lr", "GaussianNB": "nb", "AdaptiveRandomForest": "arf"}


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(tmp_path, models, out, *flags):
    cfg = write_config(tmp_path, {"models": list(MODELS)})
    return main(["run", "--config", cfg, "--models", ",".join(models), "--out", str(tmp_path / out), "--quiet", *flags])


def failing_models(monkeypatch, failures):
    """Make prequential_run raise ``failures[model]`` for the models it names."""

    def fake(static_model, online_model, *args, **kwargs):
        name = CLASS_OF[type(static_model).__name__]
        if name in failures:
            raise failures[name]
        return prequential_run(static_model, online_model, *args, **kwargs)

    monkeypatch.setattr(cli, "prequential_run", fake)


def test_each_models_files_equal_the_model_run_alone(tmp_path, monkeypatch, forks):
    assert run(tmp_path, MODELS, "all", "--save-models") == 0
    assert_no_children()
    assert len(forks) == 1
    together = read_bytes_tree(tmp_path / "all")
    summary = together.pop("summary.json")
    together.pop("manifest.json")  # it names the output directory
    alone = {}

    def no_fork():
        raise AssertionError("a single-model run forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for name in MODELS:
        assert run(tmp_path, [name], name, "--save-models") == 0
        files = read_bytes_tree(tmp_path / name)
        files.pop("manifest.json")
        alone[name] = files.pop("summary.json")
        assert files.pop("drift_events.csv") == together["drift_events.csv"]
        assert set(files) == {f"{name}_metrics.csv", f"{name}_static.model.json", f"{name}_online.model.json"}
        for fname, data in files.items():
            assert together[fname] == data, fname
    assert len(together) == 1 + 3 * len(MODELS)
    entries = {name: json.loads(alone[name])["models"][name] for name in MODELS}
    assert json.loads(summary)["models"] == entries


def assert_forked_and_inline_runs_match(tmp_path):
    forked, inline = read_bytes_tree(tmp_path / "forked"), read_bytes_tree(tmp_path / "inline")
    forked.pop("manifest.json")  # it names the output directory
    inline.pop("manifest.json")
    assert forked == inline


def test_without_fork_every_model_runs_inline(tmp_path, monkeypatch, forks):
    assert run(tmp_path, MODELS, "forked", "--save-models") == 0
    monkeypatch.delattr(os, "fork")
    assert run(tmp_path, MODELS, "inline", "--save-models") == 0
    assert len(forks) == 1
    assert_forked_and_inline_runs_match(tmp_path)


def test_on_one_cpu_every_model_runs_inline(tmp_path, monkeypatch, forks):
    assert run(tmp_path, MODELS, "forked", "--save-models") == 0
    assert len(forks) == 1
    one_cpu(monkeypatch)
    assert run(tmp_path, MODELS, "inline", "--save-models") == 0
    assert len(forks) == 1
    assert_forked_and_inline_runs_match(tmp_path)


@pytest.mark.parametrize(
    "failure, code",
    [
        (PrequentialAbort(17, NonFiniteInput("score")), 4),  # does not survive pickling
        (OSError(28, "No space left on device"), 3),
    ],
)
def test_a_failing_child_exits_like_the_model_run_alone(tmp_path, monkeypatch, capsys, forks, failure, code):
    failing_models(monkeypatch, {"lr": failure})
    assert run(tmp_path, ["lr"], "alone") == code
    alone = capsys.readouterr().err
    assert run(tmp_path, ["lr", "nb"], "forked") == code
    assert_no_children()
    assert capsys.readouterr().err == alone
    assert alone.count("\n") == 1 and "Traceback" not in alone


@pytest.mark.parametrize("failing", [("lr", "nb", "arf"), ("nb", "arf"), ("arf",), ("lr", "arf")])
def test_the_earliest_failing_model_wins(tmp_path, monkeypatch, capsys, forks, failing):
    failing_models(monkeypatch, {name: PrequentialAbort(3, NonFiniteInput(name)) for name in failing})
    assert run(tmp_path, MODELS, "o") == 4
    assert_no_children()
    assert capsys.readouterr().err == f"error: model error at stream index 3: non-finite {failing[0]}\n"


def killed_lr(monkeypatch):
    """Make the process that runs lr die by SIGKILL."""
    run_model = cli._run_model

    def killed(cfg, name, *args):
        if name == "lr":
            os.kill(os.getpid(), signal.SIGKILL)
        return run_model(cfg, name, *args)

    monkeypatch.setattr(cli, "_run_model", killed)


def test_a_killed_child_exits_4_naming_the_model(tmp_path, monkeypatch, capsys, forks):
    killed_lr(monkeypatch)
    assert run(tmp_path, ["lr", "nb"], "o") == 4
    assert_no_children()
    err = capsys.readouterr().err
    assert err == f"error: model 'lr': its process was killed by signal {int(signal.SIGKILL)} without a result\n"


def test_a_killed_child_of_three_models_exits_4_naming_its_models(tmp_path, monkeypatch, capsys, forks):
    killed_lr(monkeypatch)
    received = []
    run_arms = cli.prequential_run

    def receiving(*args, share=None, **kwargs):
        return run_arms(*args, share=lambda: received.append(share()) or received[-1], **kwargs)

    monkeypatch.setattr(cli, "prequential_run", receiving)
    assert run(tmp_path, MODELS, "o") == 4
    assert_no_children()
    assert len(forks) == 1
    assert len(received) == 1  # the child was killed after it handed over its share of arf
    err = capsys.readouterr().err
    assert err == f"error: models 'lr,nb': its process was killed by signal {int(signal.SIGKILL)} without a result\n"


def took_a_share(monkeypatch):
    """(model, whether it waited for the forked child's share of arf), per model run in this process."""
    calls = []
    run_model = cli._run_model

    def recording(cfg, name, *args):
        calls.append((name, args[-1] is not None))
        return run_model(cfg, name, *args)

    monkeypatch.setattr(cli, "_run_model", recording)
    return calls


@pytest.mark.parametrize(
    "models, n_trees, splits",
    [
        (MODELS, 1, False),  # the child's share rounds to no slot
        (MODELS, 2, True),
        (MODELS, 3, True),
        (("nb", "arf"), 10, True),
        (("arf", "lr"), 10, False),  # arf is not the model left in this process
    ],
)
def test_a_split_forest_writes_the_bytes_of_a_one_cpu_run(tmp_path, monkeypatch, forks, models, n_trees, splits):
    calls = took_a_share(monkeypatch)
    cfg = write_config(tmp_path, {"arf": {"n_trees": n_trees}})
    for out in ("forked", "inline"):
        if out == "inline":
            one_cpu(monkeypatch)
        argv = ["run", "--config", cfg, "--models", ",".join(models), "--out", str(tmp_path / out), "--save-models"]
        assert main([*argv, "--quiet"]) == 0
        assert_no_children()
    assert len(forks) == 1
    assert calls == [(models[-1], splits)] + [(name, False) for name in models]
    assert_forked_and_inline_runs_match(tmp_path)


@pytest.mark.parametrize("segment, line", [("stream", "model error at stream index 3: "), ("pretrain", "")])
def test_a_failing_share_in_the_child_exits_like_a_serial_run(tmp_path, monkeypatch, capsys, forks, segment, line):
    # the last tree slot, one of the child's, fails on one event's features
    cfg = write_config(tmp_path, {"models": list(MODELS)})
    pretrain, stream = cli._events(*cli._assemble(load_config(cfg), cli._EVENT_FIELDS))
    fails_on = to_features(stream[3] if segment == "stream" else pretrain[0])
    init, route = AdaptiveRandomForest.__init__, HoeffdingTree._route

    def marked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.trees[-1].fails_on = fails_on

    def failing(self, x):
        if getattr(self, "fails_on", None) == x:
            raise NonFiniteInput("x")
        return route(self, x)

    monkeypatch.setattr(AdaptiveRandomForest, "__init__", marked)
    monkeypatch.setattr(HoeffdingTree, "_route", failing)
    assert run(tmp_path, MODELS, "forked") == 4
    assert_no_children()
    forked = capsys.readouterr().err
    one_cpu(monkeypatch)
    assert run(tmp_path, MODELS, "serial") == 4
    assert capsys.readouterr().err == forked == f"error: {line}non-finite x\n"
    assert len(forks) == 1


def test_an_interrupted_child_leaves_without_a_traceback(tmp_path, monkeypatch, capfd, forks):
    run_model = cli._run_model

    def interrupted_lr(cfg, name, *args):
        if name == "lr":
            raise KeyboardInterrupt
        return run_model(cfg, name, *args)

    monkeypatch.setattr(cli, "_run_model", interrupted_lr)
    assert run(tmp_path, ["lr", "arf"], "o") == 4
    assert_no_children()
    err = capfd.readouterr().err
    assert err == "error: model 'lr': its process exited with code 1 without a result\n"


def test_an_unexpected_error_in_a_child_exits_4_naming_the_model(tmp_path, monkeypatch, capsys, forks):
    failing_models(monkeypatch, {"nb": KeyError("boom")})
    assert run(tmp_path, ["nb", "lr"], "o") == 4
    assert_no_children()
    assert capsys.readouterr().err.splitlines()[-1] == "error: model 'nb': its process exited with code 1 without a result"


def test_an_interrupted_parent_kills_and_reaps_its_children(tmp_path, monkeypatch, forks):
    def slow_children(cfg, name, *args):
        if name != "arf":
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_run_model", slow_children)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, MODELS, "o")
    assert_no_children()
    assert time.monotonic() - start < 30


def test_duplicate_model_names_are_a_config_error(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(tmp_path, ["lr", "nb", "lr"], "o") == 2
    assert capsys.readouterr().err == "config error: config field 'models': each model may be named only once\n"
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "bad, params, other", [("lr", {"learning_rate": 1e308}, "nb"), ("nb", {"min_variance": 1e308}, "lr")]
)
def test_a_nan_log_odds_exits_4_without_a_snapshot_forked_and_on_one_cpu(tmp_path, monkeypatch, capsys, forks, bad,
                                                                         params, other):
    cfg = write_config(tmp_path, {bad: params})
    for out in ("forked", "serial"):
        if out == "serial":
            one_cpu(monkeypatch)
        argv = ["run", "--config", cfg, "--models", f"{bad},{other}", "--out", str(tmp_path / out), "--save-models"]
        assert main([*argv, "--quiet"]) == 4
        assert_no_children()
        assert capsys.readouterr().err == "error: non-finite log-odds\n"
        assert not any(name.startswith(bad) for name in os.listdir(tmp_path / out))
    assert len(forks) == 1
