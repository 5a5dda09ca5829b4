"""`driftstream bench` under the shared fork rule: every model but the last is timed in one forked child.

A forked bench is compared with two serial ones, one without ``os.fork`` and
one on a host that reports a single usable CPU: the same model order in
``latency.csv``, the same rows in ``latency_raw.csv``, the same stdout keys,
the same pretrained models timed, and on failure the same exit code and
stderr line, with the earliest failing model in ``models`` order named.
Forked runs take the ``forks`` fixture, which reports two usable CPUs
whatever the host has. After ``main`` returns, on every path, no child
process is left to reap.
"""

import csv
import json
import os
import signal
import statistics
from collections import defaultdict

import pytest

from driftstream import cli
from driftstream.cli import main
from driftstream.errors import NonFiniteInput, PrequentialAbort
from driftstream.evaluation import latency_benchmark
from driftstream.models.snapshot import snapshot_json

from conftest import one_cpu
from test_cli import write_config
from test_run_processes import CLASS_OF, MODELS, assert_no_children

BENCH = {"trials": 3, "events_per_trial": 20, "warmup_trials": 1}


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


SERIAL = {"no-fork": no_fork, "one-cpu": one_cpu}


def bench(tmp_path, models, out, *flags):
    cfg = write_config(tmp_path, {"models": list(MODELS), "bench": BENCH})
    code = main(["bench", "--config", cfg, "--models", ",".join(models), "--out", str(tmp_path / out), *flags])
    assert_no_children()
    return code


def read_bench(directory):
    """(latency.csv rows, latency_raw.csv rows as dicts)."""
    with open(directory / "latency.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    with open(directory / "latency_raw.csv", newline="", encoding="utf-8") as fh:
        raw = list(csv.DictReader(fh))
    return table, raw


def key_tree(value):
    return {k: key_tree(v) for k, v in value.items()} if isinstance(value, dict) else None


def assert_tables_are_medians_of_trial_medians(table, raw, printed):
    ticks = defaultdict(list)
    for row in raw:
        ticks[row["model"], row["mode"], row["trial"]].append(float(row["latency_ms"]))
    assert table[0] == ["model", "static_ms", "online_ms", "overhead_ms"]
    for model, *cells in table[1:]:
        expected = {}
        for mode in ("static", "online"):
            trials = [statistics.median(t) for (m, md, _), t in ticks.items() if (m, md) == (model, mode)]
            assert len(trials) == BENCH["trials"]
            expected[f"{mode}_ms"] = statistics.median(trials)
        expected["overhead_ms"] = expected["online_ms"] - expected["static_ms"]
        assert printed["medians"][model] == expected
        assert cells == [format(expected[key], ".4g") for key in ("static_ms", "online_ms", "overhead_ms")]


@pytest.mark.parametrize("serial", list(SERIAL))
def test_forked_bench_has_the_layout_of_a_serial_bench(tmp_path, monkeypatch, capsys, forks, serial):
    runs = []
    for out in ("forked", serial):
        if out == serial:
            SERIAL[serial](monkeypatch)
        assert bench(tmp_path, MODELS, out) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        table, raw = read_bench(tmp_path / out)
        printed = json.loads(captured.out)
        assert_tables_are_medians_of_trial_medians(table, raw, printed)
        sequence = [(r["model"], r["mode"], r["trial"], r["event_index"]) for r in raw]
        runs.append(([row[0] for row in table], sequence, key_tree(printed), printed["trials"]))
    assert len(forks) == 1
    assert runs[0] == runs[1]
    order, sequence, _, trials = runs[0]
    assert order == ["model", *MODELS] and trials == BENCH["trials"]
    assert len(sequence) == len(MODELS) * 2 * BENCH["trials"] * BENCH["events_per_trial"]


def timed_models(tmp_path, monkeypatch, models, config=None):
    """{run: {model: snapshot of the pretrained model that was timed}} of a forked and a serial bench."""

    # the child's models are timed in the child, so the recorder writes files
    def record_timed_models(models, *args, **kwargs):
        for name, model in models.items():
            (recorded / name).write_text(snapshot_json(model))
        return latency_benchmark(models, *args, **kwargs)

    monkeypatch.setattr(cli, "latency_benchmark", record_timed_models)
    cfg = write_config(tmp_path, {"models": list(MODELS), "bench": BENCH, **(config or {})})
    timed = {}
    for out in ("forked", "serial"):
        if out == "serial":
            no_fork(monkeypatch)
        recorded = tmp_path / f"timed_{out}"
        recorded.mkdir()
        argv = ["bench", "--config", cfg, "--models", ",".join(models), "--out", str(tmp_path / out), "--quiet"]
        assert main(argv) == 0
        assert_no_children()
        timed[out] = {path.name: path.read_text() for path in recorded.iterdir()}
    return timed


def test_forked_bench_times_the_models_a_serial_bench_times(tmp_path, monkeypatch, forks):
    timed = timed_models(tmp_path, monkeypatch, MODELS)
    assert set(timed["forked"]) == set(MODELS)
    assert timed["forked"] == timed["serial"]


@pytest.mark.parametrize(
    "models, n_trees, splits",
    [(MODELS, 1, False), (MODELS, 2, True), (MODELS, 3, True), (("nb", "arf"), 10, True), (("arf", "lr"), 10, False)],
)
def test_a_split_forest_is_timed_as_a_serial_bench_times_it(tmp_path, monkeypatch, forks, models, n_trees, splits):
    shares = []
    pretrained = cli._pretrained

    def recording(cfg, name, pretrain, slots=None, share=None):
        shares.append((name, share is not None))
        return pretrained(cfg, name, pretrain, slots, share)

    monkeypatch.setattr(cli, "_pretrained", recording)
    timed = timed_models(tmp_path, monkeypatch, models, {"arf": {"n_trees": n_trees}})
    assert len(forks) == 1
    # the forked bench's parent, then the serial bench
    assert shares == [(models[-1], splits)] + [(name, False) for name in models]
    assert set(timed["forked"]) == set(models)
    assert timed["forked"] == timed["serial"]


@pytest.mark.parametrize(
    "models, host, n_forks",
    [
        (MODELS, None, 1),
        (("lr", "arf"), None, 1),
        (("arf",), None, 0),
        (("lr",), None, 0),
        (MODELS, "one-cpu", 0),
        (MODELS, "no-affinity-two-cpus", 1),
        (MODELS, "no-affinity-one-cpu", 0),
    ],
)
def test_only_a_bench_of_several_models_on_two_cpus_forks_once(tmp_path, monkeypatch, capsys, forks, models, host,
                                                               n_forks):
    if host == "one-cpu":
        one_cpu(monkeypatch)
    elif host is not None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2 if host.endswith("two-cpus") else 1)
    assert bench(tmp_path, models, "o") == 0
    assert len(forks) == n_forks
    table, _ = read_bench(tmp_path / "o")
    assert [row[0] for row in table[1:]] == list(models)
    assert sorted(json.loads(capsys.readouterr().out)["medians"]) == sorted(models)


def failing_models(monkeypatch, failures):
    """Make pretraining raise ``failures[model]`` for the models it names."""
    pretrain = cli._pretrain

    def fake(model, *args):
        name = CLASS_OF[type(model).__name__]
        if name in failures:
            raise failures[name]
        return pretrain(model, *args)

    monkeypatch.setattr(cli, "_pretrain", fake)


@pytest.mark.parametrize(
    "failure, code",
    [
        (PrequentialAbort(17, NonFiniteInput("score")), 4),  # does not survive pickling
        (OSError(28, "No space left on device"), 3),
    ],
)
def test_a_failing_child_exits_like_a_serial_bench(tmp_path, monkeypatch, capsys, forks, failure, code):
    failing_models(monkeypatch, {"lr": failure})
    assert bench(tmp_path, MODELS, "forked") == code
    assert len(forks) == 1
    forked = capsys.readouterr()
    no_fork(monkeypatch)
    assert bench(tmp_path, MODELS, "serial") == code
    serial = capsys.readouterr()
    assert forked.out == serial.out == ""
    assert forked.err == serial.err
    assert serial.err.count("\n") == 1 and "Traceback" not in serial.err
    assert not (tmp_path / "forked").exists() and not (tmp_path / "serial").exists()


@pytest.mark.parametrize("failing", [("lr", "nb", "arf"), ("nb", "arf"), ("arf",), ("lr", "arf"), ("nb",)])
def test_the_earliest_failing_model_wins(tmp_path, monkeypatch, capsys, forks, failing):
    failing_models(monkeypatch, {name: PrequentialAbort(3, NonFiniteInput(name)) for name in failing})
    assert bench(tmp_path, MODELS, "o") == 4
    assert len(forks) == 1
    assert capsys.readouterr().err == f"error: model error at stream index 3: non-finite {failing[0]}\n"


def test_a_killed_child_exits_4_naming_its_models(tmp_path, monkeypatch, capsys, forks):
    pretrain = cli._pretrain

    def killed_nb(model, *args):
        if type(model).__name__ == "GaussianNB":
            os.kill(os.getpid(), signal.SIGKILL)
        return pretrain(model, *args)

    monkeypatch.setattr(cli, "_pretrain", killed_nb)
    assert bench(tmp_path, MODELS, "o") == 4
    err = capsys.readouterr().err
    assert err == f"error: models 'lr,nb': its process was killed by signal {int(signal.SIGKILL)} without a result\n"


class KilledWhilePickled:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_a_result_cut_short_by_a_dying_child_exits_4_naming_its_models(tmp_path, monkeypatch, capsys, forks):
    def cut_short(models, *args, **kwargs):
        report = latency_benchmark(models, *args, **kwargs)
        if "lr" in models:  # far more than one pickle frame is sent before the child dies on nb's report
            report.raw_ms["lr"]["online"].append([float(i) for i in range(200_000)])
        if "nb" in models:
            report.raw_ms["nb"]["online"].append(KilledWhilePickled())
        return report

    monkeypatch.setattr(cli, "latency_benchmark", cut_short)
    assert bench(tmp_path, MODELS, "o") == 4
    err = capsys.readouterr().err
    assert err == f"error: models 'lr,nb': its process was killed by signal {int(signal.SIGKILL)} without a result\n"
    assert not (tmp_path / "o").exists()
