"""`drift`, `run` and `bench` on the merged columns: what the public event API gives on the same stream.

The CLI assembles the merged stream as columns. The reference is the event
path: ``generate_synthetic_segments`` or ``load_csv``, then
``random_oversample``, ``merge_sfd_hfd`` and ``detect_drifts_per_class``.
``drift``'s and ``run``'s drift_events.csv, stdout and exit code are compared
with its alarms, and the events ``run`` and ``bench`` stream with its merged
events, field by field. Forked runs take the ``forks`` fixture, which reports
two usable CPUs whatever the host has.
"""

import dataclasses
import json

import pytest

from driftstream import cli, streams
from driftstream.cli import main
from driftstream.config import load_config, named_seed
from driftstream.drift import detect_drifts_per_class, write_drift_csv
from driftstream.errors import NoFailureSamples
from driftstream.streams import generate_synthetic_segments, load_csv, merge_sfd_hfd, random_oversample
from driftstream.telemetry import Segment, TelemetryEvent

from test_cli import SMALL_SYNTH, write_config
from test_gen_processes import no_fork
from test_load_processes import add_site_column, chunk_paths, set_cell, write_segments
from test_run_processes import assert_no_children

RATIO = {"target_failure_ratio": 0.5}
COUNT = {"target_failure_count": 900}
PHT = {"feature_index": 1, "direction": "decrease", "threshold": 2.0, "min_instances": 10}
# one hard-failure episode of 200 rows in 800, so that a 0.5 ratio adds copies too
ONE_HFD_EPISODE = {"stream": {**SMALL_SYNTH, "synth": {**SMALL_SYNTH["synth"], "hfd_episodes": 1}}}


def reference(cfg_path):
    """(pretrain, stream) of the public event API on the config's stream: merged, split at the boundary."""
    cfg = load_config(cfg_path)
    stream = cfg.stream
    if stream.mode == "synth":
        sfd, hfd = generate_synthetic_segments(stream.synth, named_seed(cfg.seed, "generator"))
    else:
        sfd = load_csv(stream.sfd_path, column_map=stream.column_map, default_segment=Segment.SFD)
        hfd = load_csv(stream.hfd_path, column_map=stream.column_map, default_segment=Segment.HFD)
    if cfg.oversample is not None:
        hfd = random_oversample(hfd, seed=named_seed(cfg.seed, "oversample"), **dataclasses.asdict(cfg.oversample))
    merged = merge_sfd_hfd(sfd, hfd)
    return merged[: len(sfd)], merged[len(sfd) :]


def reference_alarms(cfg_path, path):
    """(boundary, alarm count, drift_events.csv bytes) of ``detect_drifts_per_class`` over the reference stream."""
    pretrain, stream = reference(cfg_path)
    cfg = load_config(cfg_path)
    assert any(e.segment is Segment.OVERSAMPLED for e in stream) == (cfg.oversample is not None)
    alarms = detect_drifts_per_class(pretrain + stream, **dataclasses.asdict(cfg.pht))
    write_drift_csv(alarms, str(path))
    return len(pretrain), len(alarms), path.read_bytes()


def outcome(command, cfg_path, out, capsys):
    """(exit code, stdout, stderr, drift_events.csv bytes or None) of ``main([command, ...])``.

    ``run`` runs lr alone and prints its summary as JSON, which carries the boundary.
    """
    extra = ["--models", "lr", "--format", "json"] if command == "run" else []
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    assert_no_children()
    captured = capsys.readouterr()
    path = out / "drift_events.csv"
    return code, captured.out, captured.err, path.read_bytes() if path.exists() else None


def assert_drift_and_run_give_the_reference_alarms(tmp_path, cfg_path, capsys):
    """``drift`` and ``run`` write and print the reference's alarms and boundary; returns the alarm count."""
    boundary, n_alarms, alarms = reference_alarms(cfg_path, tmp_path / "reference.csv")
    out = tmp_path / "drift"
    payload = {"drift_events": n_alarms, "drift_boundary_index": boundary, "path": str(out / "drift_events.csv")}
    assert outcome("drift", cfg_path, out, capsys) == (0, json.dumps(payload, sort_keys=True) + "\n", "", alarms)
    code, stdout, stderr, run_alarms = outcome("run", cfg_path, tmp_path / "run", capsys)
    assert (code, stderr, run_alarms) == (0, "", alarms)
    assert json.loads(stdout)["drift_boundary_index"] == boundary
    return n_alarms


def one_failure_episode(name, lines):
    """hfd.csv's first failure episode (data rows 100-299) relabeled normal: ``ONE_HFD_EPISODE`` in file mode."""
    if name == "hfd":
        for row in range(101, 301):
            set_cell(lines, row, 5, "0")


def add_site(name, lines):
    """``one_failure_episode`` in files whose every chunk goes to the row loop."""
    one_failure_episode(name, lines)
    add_site_column(name, lines)


def file_config(tmp_path, extra, edit=None):
    """``write_segments``'s file-mode config, with the ``extra`` sections."""
    path = write_segments(tmp_path, edit)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def row_loop_config(tmp_path, monkeypatch, extra):
    """``file_config`` with ``add_site``, in chunks small enough that each file has several."""
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 256)
    cfg_path = file_config(tmp_path, extra, add_site)
    cfg = load_config(cfg_path)
    for path in (cfg.stream.sfd_path, cfg.stream.hfd_path):
        _, paths = chunk_paths(monkeypatch, path, cfg.stream.column_map)
        assert len(paths) > 1 and set(paths) == {"rows"}
    return cfg_path


CASES = {
    "ratio": {"oversample": RATIO},
    "count": {"oversample": COUNT},
    "feature-and-direction": {"pht": PHT, "oversample": RATIO},
    "no-oversample": {},
}


@pytest.mark.parametrize("extra", CASES.values(), ids=CASES)
def test_synth_mode_alarms_are_the_event_apis(tmp_path, capsys, extra):
    cfg_path = write_config(tmp_path, {**ONE_HFD_EPISODE, **extra})
    assert assert_drift_and_run_give_the_reference_alarms(tmp_path, cfg_path, capsys) >= 2


@pytest.mark.parametrize("extra", CASES.values(), ids=CASES)
def test_file_mode_alarms_are_the_event_apis(tmp_path, capsys, forks, extra):
    cfg_path = file_config(tmp_path, extra, one_failure_episode)
    assert assert_drift_and_run_give_the_reference_alarms(tmp_path, cfg_path, capsys) >= 2
    assert len(forks) == 2  # drift's load and run's; run's one model forks nothing


@pytest.mark.parametrize("extra", [CASES["ratio"], CASES["feature-and-direction"]], ids=["ratio", "feature"])
def test_row_loop_chunks_give_the_alarms_of_the_event_api(tmp_path, monkeypatch, capsys, forks, extra):
    cfg_path = row_loop_config(tmp_path, monkeypatch, extra)
    assert assert_drift_and_run_give_the_reference_alarms(tmp_path, cfg_path, capsys) >= 2


def no_failures(name, lines):
    if name == "hfd":
        for row in range(1, len(lines)):
            set_cell(lines, row, 5, "0")


def empty_sfd_beside_no_failures(name, lines):
    if name == "sfd":
        lines[:] = lines[:1]
    no_failures(name, lines)


@pytest.mark.parametrize(
    "edit, oversample, code, message",
    [
        (empty_sfd_beside_no_failures, RATIO, 2,
         "config error: config field 'stream.sfd_path': the pretraining segment is empty\n"),
        (no_failures, RATIO, 4, "error: cannot oversample: no failure samples present\n"),
        (no_failures, COUNT, 4, "error: cannot oversample: no failure samples present\n"),
    ],
    ids=["empty-sfd-first", "no-failures-ratio", "no-failures-count"],
)
def test_file_mode_errors_name_the_empty_segment_first(tmp_path, capsys, forks, edit, oversample, code, message):
    """The event API would oversample first, and so raise NoFailureSamples even beside an empty sfd.csv."""
    cfg_path = file_config(tmp_path, {"oversample": oversample}, edit)
    with pytest.raises(NoFailureSamples):
        reference(cfg_path)
    for command in ("drift", "run"):
        assert outcome(command, cfg_path, tmp_path / command, capsys) == (code, "", message, None)


def test_an_empty_synthetic_hfd_segment_names_its_field(tmp_path, capsys):
    synth = {**SMALL_SYNTH["synth"], "n_hfd": 0, "hfd_episodes": 0}
    cfg_path = write_config(tmp_path, {"stream": {"mode": "synth", "synth": synth}, "oversample": RATIO})
    for command in ("drift", "run"):
        assert outcome(command, cfg_path, tmp_path / command, capsys) == (
            2, "", "config error: config field 'stream.synth.n_hfd': the streamed segment is empty\n", None
        )


@pytest.mark.parametrize("mode", ["synth", "file"])
def test_drift_builds_no_event(tmp_path, monkeypatch, mode):
    built = []
    init = TelemetryEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def refused(*args):
        raise AssertionError("drift built events")

    if mode == "synth":
        cfg_path = write_config(tmp_path, {**ONE_HFD_EPISODE, "oversample": RATIO})
    else:
        cfg_path = file_config(tmp_path, {"oversample": RATIO}, one_failure_episode)
    monkeypatch.setattr(TelemetryEvent, "__init__", counted)
    monkeypatch.setattr(cli, "TelemetryEvent", refused)
    no_fork(monkeypatch)  # so that both files are read, and counted, in this process
    assert main(["drift", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert built == []
    assert (tmp_path / "o" / "drift_events.csv").read_bytes().count(b"\n") > 2


def fields(events):
    """Every field of every event but ``meta``, which equality ignores: floats as hex, enums by identity."""
    return [
        (e.timestamp, *(v.hex() for v in (e.ber_tx, e.osnr_tx, e.ber_rx, e.osnr_rx)), id(e.label), id(e.segment))
        for e in events
    ]


@pytest.mark.parametrize("mode", ["synth", "file", "row-loop"])
def test_run_and_bench_stream_the_event_apis_events(tmp_path, monkeypatch, mode):
    """The pretrain and stream events that ``run`` and ``bench`` hand their models, against the reference's."""
    extra = {"oversample": RATIO, "models": ["lr"]}
    if mode == "synth":
        cfg_path = write_config(tmp_path, {**ONE_HFD_EPISODE, **extra})
    elif mode == "file":
        cfg_path = file_config(tmp_path, extra, one_failure_episode)
    else:
        cfg_path = row_loop_config(tmp_path, monkeypatch, extra)
    pretrain, stream = reference(cfg_path)
    assert any(e.segment is Segment.OVERSAMPLED for e in stream)
    if mode == "row-loop":  # the reference keeps the site column; no CLI output reads it
        assert pretrain[0].meta == {"site": "rack-0"}
    seen = {}

    def recording(name, call, *positions):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, [args[i] for i in positions])
            return call(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    recording("prequential_run", cli.prequential_run, 2, 3)
    recording("_pretrain", cli._pretrain, 1)
    recording("latency_benchmark", cli.latency_benchmark, 1)
    no_fork(monkeypatch)  # so that every call is made, and recorded, in this process
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run"), "--quiet"]) == 0
    assert main(["bench", "--config", cfg_path, "--out", str(tmp_path / "bench"), "--quiet", "--trials", "1"]) == 0
    run_pretrain, run_stream = seen["prequential_run"]
    assert fields(run_pretrain) == fields(pretrain)
    assert fields(run_stream) == fields(stream)
    assert fields(seen["_pretrain"][0]) == fields(pretrain)
    assert fields(seen["latency_benchmark"][0]) == fields(stream[: load_config(cfg_path).bench.events_per_trial])
