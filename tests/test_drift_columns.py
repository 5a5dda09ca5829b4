"""`driftstream drift` on parsed columns: the alarms, stdout and exit code of detection over merged events.

``drift`` keeps only each segment's labels and one feature's values, and
takes the oversampled copies as positions drawn as ``random_oversample``
draws them. Each case is compared with the event path, kept here as the
reference: ``cli._assemble``'s merged events through
``detect_drifts_per_class``, written and printed as ``drift`` writes and
prints them, with an error mapped as ``main`` maps it. Forked runs take the
``forks`` fixture, which reports two usable CPUs whatever the host has.
"""

import dataclasses
import json
import os
import shutil

import pytest

from driftstream import cli, streams
from driftstream.cli import main
from driftstream.config import load_config
from driftstream.drift import detect_drifts_per_class, write_drift_csv
from driftstream.telemetry import TelemetryEvent

from test_cli import SMALL_SYNTH, write_config
from test_gen_processes import no_fork
from test_load_processes import set_cell, write_segments
from test_run_processes import assert_no_children

RATIO = {"target_failure_ratio": 0.5}
COUNT = {"target_failure_count": 900}
PHT = {"feature_index": 1, "direction": "decrease", "threshold": 2.0, "min_instances": 10}


def event_path(cfg_path, out):
    """(exit code, stdout, stderr, drift_events.csv bytes or None) of detection over ``_assemble``'s events."""
    cfg = load_config(cfg_path)
    cfg.out_dir = str(out)
    try:
        _, _, merged, boundary = cli._assemble(cfg)
        alarms = detect_drifts_per_class(merged, **dataclasses.asdict(cfg.pht))
    except Exception as err:
        code, line = cli._exit_status(err)
        return code, "", line + "\n", None
    os.makedirs(out)
    path = os.path.join(out, "drift_events.csv")
    write_drift_csv(alarms, path)
    payload = {"drift_events": len(alarms), "drift_boundary_index": boundary, "path": path}
    with open(path, "rb") as fh:
        return 0, json.dumps(payload, sort_keys=True) + "\n", "", fh.read()


def column_path(cfg_path, out, capsys):
    """The same four of ``main(["drift", ...])``."""
    code = main(["drift", "--config", cfg_path, "--out", str(out)])
    assert_no_children()
    captured = capsys.readouterr()
    path = out / "drift_events.csv"
    return code, captured.out, captured.err, path.read_bytes() if path.exists() else None


def assert_both_paths_agree(cfg_path, out, capsys):
    """Both paths give the same four; returns them."""
    columns = column_path(cfg_path, out, capsys)
    shutil.rmtree(out, ignore_errors=True)
    assert event_path(cfg_path, out) == columns
    return columns


def file_config(tmp_path, extra, edit=None):
    """``write_segments``'s file-mode config, with the ``extra`` sections."""
    path = write_segments(tmp_path, edit)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


CASES = {
    "ratio": {"oversample": RATIO},
    "count": {"oversample": COUNT},
    "feature-and-direction": {"pht": PHT, "oversample": RATIO},
    "no-oversample": {},
}


@pytest.mark.parametrize("extra", CASES.values(), ids=CASES)
def test_synth_mode_drift_equals_the_event_path(tmp_path, capsys, extra):
    code, _, _, alarms = assert_both_paths_agree(write_config(tmp_path, extra), tmp_path / "o", capsys)
    assert code == 0 and alarms.count(b"\n") > 2  # the header and at least two alarms


@pytest.mark.parametrize("extra", CASES.values(), ids=CASES)
def test_file_mode_drift_equals_the_event_path(tmp_path, capsys, forks, extra):
    code, _, _, alarms = assert_both_paths_agree(file_config(tmp_path, extra), tmp_path / "o", capsys)
    assert code == 0 and alarms.count(b"\n") > 2
    assert len(forks) == 2  # the column path's load and the event path's


@pytest.mark.parametrize("extra", [CASES["ratio"], CASES["feature-and-direction"]], ids=["ratio", "feature"])
def test_chunks_of_events_give_the_alarms_of_the_event_path(tmp_path, monkeypatch, capsys, forks, extra):
    """Every row carries a non-canonical column, so every chunk goes to the row loop and its item is events."""

    def add_site(name, lines):
        lines[:] = [lines[0] + ",site", *(f"{line},rack-{i % 3}" for i, line in enumerate(lines[1:]))]

    monkeypatch.setattr(streams, "_CHUNK_ROWS", 256)
    cfg_path = file_config(tmp_path, extra, add_site)
    cfg = load_config(cfg_path)
    for path in (cfg.stream.sfd_path, cfg.stream.hfd_path):
        items = streams.read_chunks(path, column_map=cfg.stream.column_map)
        assert len(items) > 1 and all(isinstance(item, list) for item in items)
    code, _, _, alarms = assert_both_paths_agree(cfg_path, tmp_path / "o", capsys)
    assert code == 0 and alarms.count(b"\n") > 2


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
def test_file_mode_errors_keep_the_event_paths_precedence(tmp_path, capsys, forks, edit, oversample, code, message):
    cfg_path = file_config(tmp_path, {"oversample": oversample}, edit)
    assert assert_both_paths_agree(cfg_path, tmp_path / "o", capsys) == (code, "", message, None)


def test_an_empty_synthetic_hfd_segment_names_its_field_on_both_paths(tmp_path, capsys):
    synth = {**SMALL_SYNTH["synth"], "n_hfd": 0, "hfd_episodes": 0}
    cfg_path = write_config(tmp_path, {"stream": {"mode": "synth", "synth": synth}, "oversample": RATIO})
    assert assert_both_paths_agree(cfg_path, tmp_path / "o", capsys) == (
        2, "", "config error: config field 'stream.synth.n_hfd': the streamed segment is empty\n", None
    )


@pytest.mark.parametrize("mode", ["synth", "file"])
def test_drift_builds_no_event(tmp_path, monkeypatch, mode):
    built = []
    init = TelemetryEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def refused(chunks):
        raise AssertionError("drift built events")

    cfg_path = write_config(tmp_path, {"oversample": RATIO}) if mode == "synth" else file_config(
        tmp_path, {"oversample": RATIO}
    )
    monkeypatch.setattr(TelemetryEvent, "__init__", counted)
    monkeypatch.setattr(streams, "events_of", refused)
    monkeypatch.setattr(cli, "events_of", refused)
    no_fork(monkeypatch)  # so that both files are read, and counted, in this process
    assert main(["drift", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert built == []
    assert (tmp_path / "o" / "drift_events.csv").read_bytes().count(b"\n") > 2
