"""The cyclic garbage collector is paused only while streams are built or written.

``main`` must hand the collector back in the state its caller left it, on
every exit path. The pause rests on one premise, tested here too: assembling
the merged columns, building, oversampling, merging and writing events leaves
no reference cycle, so the collections it skips would have freed nothing.
"""

import gc
import os

import pytest

from driftstream import cli
from driftstream.cli import main
from driftstream.config import ExperimentConfig, OversampleConfig, StreamConfig
from driftstream.streams import (
    SynthConfig,
    generate_synthetic_segments,
    merge_sfd_hfd,
    random_oversample,
    write_csv,
)

from test_cli import HEADER, VALID_CSV, event_rows, file_mode_config, write_config


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def collector(request):
    """The collector state a caller leaves before calling main; restored afterwards."""
    enabled = gc.isenabled()
    set_collector(request.param)
    yield request.param
    set_collector(enabled)


def cli_args(tmp_path, command):
    cfg = write_config(tmp_path)
    extra = ["--trials", "2"] if command == "bench" else []
    return [command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet", *extra]


@pytest.mark.parametrize("command", ["run", "drift", "bench", "gen"])
def test_each_command_leaves_the_collector_as_the_caller_left_it(tmp_path, collector, command):
    assert main(cli_args(tmp_path, command)) == 0
    assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "extra",
    [{"window": 1}, {"stream": {"mode": "synth", "synth": {"n_hfd": 0}}}],
    ids=["resolving-the-config", "while-assembling"],
)
def test_a_config_error_leaves_the_collector_as_the_caller_left_it(tmp_path, collector, extra):
    cfg = write_config(tmp_path, extra)
    assert main(["drift", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert gc.isenabled() is collector


@pytest.mark.parametrize("command", ["run", "drift", "gen"])
def test_an_unwritable_out_leaves_the_collector_as_the_caller_left_it(tmp_path, collector, command):
    (tmp_path / "file").write_text("")
    args = cli_args(tmp_path, command)
    args[args.index("--out") + 1] = str(tmp_path / "file" / "o")
    assert main(args) == 3
    assert gc.isenabled() is collector


def test_a_malformed_row_leaves_the_collector_as_the_caller_left_it(tmp_path, collector):
    hfd = b"\n".join([HEADER, *event_rows(range(3)), b"3,1e-9,32.0,2.0,25.0,0,SFD"])
    cfg = file_mode_config(tmp_path, VALID_CSV, hfd)
    assert main(["drift", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    assert gc.isenabled() is collector


def test_a_usage_error_leaves_the_collector_as_the_caller_left_it(collector):
    with pytest.raises(SystemExit):
        main(["drift", "--no-such-flag"])
    assert gc.isenabled() is collector


def test_only_stream_building_and_writing_run_paused(tmp_path, monkeypatch):
    """The latency trials and the models run with the collector on."""
    seen = []

    def recording(name, call):
        def wrapper(*args, **kwargs):
            entry = (name, gc.isenabled())
            if name != "TelemetryEvent" or seen[-1] != entry:  # one entry per build, unless its state changes
                seen.append(entry)
            return call(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("_load_segments", "TelemetryEvent", "write_rows", "latency_benchmark", "prequential_run"):
        recording(name, getattr(cli, name))
    monkeypatch.delattr(os, "fork")  # so that every call is made, and recorded, in this process
    assert gc.isenabled()
    for command in ("gen", "run", "bench"):
        assert main(cli_args(tmp_path, command)) == 0
    assembly = [("_load_segments", False), ("TelemetryEvent", False)]
    assert seen == [
        ("write_rows", False),
        ("write_rows", False),
        *assembly,
        ("prequential_run", True),
        ("prequential_run", True),
        *assembly,
        ("latency_benchmark", True),
        ("latency_benchmark", True),
    ]


# -- the premise: no reference cycles per event ------------------------------------

N = 1500  # 4N events fill more than one of load_csv's 1024-row chunks


def unreachable_after(step):
    """How many unreachable objects ``gc.collect()`` finds after ``step()``, with the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        step()  # its result is dropped here, so anything cyclic it built is unreachable
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def small_synth(n):
    return SynthConfig(n_sfd=n, n_hfd=n // 2, sfd_episodes=2, hfd_episodes=2)


def assemble_synth(tmp_path, n):
    cfg = ExperimentConfig(oversample=OversampleConfig(target_failure_ratio=0.5))
    cfg.stream.synth = small_synth(n)
    return lambda: cli._events(*cli._assemble(cfg, cli._EVENT_FIELDS))


def assemble_file(tmp_path, n):
    """sfd.csv carries a metadata column, so every chunk runs through ``validate``;
    hfd.csv's first chunk falls back to it for one label spelled ``1.0``."""
    sfd, hfd = generate_synthetic_segments(small_synth(n), 3)
    paths = {name: str(tmp_path / f"{name}_{n}.csv") for name in ("sfd", "hfd")}
    write_csv(sfd, paths["sfd"])
    write_csv(hfd, paths["hfd"])
    with open(paths["sfd"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = [lines[0] + ",site", *(f"{line},rack-{i % 7}" for i, line in enumerate(lines[1:]))]
    with open(paths["sfd"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(paths["hfd"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[5].split(",")
    cells[5] = f"{cells[5]}.0"
    lines[5] = ",".join(cells)
    with open(paths["hfd"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = ExperimentConfig(stream=StreamConfig(mode="file", sfd_path=paths["sfd"], hfd_path=paths["hfd"]))
    return lambda: cli._events(*cli._assemble(cfg, cli._EVENT_FIELDS))


def oversample_and_merge(tmp_path, n):
    sfd, hfd = generate_synthetic_segments(small_synth(n), 3)
    return lambda: merge_sfd_hfd(sfd, random_oversample(hfd, 0.5, seed=4))


def write(tmp_path, n):
    events = merge_sfd_hfd(*generate_synthetic_segments(small_synth(n), 3))
    return lambda: write_csv(events, str(tmp_path / f"events_{n}.csv"))


@pytest.mark.parametrize("prepare", [assemble_synth, assemble_file, oversample_and_merge, write])
def test_stream_work_leaves_no_cycles_that_grow_with_the_stream(tmp_path, prepare):
    found = {n: unreachable_after(prepare(tmp_path, n)) for n in (N, 4 * N)}
    assert found[N] == found[4 * N] == 0, found
