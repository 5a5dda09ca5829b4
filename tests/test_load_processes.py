"""File-mode loads under the shared fork rule: sfd.csv's head is read in one forked child, the rest in the parent.

sfd.csv splits at its first line start past half the two files' bytes:
the child reads the rows before it, and the parent the rows after it, then
hfd.csv. An sfd.csv with no split point (it has a ``"``, or it is a FIFO)
is read whole by the child, through the same call.
The child sends only the columns its command reads, as lists, whichever
path parsed its rows, and the parent builds any events. Each forked load is
compared with an inline one (``os.fork`` deleted, or a host that reports
one usable CPU): the same output bytes, the same events field by field,
and on failure the same exit code and stderr line, with the sfd error
first when both files fail, and that error is the one a read of the whole
file raises. Forked runs take the ``forks`` fixture, which reports two
usable CPUs whatever the host has. After every call, no child process is
left to reap.
"""

import contextlib
import copy
import json
import os
import pickle
import signal
import threading

import pytest

from driftstream import cli, streams
from driftstream.cli import main
from driftstream.config import load_config
from driftstream.errors import MalformedRow
from driftstream.streams import SynthConfig, generate_synthetic_segments, write_csv
from driftstream.telemetry import CSV_COLUMNS, Label, Segment, TelemetryEvent

from conftest import one_cpu
from test_cli import read_bytes_tree, write_config
from test_gen_processes import no_fork
from test_run_processes import assert_no_children

INLINE = {"no-fork": no_fork, "one-cpu": one_cpu}


def write_segments(tmp_path, edit=None):
    """A file-mode config over a small generated stream whose osnr_rx column is renamed.

    ``edit(name, lines)``, if given, may change either file's lines first.
    """
    sfd, hfd = generate_synthetic_segments(SynthConfig(n_sfd=1500, n_hfd=800, sfd_episodes=2, hfd_episodes=2), 5)
    stream = {"mode": "file", "column_map": {"OSNR_SPO2": "osnr_rx"}}
    for name, events in (("sfd", sfd), ("hfd", hfd)):
        path = tmp_path / f"{name}.csv"
        write_csv(events, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].replace("osnr_rx", "OSNR_SPO2")
        if edit is not None:
            edit(name, lines)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        stream[f"{name}_path"] = str(path)
    return write_config(tmp_path, {"stream": stream}, name="cfg_file.json")


def set_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)


def quote_header(name, lines):
    """A quoted header cell, which reads as before but leaves sfd.csv no split point: the child reads it whole."""
    lines[0] = lines[0].replace("timestamp", '"timestamp"')


def split_of(cfg):
    """The offset at which file mode splits sfd.csv, and the index in its lines of the first row after it."""
    sfd, hfd = cfg.stream.sfd_path, cfg.stream.hfd_path
    split = streams.line_start(sfd, (os.path.getsize(sfd) + os.path.getsize(hfd)) // 2)
    with open(sfd, "rb") as fh:
        return split, fh.read(split).count(b"\n")


def whole_file_error(cfg, name):
    """The stderr line of a read of the whole file ``name``."""
    path = getattr(cfg.stream, f"{name}_path")
    with pytest.raises(MalformedRow) as exc:
        streams.read_part(path, column_map=cfg.stream.column_map)
    return f"error: {exc.value}\n"


def add_site_column(name, lines):
    """Every row carries a non-canonical column, so every chunk of the file goes to the row loop."""
    lines[:] = [lines[0] + ",site", *(f"{line},rack-{i % 3}" for i, line in enumerate(lines[1:]))]


def fields(events):
    """Every field of every event, floats as hex and enums by identity, ``meta`` included."""
    return [
        (e.timestamp, *(v.hex() for v in (e.ber_tx, e.osnr_tx, e.ber_rx, e.osnr_rx)), id(e.label), id(e.segment), e.meta)
        for e in events
    ]


@pytest.mark.parametrize("inline", INLINE.values(), ids=INLINE)
@pytest.mark.parametrize("command, n_forks", [(["drift"], 1), (["run", "--save-models"], 2)], ids=["drift", "run"])
def test_a_forked_load_writes_the_bytes_of_an_inline_one(tmp_path, monkeypatch, forks, inline, command, n_forks):
    cfg = write_segments(tmp_path)
    for out in ("forked", "inline"):
        if out == "inline":
            inline(monkeypatch)
        assert main([*command, "--config", cfg, "--out", str(tmp_path / out), "--quiet"]) == 0
        assert_no_children()
    assert len(forks) == n_forks
    forked, inline = read_bytes_tree(tmp_path / "forked"), read_bytes_tree(tmp_path / "inline")
    forked.pop("manifest.json")  # it names the output directory
    inline.pop("manifest.json")
    assert forked == inline and "drift_events.csv" in forked


# data rows whose label is set to 2: sfd.csv's row 1400 is in the parent's part, past the split
BAD_ROWS = [{"sfd": 5}, {"hfd": 3}, {"sfd": 5, "hfd": 3}, {"sfd": 1400}, {"sfd": 1400, "hfd": 3}]


@pytest.mark.parametrize("inline", INLINE.values(), ids=INLINE)
@pytest.mark.parametrize("bad", BAD_ROWS, ids=lambda bad: "-".join(f"{name}{row}" for name, row in bad.items()))
def test_a_bad_row_exits_like_an_inline_load(tmp_path, monkeypatch, capsys, forks, inline, bad):
    def edit(name, lines):
        if name in bad:
            set_cell(lines, bad[name], 5, "2")

    cfg = write_segments(tmp_path, edit)
    assert 5 < split_of(load_config(cfg))[1] < 1400
    results = []
    for out in ("forked", "inline"):
        if out == "inline":
            inline(monkeypatch)
        results.append((main(["drift", "--config", cfg, "--out", str(tmp_path / out)]), capsys.readouterr()))
        assert_no_children()
    assert len(forks) == 1
    (code, forked), (inline_code, inlined) = results
    assert (code, forked.out, forked.err) == (inline_code, inlined.out, inlined.err)
    assert code == 4 and forked.out == ""
    first, row = next(iter(bad.items()))
    assert forked.err == f"error: malformed row {row}: value out of range for label: 2\n"
    assert forked.err == whole_file_error(load_config(cfg), first)


def repeat_timestamp(lines, row):
    set_cell(lines, row, 0, lines[row - 1].split(",")[0])


def blank_timestamp(lines, row):
    set_cell(lines, row, 0, "")


# edits of sfd.csv at the first row after the split, each leaving its offset where it was
SEAMS = {
    # the tail's first timestamp repeats the head's last: read alone the tail passes, after the head it fails
    "repeated-timestamp": (repeat_timestamp, None),
    # a blank cell takes its row's index: 0 in the tail read alone, the row's place in the file after the head
    "blank-timestamp": (blank_timestamp, None),
    # the tail fails, and so does hfd.csv: sfd.csv's error comes first
    "tail-and-hfd": (lambda lines, row: set_cell(lines, row + 50, 5, "2"), 3),
}


@pytest.mark.parametrize("inline", INLINE.values(), ids=INLINE)
@pytest.mark.parametrize("seam", SEAMS)
def test_the_rows_after_the_split_read_as_in_a_whole_file(tmp_path, monkeypatch, capsys, forks, inline, seam):
    split, row = split_of(load_config(write_segments(tmp_path)))
    edit_sfd, bad_hfd = SEAMS[seam]

    def edit(name, lines):
        if name == "sfd":
            edit_sfd(lines, row)
        elif bad_hfd is not None:
            set_cell(lines, bad_hfd, 5, "2")

    cfg = load_config(write_segments(tmp_path, edit))
    assert split_of(cfg) == (split, row)
    results = []
    for out in ("forked", "inline"):
        if out == "inline":
            inline(monkeypatch)
        argv = ["drift", "--config", str(tmp_path / "cfg_file.json"), "--out", str(tmp_path / out), "--quiet"]
        results.append((main(argv), capsys.readouterr().err))
        assert_no_children()
    assert len(forks) == 1
    assert results[0] == results[1]
    if seam == "blank-timestamp":
        assert results[0] == (0, "")
        sfd = cli._load_segments(cfg, CSV_COLUMNS)[0]
        assert sfd == streams.read_part(cfg.stream.sfd_path, column_map=cfg.stream.column_map).columns
        assert sfd[0][row - 1] == row - 1  # the row's index in the file
    else:
        assert results[0] == (4, whole_file_error(cfg, "sfd"))


def chunk_paths(monkeypatch, path, column_map):
    """(``read_part``'s columns, the path that parsed each chunk): "columns" or "rows"."""
    paths = []
    chunk_columns, validate_rows = streams._chunk_columns, streams._validate_rows

    def columns(*args):
        parsed = chunk_columns(*args)
        if parsed is not None:
            paths.append("columns")
        return parsed

    def rows(*args):
        paths.append("rows")
        return validate_rows(*args)

    with monkeypatch.context() as patch:
        patch.setattr(streams, "_chunk_columns", columns)
        patch.setattr(streams, "_validate_rows", rows)
        return streams.read_part(path, column_map=column_map).columns, paths


def test_a_file_whose_chunks_mix_both_paths_loads_the_columns_of_an_inline_load(tmp_path, monkeypatch, forks):
    """sfd.csv's chunks mix the column path and the row loop; every hfd.csv row carries metadata."""

    def edit(name, lines):
        if name == "sfd":
            set_cell(lines, 100, 5, "1.0")  # validate reads it as label 1; the column path does not
        else:
            add_site_column(name, lines)

    cfg = load_config(write_segments(tmp_path, edit))
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 64)
    read = {
        name: chunk_paths(monkeypatch, path, cfg.stream.column_map)
        for name, path in (("sfd", cfg.stream.sfd_path), ("hfd", cfg.stream.hfd_path))
    }
    assert {name: set(paths) for name, (_, paths) in read.items()} == {"sfd": {"columns", "rows"}, "hfd": {"rows"}}
    assert len(read["sfd"][0]) == 7 and read["hfd"][0][7][4] == {"site": "rack-1"}  # meta, the eighth column
    forked = cli._load_segments(cfg, CSV_COLUMNS)
    assert_no_children()
    assert len(forks) == 1
    no_fork(monkeypatch)
    inline = cli._load_segments(cfg, CSV_COLUMNS)
    assert_no_children()
    expected = [fields(map(TelemetryEvent, *read[name][0][:7])) for name in ("sfd", "hfd")]  # meta is not asked for
    assert [fields(map(TelemetryEvent, *columns)) for columns in inline] == expected
    sfd, hfd = (list(map(TelemetryEvent, *columns)) for columns in forked)
    assert [fields(sfd), fields(hfd)] == expected
    assert sfd[99].label is Label.FAILURE  # the row spelled 1.0
    assert {id(e.label) for e in sfd + hfd} == {id(label) for label in Label}
    assert {id(e.segment) for e in sfd} == {id(Segment.SFD)} and {id(e.segment) for e in hfd} == {id(Segment.HFD)}


@pytest.mark.parametrize("edit", [None, quote_header], ids=["by-rows", "by-file"])
def test_a_killed_child_exits_4_naming_the_segment(tmp_path, monkeypatch, capsys, forks, edit):
    """The child reads sfd.csv through ``read_part``: its head, or all of a file with a quote, which has no split."""
    reader = cli.read_part

    def killed_sfd(path, *args, **kwargs):
        if path.endswith("sfd.csv") and args[:1] in ((), (0,)):
            os.kill(os.getpid(), signal.SIGKILL)
        return reader(path, *args, **kwargs)

    monkeypatch.setattr(cli, "read_part", killed_sfd)
    assert main(["drift", "--config", write_segments(tmp_path, edit), "--out", str(tmp_path / "o")]) == 4
    assert_no_children()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: segment 'sfd': its process was killed by signal {int(signal.SIGKILL)} without a result\n"


@pytest.mark.parametrize("edit", [None, add_site_column, quote_header], ids=["canonical", "row-loop", "quoted"])
@pytest.mark.parametrize(
    "command, names",
    [(["drift"], ("label", "osnr_rx")), (["run", "--models", "lr"], CSV_COLUMNS[1:])],
    ids=["drift", "run"],
)
def test_the_child_sends_the_named_columns_and_no_event(tmp_path, monkeypatch, forks, edit, command, names):
    """The child sends sfd.csv's head: ``read_part``'s named columns up to the split, with its row count and timestamps.

    An sfd.csv with a quote has no split, and the head the child sends is the whole file.
    """
    cfg_path = write_segments(tmp_path, edit)
    cfg = load_config(cfg_path)
    whole = streams.read_part(cfg.stream.sfd_path, column_map=cfg.stream.column_map).columns
    assert len(whole) == (8 if edit is add_site_column else 7)
    split, row = split_of(cfg)
    head = streams.read_part(cfg.stream.sfd_path, 0, split, column_map=cfg.stream.column_map)
    if edit is quote_header:
        assert split is None and head == streams.read_part(cfg.stream.sfd_path, column_map=cfg.stream.column_map)
    else:
        assert head.rows == row - 1 and 0 < head.rows < len(whole[0])
    received = []
    load = pickle.load

    def recording(fh):
        message = load(fh)
        received.append(copy.deepcopy(message))  # the parent then extends the columns it received
        return message

    def refused(self, protocol):
        raise AssertionError("an event was pickled")

    monkeypatch.setattr(pickle, "load", recording)
    monkeypatch.setattr(TelemetryEvent, "__reduce_ex__", refused)
    out = tmp_path / "o"
    assert main([*command, "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    assert_no_children()
    assert len(forks) == 1
    [(status, segments)] = received
    assert status == "ok" and list(segments) == ["sfd"]
    sent = segments["sfd"]
    assert type(sent) is streams.Part and sent[1:] == head[1:]
    assert sent.columns == tuple(head.columns[CSV_COLUMNS.index(name)] for name in names)
    assert all(type(column) is list for column in sent.columns)
    assert (out / "drift_events.csv").read_bytes().count(b"\n") > 2


def fed_through_a_fifo(path):
    """A FIFO that a writer thread feeds the bytes of the file ``path`` once a reader opens it, and the thread.

    A FIFO, not ``os.pipe``: a forked child would inherit a pipe's write end
    and never see its end of file. The command opens no FIFO before it
    forks, so until then the writer waits in ``open``, holding no end and
    no lock that the child could inherit.
    """
    fifo = f"{path}.fifo"
    os.mkfifo(fifo)
    with open(path, "rb") as fh:
        data = fh.read()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:  # a reader may close its end early
            fh.write(data)

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return fifo, thread


@pytest.mark.parametrize("inline", [None, one_cpu], ids=["forks", "one-cpu"])
@pytest.mark.parametrize("piped", [("sfd",), ("hfd",), ("sfd", "hfd")], ids="-".join)
@pytest.mark.parametrize("command", [["drift"], ["run", "--models", "lr"]], ids=["drift", "run"])
def test_a_segment_read_from_a_fifo_writes_the_bytes_of_a_regular_file(tmp_path, monkeypatch, capsys, forks, inline,
                                                                        piped, command):
    """A FIFO cannot seek and has no split point: a piped sfd.csv is read whole, and either file from its first byte."""
    if inline is not None:
        inline(monkeypatch)
    cfg = write_segments(tmp_path)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "files"), "--quiet"]) == 0
    assert_no_children()
    with open(cfg, encoding="utf-8") as fh:
        data = json.load(fh)
    threads = {}
    for name in piped:
        fifo, threads[fifo] = fed_through_a_fifo(data["stream"][f"{name}_path"])
        data["stream"][f"{name}_path"] = fifo
    (tmp_path / "cfg_fifo.json").write_text(json.dumps(data), encoding="utf-8")
    code = main([*command, "--config", str(tmp_path / "cfg_fifo.json"), "--out", str(tmp_path / "fifos"), "--quiet"])
    assert_no_children()
    for fifo, thread in threads.items():
        thread.join(5)
        if thread.is_alive():  # a failed read left its writer waiting: read the rest, so that it ends
            with open(fifo, "rb") as fh:
                fh.read()
            thread.join(5)
        assert not thread.is_alive()
    assert (code, capsys.readouterr().err) == (0, "")
    assert len(forks) == (2 if inline is None else 0)
    files, fifos = read_bytes_tree(tmp_path / "files"), read_bytes_tree(tmp_path / "fifos")
    files.pop("manifest.json")  # it names the input files
    fifos.pop("manifest.json")
    assert fifos == files
    expected = {"drift_events.csv"} if command == ["drift"] else {"drift_events.csv", "lr_metrics.csv", "summary.json"}
    assert set(files) == expected


EMPTY = {"no-bytes": "", "header-only": "timestamp,ber_tx,osnr_tx,ber_rx,OSNR_SPO2,label,segment\n"}


@pytest.mark.parametrize("content", EMPTY.values(), ids=EMPTY)
@pytest.mark.parametrize(
    "empty, field, segment",
    [(("sfd",), "sfd_path", "pretraining"), (("sfd", "hfd"), "sfd_path", "pretraining"), (("hfd",), "hfd_path", "streamed")],
)
@pytest.mark.parametrize("command", ["drift", "run", "bench"])
def test_an_empty_file_exits_2_naming_its_field(tmp_path, capsys, forks, command, empty, field, segment, content):
    def edit(name, lines):
        if name in empty:
            lines[:] = content.splitlines()

    cfg = write_segments(tmp_path, edit)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert_no_children()
    assert capsys.readouterr().err == f"config error: config field 'stream.{field}': the {segment} segment is empty\n"
    assert not (tmp_path / "o").exists()
