"""load_csv against the loaders it replaced.

``_load_csv_per_row`` is load_csv as it was before rows were read in
chunks: one record dict and one ``validate`` call per row.
``_load_csv_two_pass`` is load_csv as it was before it read each file
once: a strict UTF-8 read, then on a row it could not read a second read
that named that row. load_csv must return the same events bit for bit, or
raise the same error for the same row, for any chunk size.
"""

import csv
import functools
import pickle
import re
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream import streams
from driftstream.errors import DriftStreamError, MalformedRow, OutOfRange, UnparsableNumber
from driftstream.streams import load_csv
from driftstream.telemetry import CSV_COLUMNS, Segment, TelemetryEvent, validate


def _events_per_row(reader, column_map: Optional[dict], default_segment: Segment) -> list:
    events = []
    header = next(reader, None)
    if header is None:
        return events
    names = [column_map.get(key, key) for key in header] if column_map else header
    n_names = len(names)
    prev_ts = None
    row_number = 0
    for row in reader:
        if not row:
            continue
        row_number += 1
        record = dict(zip(names, row))
        if len(row) < n_names:
            record.update(dict.fromkeys(names[len(row):]))
        try:
            event = validate(record, index=row_number - 1, segment=default_segment)
        except DriftStreamError as err:
            raise MalformedRow(row_number, err) from err
        if prev_ts is not None and event.timestamp <= prev_ts:
            raise MalformedRow(row_number, OutOfRange("timestamp", event.timestamp))
        prev_ts = event.timestamp
        events.append(event)
    return events


def _load_csv_per_row(
    path: str, *, column_map: Optional[dict] = None, default_segment: Segment = Segment.SFD
) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return _events_per_row(csv.reader(fh), column_map, default_segment)


_UNDECODED = re.compile("[\udc80-\udcff]")


def _readable_rows(reader, unreadable: list):
    """``reader``'s rows up to the first one that cannot be read, whose MalformedRow goes to ``unreadable``."""
    row_number = -1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            unreadable.append(MalformedRow(row_number + 1, DriftStreamError(f"unreadable CSV: {err}")))
            return
        if row or row_number < 0:  # the first row is the header, even when blank
            row_number += 1
        if _UNDECODED.search("".join(row)):
            unreadable.append(MalformedRow(row_number, DriftStreamError("bytes that are not UTF-8")))
            return
        yield row


def _load_csv_two_pass(
    path: str, *, column_map: Optional[dict] = None, default_segment: Segment = Segment.SFD
) -> list:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _events_per_row(csv.reader(fh), column_map, default_segment)
    except (UnicodeDecodeError, csv.Error):
        pass
    unreadable: list[MalformedRow] = []
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        events = _events_per_row(_readable_rows(csv.reader(fh), unreadable), column_map, default_segment)
    if unreadable:
        raise unreadable[0]
    return events


def _outcome(load, path, **kwargs):
    """Every field of every event, floats as hex and enums by identity; or the error's details."""
    try:
        events = load(path, **kwargs)
    except MalformedRow as err:
        return ("error", str(err), err.row, type(err.cause), getattr(err.cause, "field", None))
    return [
        (
            type(e.timestamp), e.timestamp, *(v.hex() for v in (e.ber_tx, e.osnr_tx, e.ber_rx, e.osnr_rx)),
            id(e.label), id(e.segment), e.meta,
        )
        for e in events
    ]


_CHUNK_SIZES = (1, 2, 3, streams._CHUNK_ROWS)
_BAD_CELLS = ("nan", "inf", "-inf", "1e400", "-1e-9", "0", "-3.5", "1e-400", "", " ", "1.0", "2", " SFD", "1_0", "x")
_FLOAT_CELLS = {
    "ber_tx": st.floats(0.0, 1.0).map(repr),
    "ber_rx": st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["1e-9", "0", "-0.0", " 0.5 ", "1"])),
    "osnr_tx": st.floats(1e-300, 1e300).map(repr),
    "osnr_rx": st.one_of(st.floats(0.01, 60.0).map(repr), st.sampled_from(["25", "1_0", "1.7e308"])),
}


@st.composite
def _csv_files(draw):
    """(text, column_map) for a segment file: mostly valid rows, a few faults."""
    names = list(draw(st.permutations(CSV_COLUMNS)))
    for optional in ("timestamp", "segment"):
        if draw(st.booleans()):
            names.remove(optional)
    extra = draw(st.sampled_from([None, None, None, "site", "label", "osnr_rx", "timestamp"]))
    if extra is not None:
        names.insert(draw(st.integers(0, len(names))), extra)
    column_map = None
    header = list(names)
    if "osnr_rx" in names and draw(st.booleans()):
        header = ["OSNR_SPO2" if name == "osnr_rx" else name for name in names]
        column_map = {"OSNR_SPO2": "osnr_rx"}

    n_rows = draw(st.integers(0, 10))
    ts = draw(st.sampled_from([0, -5, 2**53 - 2, 2**63]))
    rows = []
    for _ in range(n_rows):
        ts += draw(st.integers(1, 3))
        row = []
        for name in names:
            if name == "timestamp":
                row.append(str(ts))
            elif name == "label":
                row.append(draw(st.sampled_from(["0", "1"])))
            elif name == "segment":
                row.append(draw(st.sampled_from([s.value for s in Segment])))
            elif name == "site":
                row.append(draw(st.sampled_from(["A", "b", ""])))
            else:
                row.append(draw(_FLOAT_CELLS[name]))
        rows.append(row)

    # a few faults: a bad cell, a repeated timestamp, a short or long row, blank lines
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "repeat_ts", "short", "long", "blank"]))
        if kind == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_BAD_CELLS))
        elif kind == "repeat_ts" and i > 0 and "timestamp" in names:
            j = names.index("timestamp")
            if j < min(len(rows[i]), len(rows[i - 1])):
                rows[i][j] = rows[i - 1][j]
        elif kind == "short":
            rows[i] = rows[i][: draw(st.integers(1, max(1, len(rows[i]) - 1)))]
        elif kind == "long":
            rows[i] = rows[i] + draw(st.lists(st.sampled_from(["", "7", "zz"]), min_size=1, max_size=2))
        elif kind == "blank":
            rows[i:i] = [[]] * draw(st.integers(1, 4))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n", column_map


# no timestamp column; row 4's label, spelled 1.0, sends its chunk in the middle of the file to the row loop
_NO_TIMESTAMP = "\n".join(
    [",".join(CSV_COLUMNS[1:]), *(f"1e-9,32.0,1e-6,25.0,{label},HFD" for label in ("0", "0", "1", "1.0", "0", "0"))]
)


# a column beyond the canonical ones: every chunk takes the row loop, and every event has a meta dict
_WITH_SITE = "\n".join(
    [",".join([*CSV_COLUMNS, "site"]), *(f"{ts},1e-9,32.0,1e-6,25.0,{ts % 2},SFD,rack-{ts}" for ts in range(6))]
)


def _columns_or_error(path, **kwargs):
    try:
        return streams.read_part(path, **kwargs).columns
    except MalformedRow as err:
        return ("error", str(err), err.row)


@settings(max_examples=400, deadline=None)
@given(_csv_files(), st.sampled_from(list(Segment)), st.lists(st.sampled_from(CSV_COLUMNS), unique=True))
@example((_NO_TIMESTAMP + "\n", None), Segment.SFD, ["label", "timestamp"])
@example((_WITH_SITE + "\n", None), Segment.HFD, ["osnr_rx", "segment", "timestamp"])
def test_load_csv_equals_the_per_row_loop_for_any_chunk_size(tmp_path_factory, file, default_segment, names):
    """Without a timestamp column, ``read_part`` gives the per-row loop's ``index`` defaults as a range.

    ``read_part`` with ``names`` returns the full read's columns at those
    positions, a range staying a range, or raises the full read's error.
    """
    text, column_map = file
    path = str(tmp_path_factory.mktemp("load") / "seg.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    kwargs = {"column_map": column_map, "default_segment": default_segment}
    expected = _outcome(_load_csv_per_row, path, **kwargs)
    positional = "timestamp" not in text.partition("\n")[0].split(",") and isinstance(expected, list)
    default = streams._CHUNK_ROWS
    try:
        for size in _CHUNK_SIZES:
            streams._CHUNK_ROWS = size
            assert _outcome(load_csv, path, **kwargs) == expected, size
            if positional:
                timestamps = streams.read_part(path, **kwargs).columns[0]
                assert type(timestamps) is range and list(timestamps) == [event[1] for event in expected], size
            full = _columns_or_error(path, **kwargs)
            picked = tuple(full[CSV_COLUMNS.index(name)] for name in names) if isinstance(expected, list) else full
            assert _columns_or_error(path, **kwargs, names=names) == picked, size
    finally:
        streams._CHUNK_ROWS = default


def _load_pickled_columns(path, **kwargs):
    """load_csv, with ``read_part``'s columns sent through pickle as a forked child sends them."""
    columns = streams.read_part(path, **kwargs).columns
    # nothing that pickles through itertools, which Python 3.14 stops pickling
    assert all(type(column) in (list, range) for column in columns)
    return list(map(TelemetryEvent, *pickle.loads(pickle.dumps(columns))))


@settings(max_examples=200, deadline=None)
@given(_csv_files(), st.sampled_from(list(Segment)))
def test_pickled_chunks_build_the_events_load_csv_returns(tmp_path_factory, file, default_segment):
    text, column_map = file
    path = str(tmp_path_factory.mktemp("load") / "seg.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    kwargs = {"column_map": column_map, "default_segment": default_segment}
    default = streams._CHUNK_ROWS
    try:
        for size in (1, 3, 4096):
            streams._CHUNK_ROWS = size
            assert _outcome(_load_pickled_columns, path, **kwargs) == _outcome(load_csv, path, **kwargs), size
    finally:
        streams._CHUNK_ROWS = default


_HEADER = ",".join(CSV_COLUMNS)


def _row(ts, osnr_rx="25.0", ber_tx="1e-9"):
    return f"{ts},{ber_tx},32.0,1e-6,{osnr_rx},0,HFD"


@pytest.mark.parametrize(
    "lines, error",
    [
        # a bad row first, then last, in a chunk of three
        ([_row(0), _row(1), _row(2), _row(3, osnr_rx="nan"), _row(4), _row(5)], (OutOfRange, 4, "osnr_rx")),
        ([_row(0), _row(1), _row(2), _row(3), _row(4), _row(5, ber_tx="")], (UnparsableNumber, 6, "ber_tx")),
        # a timestamp that does not increase, exactly across the chunk boundary
        ([_row(0), _row(1), _row(2), _row(2), _row(4)], (OutOfRange, 4, "timestamp")),
        ([_row(0), _row(1), _row(9), _row(3), _row(4)], (OutOfRange, 4, "timestamp")),
        # a chunk of only blank lines does not end the read
        ([_row(0), _row(1), _row(2), "", "", "", _row(3), _row(4, osnr_rx="-1")], (OutOfRange, 5, "osnr_rx")),
        ([_row(0), _row(1), _row(2), "", "", "", _row(3), _row(4)], None),
        (["", "", "", _row(2**53 + 1), _row(2**53 + 2), _row(2**53 + 3)], None),
    ],
)
def test_load_csv_faults_at_chunk_edges(tmp_path, monkeypatch, lines, error):
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 3)
    path = tmp_path / "seg.csv"
    path.write_text("\n".join([_HEADER, *lines]) + "\n")
    expected = _outcome(_load_csv_per_row, str(path))
    assert _outcome(load_csv, str(path)) == expected
    if error is None:
        events = load_csv(str(path))
        assert len(events) == sum(1 for line in lines if line)
        assert [e.segment for e in events] == [Segment.HFD] * len(events)
    else:
        cause, row, field = error
        assert expected[2:] == (row, cause, field)


# -- bytes that csv.reader or the UTF-8 decoder cannot read --------------------------


def _unreadable(path):
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    return exc.value.row, str(exc.value)


def test_bytes_that_are_not_utf8_are_a_malformed_row(tmp_path):
    path = tmp_path / "seg.csv"
    lines = [_HEADER, _row(0), "", _row(1), _row(2, osnr_rx="25.5")]
    path.write_bytes("\n".join(lines).encode().replace(b"25.5", b"25.\xff"))
    assert _unreadable(path) == (3, "malformed row 3: bytes that are not UTF-8")
    path.write_bytes(b"\xff" + "\n".join(lines[:2]).encode())
    assert _unreadable(path)[0] == 0  # the header


def test_a_bad_row_before_an_unreadable_one_still_wins(tmp_path):
    path = tmp_path / "seg.csv"
    path.write_bytes("\n".join([_HEADER, _row(0), _row(0), _row(2)]).encode() + b"\xff\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    assert (exc.value.row, type(exc.value.cause), exc.value.cause.field) == (2, OutOfRange, "timestamp")


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = "\n".join([_HEADER, _row(5), _row(6), _row(9)]) + "\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _outcome(load_csv, str(marked)) == _outcome(load_csv, str(plain))
    assert [e.timestamp for e in load_csv(str(marked))] == [5, 6, 9]
    # the file's own timestamps are checked, not replaced by row indices
    marked.write_text("\n".join([_HEADER, _row(5), _row(5)]), encoding="utf-8-sig")
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(marked))
    assert (exc.value.row, exc.value.cause.field) == (2, "timestamp")


def test_a_field_over_the_csv_size_limit_is_a_malformed_row(tmp_path):
    # an unclosed quote on row 2 swallows the rest of a long file into one field
    path = tmp_path / "seg.csv"
    rows = [_row(0), '"' + _row(1)] + [_row(i) for i in range(2, 5000)]
    path.write_text("\n".join([_HEADER, *rows]) + "\n")
    row, message = _unreadable(path)
    assert row == 2 and "field larger than field limit" in message


def test_load_csv_opens_a_file_once_on_every_path(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(streams, "open", counting_open, raising=False)
    text = "\n".join([_HEADER, _row(0), _row(1), _row(2, osnr_rx="25.5")]) + "\n"
    files = {
        "valid": text.encode(),
        "not_utf8": text.encode().replace(b"25.5", b"25.\xff"),
        "header_not_utf8": b"\xff" + text.encode(),
        "unreadable": text.encode() + b'"' + b"9" * 140_000 + b"\n",
    }
    for name, data in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        expected = _outcome(_load_csv_two_pass, str(path))
        assert _outcome(load_csv, str(path)) == expected, name
    assert opened == [str(tmp_path / f"{name}.csv") for name in files]


# Each example edits a 12-row file of about 500 bytes; at most three edits apply, the
# largest a 140,000-character field (just over csv.field_size_limit()).
_HEADERS = {
    "canonical": (list(CSV_COLUMNS), None),
    "metadata": ([*CSV_COLUMNS[:3], "site", *CSV_COLUMNS[3:]], None),
    "column_map": (["OSNR_SPO2" if name == "osnr_rx" else name for name in CSV_COLUMNS], {"OSNR_SPO2": "osnr_rx"}),
    "no_timestamp": ([name for name in CSV_COLUMNS if name != "timestamp"], None),
}


def _segment_bytes(header: list) -> bytes:
    cells = {"ber_tx": "1e-9", "osnr_tx": "32.0", "ber_rx": "1e-6", "osnr_rx": "25.25", "site": "A", "segment": "HFD"}
    lines = [",".join(header)]
    for ts in range(12):
        row = {**cells, "timestamp": str(3 * ts), "OSNR_SPO2": f"2{ts}.5", "label": str(ts % 2)}
        lines.append(",".join(row[name] for name in header))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def _edited_segment(draw):
    """(bytes, column_map): a valid segment file under up to three byte-level edits."""
    header, column_map = _HEADERS[draw(st.sampled_from(sorted(_HEADERS)))]
    data = _segment_bytes(header)
    for edit in draw(st.lists(st.sampled_from(["truncate", "bom", "insert", "insert", "field", "cr"]), max_size=3)):
        at = draw(st.integers(0, len(data)))
        if edit == "truncate":
            data = data[:at]
        elif edit == "bom":
            data = b"\xef\xbb\xbf" + data
        elif edit == "insert":
            data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b"\r"])) + data[at:]
        elif edit == "field":
            data = data[:at] + b"9" * 140_000 + data[at:]
        else:
            data = data.replace(b"\n", b"\r")
    return data, column_map


@settings(max_examples=300, deadline=None)
@given(_edited_segment(), st.sampled_from(list(Segment)))
def test_load_csv_equals_the_two_pass_read_for_any_byte_edit(tmp_path_factory, file, default_segment):
    data, column_map = file
    path = tmp_path_factory.mktemp("bytes") / "seg.csv"
    path.write_bytes(data)
    kwargs = {"column_map": column_map, "default_segment": default_segment}
    expected = _outcome(_load_csv_two_pass, str(path), **kwargs)
    default = streams._CHUNK_ROWS
    try:
        for size in _CHUNK_SIZES:
            streams._CHUNK_ROWS = size
            assert _outcome(load_csv, str(path), **kwargs) == expected, size
    finally:
        streams._CHUNK_ROWS = default


def _split_outcome(path, split, **kwargs):
    """The columns of ``path`` read in two parts at ``split`` as file mode reads them, or the error's details.

    The tail is read on its own first, and None if that raised; ``joined``
    then reads it again after the head's rows where that could differ.
    """
    read = functools.partial(streams.read_part, path, **kwargs)
    try:
        head = read(0, split)
        try:
            tail = read(split)
        except DriftStreamError:
            tail = None
        return streams.joined(read, split, head, tail)
    except MalformedRow as err:
        return ("error", str(err), err.row)


_LINE_ENDS = {"\n": b"\n", "\r\n": b"\r\n", "\r": b"\r"}


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(_edited_segment(), st.tuples(_csv_files(), st.sampled_from(sorted(_LINE_ENDS))).map(
        lambda drawn: (drawn[0][0].encode().replace(b"\n", _LINE_ENDS[drawn[1]]), drawn[0][1]))),
    st.sampled_from(list(Segment)),
    st.integers(0, 100),
    st.sampled_from(_CHUNK_SIZES),
    st.sampled_from([None, ("label", "osnr_rx"), CSV_COLUMNS[1:], ("timestamp", "label")]),
)
@example((b"\xef\xbb\xbf" + _segment_bytes(list(CSV_COLUMNS)), None), Segment.SFD, 50, 2, None)
@example(  # a byte-order mark that starts the tail is a cell's first character, as in one read of the file
    ("\n".join([_HEADER, _row(0), _row(1), "\ufeff" + _row(2), _row(3)]).encode(), None), Segment.SFD, 55, 3, None)
@example(  # the tail's timestamps pass after -5, and its blank cell takes row 3's index, 2, not 0
    ("\n".join([_HEADER, _row(-5), _row(-4), _row(""), _row(4)]).encode(), None), Segment.SFD, 50, 1, None)
def test_a_file_read_in_two_parts_equals_one_read_of_it(tmp_path_factory, file, default_segment, percent, size, names):
    """For any split offset and any byte edit of a file, the two parts' columns are the whole file's, or its error."""
    data, column_map = file
    path = str(tmp_path_factory.mktemp("parts") / "seg.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    at = len(data) * percent // 100
    newline = data.find(b"\n", at)
    split = streams.line_start(path, at)
    assert split == (None if b'"' in data or newline < 0 or newline + 1 == len(data) else newline + 1)
    if split is None:
        return
    kwargs = {"column_map": column_map, "default_segment": default_segment, "names": names}
    default = streams._CHUNK_ROWS
    try:
        streams._CHUNK_ROWS = size
        assert _split_outcome(path, split, **kwargs) == _columns_or_error(path, **kwargs)
    finally:
        streams._CHUNK_ROWS = default
