"""Labeled telemetry stream production.

Four ways to obtain a stream: load one segment from CSV, concatenate a
soft-failure segment with a hard-failure segment into one drifting stream,
append oversampled copies of failure events, or generate the whole scenario
synthetically from a seeded config.

The synthetic scenario is shaped so that a model trained only on the first
(soft-failure) segment faces a genuine regime change in the second segment:

* soft-failure segment: healthy receiver OSNR around a high baseline; each
  failure episode is preceded by a gradual degradation ramp that dips below
  the eventual failure plateau before the sustained, labeled failure sets in;
* hard-failure segment: the whole OSNR regime has shifted far below anything
  seen before, and failure episodes start abruptly, with no warning ramp and
  a deeper drop.

Receiver BER follows a steep waterfall curve of the receiver OSNR (orders of
magnitude per dB), so BER and OSNR are strongly anti-correlated and the
hard-failure regime produces BER values far outside the first segment's
range.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import os
import re
import stat
import sys
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DriftStreamError,
    EmptySegment,
    MalformedRow,
    NoFailureSamples,
    OutOfRange,
    check_fields,
    shortened,
)
from .telemetry import (
    CSV_COLUMNS,
    LABEL_OF_TEXT,
    LABELS,
    REQUIRED_FIELDS,
    SEGMENT_OF_TEXT,
    Label,
    Segment,
    TelemetryEvent,
    serialize_fields,
    serialize_row,
    validate,
)

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]
# the largest event count numpy sizes as an array of 8-byte items; above it numpy
# raises ValueError, below it a count the host cannot hold raises MemoryError
MAX_COUNT = sys.maxsize // 8
MAX_DB = 1e6  # the largest size (dB) of a synthetic OSNR level, drop or spread: every value built from them is finite


@dataclass
class SynthConfig:
    """Parameters of the seeded synthetic drift scenario.

    The defaults are desk-scale choices tuned to keep the two segments'
    ordering constraints intact: the hard-failure OSNR mean sits below the
    soft-failure OSNR mean, which sits below the normal-class mean.
    """

    n_sfd: int = 10000
    n_hfd: int = 5000

    # receiver OSNR regimes (dB)
    osnr_normal_mean: float = 30.0
    osnr_normal_std: float = 0.4
    osnr_soft_drop: float = 6.0
    osnr_hard_drop: float = 16.0
    plateau_std: float = 0.15

    # failure episode shape
    failure_burst_len: int = 200
    sfd_episodes: int = 5
    hfd_episodes: int = 9
    warning_prefix: bool = True
    prefix_ramp_len: int = 100
    prefix_dwell_len: int = 50
    prefix_overshoot_db: float = 3.0
    prefix_dwell_std: float = 0.3

    # regime shift of the hard-failure segment's healthy baseline
    hfd_baseline_shift: float = 13.0
    hfd_baseline_std: float = 0.5

    # BER waterfall: ber = cap / (1 + exp((osnr - center) / scale))
    ber_cap: float = 0.5
    waterfall_center_db: float = 13.0
    waterfall_scale_db: float = 0.5
    ber_jitter_db: float = 0.2

    # transmitter side (healthy throughout)
    osnr_tx_mean: float = 32.0
    osnr_tx_std: float = 0.3

    def episode_len(self) -> int:
        extra = (self.prefix_ramp_len + self.prefix_dwell_len) if self.warning_prefix else 0
        return extra + self.failure_burst_len

    def validate(self) -> None:
        normal = self.osnr_normal_mean
        check_fields("stream.synth", [
            ("n_sfd", 1 <= self.n_sfd <= MAX_COUNT, "must be in [1, sys.maxsize // 8]"),
            ("n_hfd", 0 <= self.n_hfd <= MAX_COUNT, "must be in [0, sys.maxsize // 8]"),
            ("osnr_hard_drop", self.osnr_hard_drop > self.osnr_soft_drop > 0.0,
             "need osnr_hard_drop > osnr_soft_drop > 0"),
            ("failure_burst_len", self.failure_burst_len >= 1, "must be >= 1"),
            ("prefix_ramp_len", self.prefix_ramp_len >= 0, "must be >= 0"),
            ("prefix_dwell_len", self.prefix_dwell_len >= 0, "must be >= 0"),
            ("sfd_episodes", self.sfd_episodes >= 0, "must be >= 0"),
            ("hfd_episodes", self.hfd_episodes >= 0, "must be >= 0"),
            ("sfd_episodes", self.sfd_episodes == 0 or self.sfd_episodes * self.episode_len() <= self.n_sfd,
             "soft-failure episodes do not fit into n_sfd"),
            ("hfd_episodes", self.n_hfd == 0 or self.hfd_episodes * self.failure_burst_len <= self.n_hfd,
             "hard-failure episodes do not fit into n_hfd"),
            ("osnr_hard_drop", normal - self.osnr_hard_drop > 0.0, "hard-failure OSNR level must stay positive"),
            ("prefix_overshoot_db", normal - self.osnr_soft_drop - self.prefix_overshoot_db > 0.0,
             "prefix dip OSNR level must stay positive"),
            ("hfd_baseline_shift", normal - self.hfd_baseline_shift > 0.0,
             "shifted baseline OSNR level must stay positive"),
            *((name, abs(getattr(self, name)) <= MAX_DB, "must be in [-1e6, 1e6]") for name in (
                "osnr_normal_mean", "osnr_soft_drop", "osnr_hard_drop", "prefix_overshoot_db", "hfd_baseline_shift",
                "waterfall_center_db", "osnr_tx_mean")),
            *((name, 0.0 <= getattr(self, name) <= MAX_DB, "must be in [0, 1e6]") for name in (
                "osnr_normal_std", "plateau_std", "hfd_baseline_std", "prefix_dwell_std", "osnr_tx_std",
                "ber_jitter_db")),
            ("ber_cap", 0.0 < self.ber_cap <= 1.0, "must be in (0, 1]"),
            ("waterfall_scale_db", self.waterfall_scale_db > 0.0, "must be > 0"),
        ])


@dataclass
class OversampleConfig:
    """How to top up failure samples at the stream tail."""

    target_failure_ratio: Optional[float] = None
    target_failure_count: Optional[int] = None

    def validate(self) -> None:
        ratio, count = self.target_failure_ratio, self.target_failure_count
        check_fields("oversample", [
            ("target_failure_ratio", (ratio is None) != (count is None),
             "set exactly one of target_failure_ratio / target_failure_count"),
            ("target_failure_ratio", ratio is None or 0.0 < ratio <= 0.5, "must be in (0, 0.5]"),
            ("target_failure_count", count is None or 0 <= count <= MAX_COUNT, "must be in [0, sys.maxsize // 8]"),
        ])


@dataclass
class StreamConfig:
    """Where the experiment stream comes from: CSV files or the generator."""

    mode: str = "synth"  # "synth" | "file"
    sfd_path: Optional[str] = None
    hfd_path: Optional[str] = None
    column_map: dict[str, str] = field(default_factory=dict)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self) -> None:
        if self.mode == "synth":
            self.synth.validate()
            return
        check_fields("stream", [
            ("mode", self.mode == "file", f"unknown stream mode: {shortened(self.mode)}"),
            ("sfd_path", bool(self.sfd_path), "file mode needs both sfd_path and hfd_path"),
            ("hfd_path", bool(self.hfd_path), "file mode needs both sfd_path and hfd_path"),
            ("sfd_path", "\0" not in (self.sfd_path or ""), "must not contain a NUL character"),
            ("hfd_path", "\0" not in (self.hfd_path or ""), "must not contain a NUL character"),
        ])


_CHUNK_ROWS = 1024
_CANONICAL_KEYS = frozenset(CSV_COLUMNS)
_REQUIRED_KEYS = frozenset(REQUIRED_FIELDS)


def load_csv(
    path: str,
    *,
    column_map: Optional[dict] = None,
    default_segment: Segment = Segment.SFD,
) -> list[TelemetryEvent]:
    """Load one segment from a CSV file, preserving row order: the events of ``read_part``'s columns.

    ``column_map`` renames source headers to the canonical column names
    (for example ``{"OSNR_SPO2": "osnr_rx"}``). Rows are validated through
    the telemetry layer; the first bad row raises MalformedRow with its
    1-based data-row number. Timestamps must strictly increase. Rows read
    as with ``csv.DictReader``: blank lines are skipped and not counted, a
    short row's missing cells are None, extra cells are dropped and a
    repeated column keeps its last cell.

    The file is read once, as UTF-8 with a leading byte-order mark dropped.
    A row that cannot be read is a MalformedRow too, with the header
    counted as row 0, and a bad row before it still wins:
    - bytes that are not UTF-8 are read as escapes and caught on the header
      and per row in ``_validate_rows``; the column path's ``float``,
      ``int`` and label lookups reject them, so their chunk goes there;
    - a field over ``csv.field_size_limit()``, as an unclosed quote gives,
      stops the reader, after the rows read before it are checked.

    Rows are read in chunks of ``_CHUNK_ROWS``. When the mapped header
    names only canonical columns, each once and every required one, a
    chunk whose rows all have the header's length is parsed a column at a
    time and checked whole (see ``_chunk_columns``). A chunk that fails any
    step is validated again row by row through ``validate``, which alone
    defines a valid row and names the error.
    """
    return list(map(TelemetryEvent, *read_part(path, column_map=column_map, default_segment=default_segment).columns))


class Part(NamedTuple):
    """What ``read_part`` read: its columns, the rows counted and the last timestamp at its end, and its first one.

    A next part continues from ``rows`` and ``last``. A timestamp is None
    where there is none: no row yet, or a file without a timestamp column,
    whose rows are numbered instead.
    """

    columns: tuple
    rows: int
    first: Optional[int]
    last: Optional[int]


def read_part(path: str, start: int = 0, stop: Optional[int] = None, *, column_map: Optional[dict] = None,
              default_segment: Segment = Segment.SFD, names: Optional[Sequence[str]] = None,
              after: Optional[Part] = None) -> Part:
    """``load_csv``'s segment of the rows in bytes ``[start, stop)`` of the file (to its end if ``stop`` is None).

    Its ``columns`` are those of the events before they are built: one
    list per ``TelemetryEvent`` field, in field order. ``meta`` is an
    eighth column only when the mapped header names a column that is not
    canonical (then every chunk takes the row loop, and every event has a
    ``meta`` dict); otherwise every event's is None and there are seven.
    Without a timestamp column the timestamps are a ``range``, the row
    loop's ``index`` defaults. A column path chunk and a row loop chunk
    land in the same lists, so a part pickles as a few lists across a fork,
    whichever path read it. ``names`` (of ``CSV_COLUMNS``), if given, are
    the columns returned, in that order: every cell of every row is still
    parsed and validated, but each chunk extends only those lists.

    ``start`` and ``stop`` are 0, the file's end or a ``line_start``, so
    the range holds whole rows; a range that starts past 0 takes its
    header from the file's first line. A range from 0 is read without a
    seek, so a pipe or a FIFO reads whole. The rows are numbered, and their
    timestamps checked, as the rows that follow the part ``after`` (None:
    no rows). The bytes are streamed from the file, never held whole.
    """
    with _text(path, start, stop) as fh:
        reader = csv.reader(fh)
        if start:
            with _text(path, 0, None) as first_line:
                header = _header(csv.reader(first_line), column_map)
        else:
            header = _header(reader, column_map)
        return _read_rows(reader, header, default_segment, names, *((after.rows, after.last) if after else (0, None)))


def line_start(path: str, at: int) -> Optional[int]:
    """The first line start after byte ``at`` of a regular file that has no ``"`` byte, if it is not the file's end.

    Without a quote, ``csv.reader`` ends a row at every line end, and the
    byte after a ``\\n`` starts a UTF-8 character and is past the
    byte-order mark, so the rows on either side of it can be read apart.
    The whole file is scanned for a quote, 64 KiB at a time. Else None.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    split, seen = None, 0
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 16), b""):
            if b'"' in block:
                return None
            if split is None and (i := block.find(b"\n", max(at - seen, 0))) >= 0:
                split = seen + i + 1
            seen += len(block)
    return split if split is not None and split < seen else None


def joined(read: Callable[..., Part], start: int, head: Part, tail: Optional[Part]) -> tuple:
    """``read_part``'s columns of a whole file, from its parts ``head = read(0, start)`` and ``tail = read(start)``.

    ``read`` is ``read_part`` with the file and its keywords bound. The
    tail was read on its own, from row 0 with no timestamp before it, and
    is None if that raised. It is read again as ``read(start, after=head)``
    unless it already holds what that read gives: when the head or the tail
    has no rows, the file has no timestamp column, or the tail's first
    timestamp exceeds the head's last and 0. (A blank timestamp cell takes
    its row's index, which the tail counts from 0; a timestamp less its
    index never decreases, so after a first timestamp above 0 none did.)
    So every value, error and row number is that of one read of the file.
    The head's lists are extended in place.
    """
    if tail is None or not (head.last is None or tail.first is None or tail.first > max(head.last, 0)):
        tail = read(start, after=head)
    return tuple(
        range(len(a) + len(b)) if isinstance(a, range) else operator.iadd(a, b)
        for a, b in zip(head.columns, tail.columns)
    )


class _Span(io.RawIOBase):
    """Bytes ``[start, stop)`` of a file as a raw stream; to its end if ``stop`` is None."""

    def __init__(self, path: str, start: int, stop: Optional[int]):
        self._fh = open(path, "rb", buffering=0)
        if start:  # a pipe cannot seek, and is only read from 0
            self._fh.seek(start)
        self._left = sys.maxsize if stop is None else stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def _text(path: str, start: int, stop: Optional[int]) -> io.TextIOWrapper:
    """Bytes ``[start, stop)`` of a file as text: UTF-8, bytes that are not as escapes, a BOM at 0 dropped."""
    encoding = "utf-8" if start else "utf-8-sig"
    return io.TextIOWrapper(_Span(path, start, stop), encoding=encoding, errors="surrogateescape", newline="")


# the code points that errors="surrogateescape" gives undecodable bytes
_UNDECODED = re.compile("[\udc80-\udcff]")
# an event's fields in order, ``meta`` last
_FIELDS_OF = operator.attrgetter(*TelemetryEvent.__slots__)


def _unreadable(row_number: int, err: csv.Error) -> MalformedRow:
    return MalformedRow(row_number, DriftStreamError(f"unreadable CSV: {err}"))


def _header(reader, column_map: Optional[dict]) -> list:
    """The mapped column names of the header row, the first that ``reader`` yields."""
    try:
        header = next(reader, [])  # an empty file reads as a header of no columns
    except csv.Error as err:
        raise _unreadable(0, err) from None
    if _UNDECODED.search("".join(header)):
        raise MalformedRow(0, DriftStreamError("bytes that are not UTF-8"))
    return [column_map.get(key, key) for key in header] if column_map else header


def _read_rows(reader, names: list, default_segment: Segment, fields: Optional[Sequence], row_number: int,
               prev_ts: Optional[int]) -> Part:
    """The columns ``fields`` (all, if None) of the data rows ``reader`` yields, after ``row_number`` rows.

    ``prev_ts`` is the timestamp of the row before them, if any.
    """
    positions = {name: i for i, name in enumerate(names)}
    n_fields = len(CSV_COLUMNS) if _CANONICAL_KEYS.issuperset(names) else len(TelemetryEvent.__slots__)
    picks = range(n_fields) if fields is None else tuple(map(CSV_COLUMNS.index, fields))
    columns = [[] for _ in picks]
    if len(positions) < len(names) or not _REQUIRED_KEYS <= positions.keys() <= _CANONICAL_KEYS:
        positions = None
    positional = "timestamp" not in names  # positional timestamps are one range, built at the end
    start, first = row_number, None
    while True:
        chunk: list[list[str]] = []
        error = None
        try:
            chunk.extend(islice(reader, _CHUNK_ROWS))
        except csv.Error as err:  # extend keeps the rows read before it
            error = err
        if rows := list(filter(None, chunk)):  # blank lines are skipped and not counted
            parsed = _chunk_columns(rows, positions, row_number, prev_ts, default_segment) if positions else None
            if parsed is None:
                parsed = _validate_rows(rows, names, row_number, prev_ts, default_segment)
            for column, i in zip(columns, picks):
                if i or not positional:
                    column.extend(parsed[i])
            if not positional:
                first = parsed[0][0] if first is None else first
                prev_ts = parsed[0][-1]
            row_number += len(rows)
        if error is not None:
            raise _unreadable(row_number + 1, error)
        if not chunk:
            kept = (range(start, row_number) if positional and not i else c for c, i in zip(columns, picks))
            return Part(tuple(kept), row_number, first, prev_ts)


def _chunk_columns(
    rows: list[list[str]],
    positions: dict[str, int],
    row_number: int,
    prev_ts: Optional[int],
    default_segment: Segment,
) -> Optional[tuple]:
    """The chunk's columns, in ``TelemetryEvent`` field order, if ``validate`` accepts every row, else None.

    Each column is parsed with the calls ``validate`` makes: ``float`` for
    the measurements, ``int`` for timestamps and exact text lookups for
    label and segment. Any other spelling (a blank cell, ``"1.0"``, a short
    row) raises here and sends the chunk to the row loop. The columns are
    then checked whole: finite sums, BER in [0, 1] by min and max, OSNR > 0
    by min, and timestamps that strictly increase past ``prev_ts``.
    """
    try:
        columns = list(zip(*rows, strict=True))
        if len(columns) != len(positions):
            return None
        ber_tx, osnr_tx, ber_rx, osnr_rx = (
            list(map(float, columns[positions[name]])) for name in ("ber_tx", "osnr_tx", "ber_rx", "osnr_rx")
        )
        labels = list(map(LABEL_OF_TEXT.__getitem__, columns[positions["label"]]))
        if "timestamp" in positions:
            timestamps = list(map(int, columns[positions["timestamp"]]))
        else:
            timestamps = range(row_number, row_number + len(rows))
        if "segment" in positions:
            segments = list(map(SEGMENT_OF_TEXT.__getitem__, columns[positions["segment"]]))
        else:
            segments = [default_segment] * len(rows)
    except (ValueError, KeyError):
        return None
    if not all(map(math.isfinite, map(sum, (ber_tx, osnr_tx, ber_rx, osnr_rx)))):
        return None
    if min(ber_tx) < 0.0 or max(ber_tx) > 1.0 or min(ber_rx) < 0.0 or max(ber_rx) > 1.0:
        return None
    if min(osnr_tx) <= 0.0 or min(osnr_rx) <= 0.0:
        return None
    if prev_ts is not None and timestamps[0] <= prev_ts:
        return None
    if not all(map(operator.lt, timestamps, islice(timestamps, 1, None))):
        return None
    return timestamps, ber_tx, osnr_tx, ber_rx, osnr_rx, labels, segments


def _validate_rows(
    rows: list[list[str]],
    names: list[str],
    row_number: int,
    prev_ts: Optional[int],
    default_segment: Segment,
) -> tuple:
    """Validate rows one record at a time into events, returned as their fields' columns; the first bad row raises."""
    fields = []
    n_names = len(names)
    for row in rows:
        row_number += 1
        if _UNDECODED.search("".join(row)):
            raise MalformedRow(row_number, DriftStreamError("bytes that are not UTF-8"))
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
        fields.append(_FIELDS_OF(event))
    return tuple(zip(*fields))


def write_csv(events: Sequence[TelemetryEvent], path: str) -> None:
    """Write events with full float precision (repr round-trips exactly), through ``write_rows``."""
    write_rows(map(serialize_row, events), path)


def write_rows(rows: Iterable[Sequence[str]], path: str) -> None:
    """Write the header, then each row of ``serialize_fields`` cells.

    The bytes are those of ``csv.writer``'s default dialect. No cell ever
    needs quoting (integers, float reprs and fixed label and segment
    names), so each row is joined directly; the lines stream from a
    generator, so no copy of the file is held in memory.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        _write_lines(fh, rows)


def encode_rows(rows: Iterable[Sequence[str]], sink: BinaryIO) -> None:
    """Write to the binary file ``sink`` the bytes that ``write_rows`` writes after the header for ``rows``."""
    text = io.TextIOWrapper(sink, encoding="utf-8", newline="")
    _write_lines(text, rows)
    text.detach()  # flushes into sink and leaves it open


def _write_lines(fh, rows: Iterable[Sequence[str]]) -> None:
    fh.writelines(",".join(cells) + "\r\n" for cells in rows)


def merge_sfd_hfd(
    sfd: Sequence[TelemetryEvent], hfd: Sequence[TelemetryEvent]
) -> list[TelemetryEvent]:
    """Concatenate the two segments into one stream.

    Output order is sfd followed by hfd; segment tags are preserved and
    timestamps are re-indexed to a single 0-based ordinal. An event whose
    timestamp already equals its merged position is shared with the input,
    not copied (events are frozen); the others are re-timestamped copies.
    Inputs are not mutated.
    """
    if len(sfd) == 0:
        raise EmptySegment("sfd")
    if len(hfd) == 0:
        raise EmptySegment("hfd")
    merged = list(sfd)
    merged.extend(hfd)
    for i, event in enumerate(merged):
        if event.timestamp != i:
            merged[i] = event.with_timestamp(i)
    return merged


def random_oversample(
    events: Sequence[TelemetryEvent],
    target_failure_ratio: Optional[float] = None,
    seed: SeedLike = None,
    *,
    target_failure_count: Optional[int] = None,
) -> list[TelemetryEvent]:
    """Append uniformly-drawn copies of existing failure events.

    Copies are drawn with replacement from the failure events already in the
    sequence, tagged ``Oversampled``, re-timestamped to continue the ordinal,
    and appended until the target failure count is met. With a ratio target,
    the ratio is the failure share of the resulting sequence. If the target
    is already met the input is returned unchanged. Deterministic under a
    fixed seed; ``oversample_sources`` draws the copies.
    """
    events = list(events)
    sources = oversample_sources(
        [event.label for event in events], target_failure_ratio, seed, target_failure_count=target_failure_count
    )
    if sources:
        next_ts = events[-1].timestamp + 1
        events.extend([
            TelemetryEvent(
                next_ts + j, src.ber_tx, src.osnr_tx, src.ber_rx, src.osnr_rx, src.label, Segment.OVERSAMPLED, src.meta
            )
            for j, src in enumerate(map(events.__getitem__, sources))
        ])
    return events


def oversample_sources(
    labels: Sequence[Label],
    target_failure_ratio: Optional[float] = None,
    seed: SeedLike = None,
    *,
    target_failure_count: Optional[int] = None,
) -> list[int]:
    """The positions in ``labels`` of the failures that ``random_oversample`` copies, in the order it appends them.

    Raises NoFailureSamples when no label is a failure, before the target is
    validated; an empty list means the target is already met.
    """
    failures = list(compress(range(len(labels)), labels))  # Label.FAILURE is the one label that is true
    if not failures:
        raise NoFailureSamples()

    OversampleConfig(target_failure_ratio, target_failure_count).validate()
    if target_failure_ratio is not None:
        r = target_failure_ratio
        need = (r * len(labels) - len(failures)) / (1.0 - r)
        k = max(0, math.ceil(need - 1e-12))
    else:
        k = max(0, int(target_failure_count) - len(failures))

    if k == 0:
        return []
    picks = np.random.default_rng(seed).integers(0, len(failures), size=k)
    return list(map(failures.__getitem__, picks.tolist()))


def _waterfall_ber(osnr_db: np.ndarray, cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    jitter = rng.standard_normal(osnr_db.shape) * cfg.ber_jitter_db
    # z (for a tiny scale) and exp overflow harmlessly to inf for healthy OSNR -> ber underflows to 0
    with np.errstate(over="ignore"):
        z = (osnr_db + jitter - cfg.waterfall_center_db) / cfg.waterfall_scale_db
        ber = cfg.ber_cap / (1.0 + np.exp(z))
    return ber


def _episode_starts(n: int, episodes: int, episode_len: int, *, centered_tail: bool) -> list[int]:
    """Evenly spaced episode start indices.

    ``centered_tail`` places half a gap before the first and after the last
    episode so no long quiet stretch survives at either end; otherwise the
    gaps surround every episode symmetrically (longer lead-in and tail).
    """
    if episodes <= 0:
        return []
    free = n - episodes * episode_len
    if centered_tail:
        gap = free / episodes
        return [int(round(gap / 2.0 + i * (gap + episode_len))) for i in range(episodes)]
    gap = free / (episodes + 1)
    return [int(round(gap * (i + 1) + i * episode_len)) for i in range(episodes)]


def _sfd_levels(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.n_sfd
    level = np.full(n, cfg.osnr_normal_mean, dtype=float)
    std = np.full(n, cfg.osnr_normal_std, dtype=float)
    labels = np.zeros(n, dtype=np.int64)

    soft_level = cfg.osnr_normal_mean - cfg.osnr_soft_drop
    dip_level = soft_level - cfg.prefix_overshoot_db

    for start in _episode_starts(n, cfg.sfd_episodes, cfg.episode_len(), centered_tail=False):
        pos = start
        if cfg.warning_prefix:
            ramp = np.linspace(cfg.osnr_normal_mean, dip_level, cfg.prefix_ramp_len, endpoint=False)
            level[pos : pos + cfg.prefix_ramp_len] = ramp
            std[pos : pos + cfg.prefix_ramp_len] = cfg.prefix_dwell_std
            pos += cfg.prefix_ramp_len
            level[pos : pos + cfg.prefix_dwell_len] = dip_level
            std[pos : pos + cfg.prefix_dwell_len] = cfg.prefix_dwell_std
            pos += cfg.prefix_dwell_len
        level[pos : pos + cfg.failure_burst_len] = soft_level
        std[pos : pos + cfg.failure_burst_len] = cfg.plateau_std
        labels[pos : pos + cfg.failure_burst_len] = 1

    osnr = level + std * rng.standard_normal(n)
    return osnr, labels


def _hfd_levels(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.n_hfd
    baseline = cfg.osnr_normal_mean - cfg.hfd_baseline_shift
    hard_level = cfg.osnr_normal_mean - cfg.osnr_hard_drop
    level = np.full(n, baseline, dtype=float)
    std = np.full(n, cfg.hfd_baseline_std, dtype=float)
    labels = np.zeros(n, dtype=np.int64)

    for start in _episode_starts(n, cfg.hfd_episodes, cfg.failure_burst_len, centered_tail=True):
        # abrupt onset: no ramp, the drop happens within one sample
        level[start : start + cfg.failure_burst_len] = hard_level
        std[start : start + cfg.failure_burst_len] = cfg.plateau_std
        labels[start : start + cfg.failure_burst_len] = 1

    osnr = level + std * rng.standard_normal(n)
    return osnr, labels


def _segment_arrays(osnr_rx: np.ndarray, labels: np.ndarray, cfg: SynthConfig, rng: np.random.Generator) -> tuple:
    osnr_rx = np.maximum(osnr_rx, 0.01)
    ber_rx = _waterfall_ber(osnr_rx, cfg, rng)
    osnr_tx = np.maximum(cfg.osnr_tx_mean + cfg.osnr_tx_std * rng.standard_normal(len(osnr_rx)), 0.01)
    return _waterfall_ber(osnr_tx, cfg, rng), osnr_tx, ber_rx, osnr_rx, labels


def synthetic_arrays(cfg: SynthConfig, seed: SeedLike = None) -> tuple[tuple, tuple]:
    """Each segment's ``ber_tx``, ``osnr_tx``, ``ber_rx``, ``osnr_rx`` and label arrays, 8 bytes a value.

    The draws, and their order, are those every synthetic stream is made
    of. ``synthetic_columns`` converts the arrays to lists, and
    ``array_rows`` renders their rows a chunk at a time.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    sfd = _segment_arrays(*_sfd_levels(cfg, rng), cfg, rng)
    return sfd, _segment_arrays(*_hfd_levels(cfg, rng), cfg, rng)


def _columns(arrays: tuple, segment: Segment) -> tuple:
    *measurements, labels = arrays
    n = len(labels)
    labels = list(map(LABELS.__getitem__, labels.tolist()))
    return range(n), *(array.tolist() for array in measurements), labels, [segment] * n


def synthetic_columns(cfg: SynthConfig, seed: SeedLike = None) -> tuple[tuple, tuple]:
    """The two segments' columns in ``TelemetryEvent`` field order (timestamps local to each)."""
    sfd, hfd = synthetic_arrays(cfg, seed)
    sfd = _columns(sfd, Segment.SFD)  # the soft-failure arrays are freed before the hard-failure ones convert
    return sfd, _columns(hfd, Segment.HFD)


def array_rows(arrays: tuple, segment: Segment, start: int, stop: int) -> Iterator[tuple[str, ...]]:
    """The ``serialize_fields`` cells of rows ``start`` to ``stop`` of one segment's ``synthetic_arrays``.

    The rows are converted from slices ``_CHUNK_ROWS`` at a time, so that
    no more than one chunk of values exists as Python objects at once.
    """
    for low in range(start, stop, _CHUNK_ROWS):
        high = min(low + _CHUNK_ROWS, stop)
        values = (array[low:high].tolist() for array in arrays)
        yield from map(serialize_fields, range(low, high), *values, repeat(segment))


def generate_synthetic_segments(
    cfg: SynthConfig, seed: SeedLike = None
) -> tuple[list[TelemetryEvent], list[TelemetryEvent]]:
    """Generate the two segments separately (timestamps local to each)."""
    sfd, hfd = synthetic_columns(cfg, seed)
    return list(map(TelemetryEvent, *sfd)), list(map(TelemetryEvent, *hfd))


def generate_synthetic(cfg: SynthConfig, seed: SeedLike = None) -> list[TelemetryEvent]:
    """Generate the full drifting stream (soft segment then hard segment).

    Deterministic under a fixed seed; identical (cfg, seed) pairs produce
    bit-identical streams.
    """
    sfd, hfd = generate_synthetic_segments(cfg, seed)
    if not hfd:
        return sfd
    return merge_sfd_hfd(sfd, hfd)
