"""Telemetry data model: validated events and their feature projection.

One event is a timestamped snapshot of a single optical channel: bit error
rate and OSNR at both ends of the link, plus a binary health label. All other
modules consume events through this module, so validation happens exactly
once, at the edge.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Mapping, Optional

from .errors import MissingField, OutOfRange, UnparsableNumber

# Fixed feature order used everywhere downstream. Index 3 (osnr_rx) is the
# feature monitored for drift.
FEATURE_NAMES = ("ber_tx", "osnr_tx", "ber_rx", "osnr_rx")
N_FEATURES = 4
OSNR_RX_INDEX = 3

FeatureVector = tuple[float, float, float, float]

# Column order of a serialized event and of the CSV files streams write.
CSV_COLUMNS = ("timestamp", "ber_tx", "osnr_tx", "ber_rx", "osnr_rx", "label", "segment")


class Label(int, Enum):
    NORMAL = 0
    FAILURE = 1


class Segment(str, Enum):
    SFD = "SFD"
    HFD = "HFD"
    SYNTHETIC = "Synthetic"
    OVERSAMPLED = "Oversampled"


# LABELS[v] is Label(v), without the cost of an enum call.
LABELS = tuple(Label)
# The CSV text of each label and segment, as serialize_row writes it, and back.
_LABEL_TEXT = tuple(str(label.value) for label in Label)
_SEGMENT_TEXT = {segment: segment.value for segment in Segment}
LABEL_OF_TEXT = {text: label for label, text in zip(Label, _LABEL_TEXT)}
SEGMENT_OF_TEXT = {text: segment for segment, text in _SEGMENT_TEXT.items()}


@dataclass(frozen=True, slots=True, init=False)
class TelemetryEvent:
    """One validated telemetry sample.

    ``timestamp`` is a monotonic ordinal within a stream; any original
    wall-clock string travels in ``meta`` untouched. Events are frozen and
    slotted, so a stream can share one event object between lists, and a
    copy costs one constructor call.
    """

    timestamp: int
    ber_tx: float
    osnr_tx: float
    ber_rx: float
    osnr_rx: float
    label: Label
    segment: Segment = Segment.SFD
    meta: Optional[dict] = field(default=None, compare=False)

    # The generated frozen __init__ stores each field through
    # object.__setattr__; calling the slot descriptors' __set__ directly
    # builds the same event in half the time.
    def __init__(
        self, timestamp: int, ber_tx: float, osnr_tx: float, ber_rx: float, osnr_rx: float, label: Label,
        segment: Segment = Segment.SFD, meta: Optional[dict] = None,
    ) -> None:
        _set_timestamp(self, timestamp)
        _set_ber_tx(self, ber_tx)
        _set_osnr_tx(self, osnr_tx)
        _set_ber_rx(self, ber_rx)
        _set_osnr_rx(self, osnr_rx)
        _set_label(self, label)
        _set_segment(self, segment)
        _set_meta(self, meta)

    def with_timestamp(self, timestamp: int) -> "TelemetryEvent":
        return TelemetryEvent(
            timestamp, self.ber_tx, self.osnr_tx, self.ber_rx, self.osnr_rx, self.label, self.segment, self.meta
        )


# The slot descriptors of the decorated class (slots=True builds a new class).
(_set_timestamp, _set_ber_tx, _set_osnr_tx, _set_ber_rx, _set_osnr_rx, _set_label, _set_segment, _set_meta) = (
    TelemetryEvent.__dict__[name].__set__ for name in TelemetryEvent.__slots__
)


# The frozen __setattr__/__delattr__ that dataclass generates refer to the class
# before slots=True rebuilt it, and raise TypeError for a name that is not a field;
# these raise the dataclass error for every name. Construction, pickling and
# deepcopy store fields through the slot descriptors or object.__setattr__.
def _refuse_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


TelemetryEvent.__setattr__ = _refuse_setattr
TelemetryEvent.__delattr__ = _refuse_delattr


REQUIRED_FIELDS = ("ber_tx", "osnr_tx", "ber_rx", "osnr_rx", "label")
# Keys validate() reads; a record with any other key carries metadata.
_KNOWN_KEYS = frozenset(REQUIRED_FIELDS + ("timestamp", "segment"))


def _parse_float(name: str, text) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise UnparsableNumber(name, str(text)) from None
    if not math.isfinite(value):
        raise OutOfRange(name, value)
    return value


def _parse_integral(name: str, text) -> int:
    try:
        return int(str(text))  # exact, even past float precision
    except ValueError:
        pass
    try:
        value = _parse_float(name, text)
    except OutOfRange:  # not finite: quote the cell, which may be digits past int()'s limit, not its float
        raise OutOfRange(name, text) from None
    if not value.is_integer():
        raise OutOfRange(name, value)
    return int(value)


def validate(
    raw: Mapping[str, str],
    *,
    index: int = 0,
    segment: Segment = Segment.SFD,
) -> TelemetryEvent:
    """Validate a raw string record into a TelemetryEvent.

    Enforces: BER in [0, 1], OSNR finite and > 0, label exactly 0 or 1, and
    a finite, integral timestamp. Numeric parsing always uses the decimal
    point, independent of locale. Unknown keys are preserved as metadata.
    ``timestamp`` defaults to ``index`` when the record carries none.

    Raises MissingField, UnparsableNumber or OutOfRange. With several faults
    the first in this order wins: a missing or blank required field, in
    REQUIRED_FIELDS order; an unparsable or non-finite BER, then OSNR value;
    a BER, then an OSNR value out of range; the label; the timestamp; the
    segment.
    """
    for name in REQUIRED_FIELDS:
        text = raw.get(name)
        if text is None:
            raise MissingField(name)
        if not str(text).strip():
            raise UnparsableNumber(name, str(text))

    ber_tx = _parse_float("ber_tx", raw["ber_tx"])
    ber_rx = _parse_float("ber_rx", raw["ber_rx"])
    osnr_tx = _parse_float("osnr_tx", raw["osnr_tx"])
    osnr_rx = _parse_float("osnr_rx", raw["osnr_rx"])
    if not 0.0 <= ber_tx <= 1.0:
        raise OutOfRange("ber_tx", ber_tx)
    if not 0.0 <= ber_rx <= 1.0:
        raise OutOfRange("ber_rx", ber_rx)
    if osnr_tx <= 0.0:
        raise OutOfRange("osnr_tx", osnr_tx)
    if osnr_rx <= 0.0:
        raise OutOfRange("osnr_rx", osnr_rx)

    label_value = _parse_integral("label", raw["label"])
    if label_value not in (0, 1):
        raise OutOfRange("label", label_value)

    known = len(REQUIRED_FIELDS)  # all present by now; counts the known keys in raw
    timestamp = index
    if "timestamp" in raw:
        known += 1
        if raw["timestamp"] is None:  # a short CSV row
            raise MissingField("timestamp")
        if str(raw["timestamp"]).strip() != "":
            timestamp = _parse_integral("timestamp", raw["timestamp"])

    seg = segment
    if "segment" in raw:
        known += 1
        if raw["segment"] is None:
            raise MissingField("segment")
        if str(raw["segment"]).strip() != "":
            seg = SEGMENT_OF_TEXT.get(str(raw["segment"]))
            if seg is None:
                raise OutOfRange("segment", raw["segment"])

    meta = None
    if len(raw) > known:
        meta = {k: v for k, v in raw.items() if k not in _KNOWN_KEYS}
    return TelemetryEvent(timestamp, ber_tx, osnr_tx, ber_rx, osnr_rx, LABELS[label_value], seg, meta)


def to_features(event: TelemetryEvent) -> FeatureVector:
    """Project an event onto the fixed 4-feature order.

    Pure function: no state, stable order (ber_tx, osnr_tx, ber_rx, osnr_rx).
    """
    return (event.ber_tx, event.osnr_tx, event.ber_rx, event.osnr_rx)


def serialize_row(event: TelemetryEvent) -> tuple[str, ...]:
    """Render an event as string cells in ``CSV_COLUMNS`` order.

    ``repr`` of a float round-trips exactly, so validating the cells as a
    record, ``dict(zip(CSV_COLUMNS, serialize_row(e)))``, reproduces every
    field but ``meta`` bit for bit.
    """
    return serialize_fields(
        event.timestamp, event.ber_tx, event.osnr_tx, event.ber_rx, event.osnr_rx, event.label, event.segment
    )


def serialize_fields(
    timestamp: int, ber_tx: float, osnr_tx: float, ber_rx: float, osnr_rx: float, label: Label, segment: Segment
) -> tuple[str, ...]:
    """``serialize_row`` of the event these fields would make, without making it."""
    return (
        str(timestamp),
        repr(ber_tx),
        repr(osnr_tx),
        repr(ber_rx),
        repr(osnr_rx),
        _LABEL_TEXT[label],
        _SEGMENT_TEXT[segment],
    )
