"""Telemetry data model: validated events and their feature projection.

One event is a timestamped snapshot of a single optical channel: bit error
rate and OSNR at both ends of the link, plus a binary health label. All other
modules consume events through this module, so validation happens exactly
once, at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional

from .errors import MissingField, OutOfRange, UnparsableNumber

# Fixed feature order used everywhere downstream. Index 3 (osnr_rx) is the
# feature monitored for drift.
FEATURE_NAMES = ("ber_tx", "osnr_tx", "ber_rx", "osnr_rx")
N_FEATURES = 4
OSNR_RX_INDEX = 3

FeatureVector = tuple[float, float, float, float]


class Label(int, Enum):
    NORMAL = 0
    FAILURE = 1


class Segment(str, Enum):
    SFD = "SFD"
    HFD = "HFD"
    SYNTHETIC = "Synthetic"
    OVERSAMPLED = "Oversampled"


@dataclass(frozen=True)
class TelemetryEvent:
    """One validated telemetry sample.

    ``timestamp`` is a monotonic ordinal within a stream; any original
    wall-clock string travels in ``meta`` untouched.
    """

    timestamp: int
    ber_tx: float
    osnr_tx: float
    ber_rx: float
    osnr_rx: float
    label: Label
    segment: Segment = Segment.SFD
    meta: Optional[dict] = field(default=None, compare=False)

    def with_timestamp(self, timestamp: int) -> "TelemetryEvent":
        return replace(self, timestamp=timestamp)


REQUIRED_FIELDS = ("ber_tx", "osnr_tx", "ber_rx", "osnr_rx", "label")
_BER_FIELDS = ("ber_tx", "ber_rx")
_OSNR_FIELDS = ("osnr_tx", "osnr_rx")


def _parse_float(raw: Mapping[str, str], name: str) -> float:
    text = raw[name]
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise UnparsableNumber(name, str(text)) from None
    if not math.isfinite(value):
        raise OutOfRange(name, value)
    return value


def _parse_integral(raw: Mapping[str, str], name: str) -> int:
    try:
        return int(str(raw[name]))  # exact, even past float precision
    except ValueError:
        pass
    value = _parse_float(raw, name)
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

    Raises MissingField, UnparsableNumber or OutOfRange.
    """
    for name in REQUIRED_FIELDS:
        if name not in raw or raw[name] is None:
            raise MissingField(name)
        if str(raw[name]).strip() == "":
            raise UnparsableNumber(name, str(raw[name]))

    values = {}
    for name in _BER_FIELDS + _OSNR_FIELDS:
        values[name] = _parse_float(raw, name)
    for name in _BER_FIELDS:
        if not 0.0 <= values[name] <= 1.0:
            raise OutOfRange(name, values[name])
    for name in _OSNR_FIELDS:
        if values[name] <= 0.0:
            raise OutOfRange(name, values[name])

    label_value = _parse_integral(raw, "label")
    if label_value not in (0, 1):
        raise OutOfRange("label", label_value)

    if "timestamp" in raw and str(raw["timestamp"]).strip() != "":
        timestamp = _parse_integral(raw, "timestamp")
    else:
        timestamp = index

    seg = segment
    if "segment" in raw and str(raw["segment"]).strip() != "":
        try:
            seg = Segment(str(raw["segment"]))
        except ValueError:
            raise OutOfRange("segment", raw["segment"]) from None

    meta = {
        k: v
        for k, v in raw.items()
        if k not in REQUIRED_FIELDS and k not in ("timestamp", "segment")
    }
    return TelemetryEvent(
        timestamp=timestamp,
        ber_tx=values["ber_tx"],
        osnr_tx=values["osnr_tx"],
        ber_rx=values["ber_rx"],
        osnr_rx=values["osnr_rx"],
        label=Label(label_value),
        segment=seg,
        meta=meta or None,
    )


def to_features(event: TelemetryEvent) -> FeatureVector:
    """Project an event onto the fixed 4-feature order.

    Pure function: no state, stable order (ber_tx, osnr_tx, ber_rx, osnr_rx).
    """
    return (event.ber_tx, event.osnr_tx, event.ber_rx, event.osnr_rx)


def serialize(event: TelemetryEvent) -> dict[str, str]:
    """Render an event back to a string record with full float precision.

    ``repr`` of a float round-trips exactly, so validate(serialize(e))
    reproduces every numeric field bit for bit.
    """
    record = {
        "timestamp": str(event.timestamp),
        "ber_tx": repr(event.ber_tx),
        "osnr_tx": repr(event.osnr_tx),
        "ber_rx": repr(event.ber_rx),
        "osnr_rx": repr(event.osnr_rx),
        "label": str(int(event.label)),
        "segment": event.segment.value,
    }
    return record
