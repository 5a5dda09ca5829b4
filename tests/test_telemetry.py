import copy
import dataclasses
import inspect
import math
import pickle
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.errors import DriftStreamError, MissingField, OutOfRange, UnparsableNumber
from driftstream.telemetry import (
    FEATURE_NAMES,
    OSNR_RX_INDEX,
    Label,
    Segment,
    TelemetryEvent,
    to_features,
    validate,
)

from conftest import as_record, make_event

GOOD = {
    "ber_rx": "0.5",
    "osnr_rx": "20.0",
    "ber_tx": "0.0",
    "osnr_tx": "30.0",
    "label": "0",
    "timestamp": "7",
}


def test_valid_record_passes():
    event = validate(GOOD)
    assert event.label is Label.NORMAL
    assert event.timestamp == 7
    assert event.ber_rx == 0.5
    assert event.osnr_tx == 30.0


def test_ber_above_one_rejected():
    record = dict(GOOD, ber_rx="1.5")
    with pytest.raises(OutOfRange) as exc:
        validate(record)
    assert exc.value.field == "ber_rx"
    assert exc.value.value == 1.5


def test_negative_ber_rejected():
    with pytest.raises(OutOfRange):
        validate(dict(GOOD, ber_tx="-0.1"))


def test_nonpositive_osnr_rejected():
    with pytest.raises(OutOfRange):
        validate(dict(GOOD, osnr_rx="0.0"))


def test_empty_string_unparsable():
    with pytest.raises(UnparsableNumber) as exc:
        validate(dict(GOOD, osnr_rx=""))
    assert exc.value.field == "osnr_rx"


def test_garbage_number_unparsable():
    with pytest.raises(UnparsableNumber):
        validate(dict(GOOD, ber_rx="abc"))


def test_missing_field():
    record = dict(GOOD)
    del record["label"]
    with pytest.raises(MissingField) as exc:
        validate(record)
    assert exc.value.field == "label"


def test_label_outside_binary_set_rejected():
    with pytest.raises(OutOfRange):
        validate(dict(GOOD, label="2"))


@pytest.mark.parametrize("label", ["0.9", "1.7", "-0.3", "inf", "-inf", "nan", "1e400"])
def test_label_must_be_exactly_zero_or_one(label):
    with pytest.raises(OutOfRange) as exc:
        validate(dict(GOOD, label=label))
    assert exc.value.field == "label"


@pytest.mark.parametrize("label, expected", [("0", Label.NORMAL), ("1.0", Label.FAILURE), ("1e0", Label.FAILURE)])
def test_integral_label_spellings_accepted(label, expected):
    assert validate(dict(GOOD, label=label)).label is expected


@pytest.mark.parametrize("timestamp", ["7.5", "inf", "-inf", "nan", "1e400"])
def test_timestamp_must_be_integral(timestamp):
    with pytest.raises(OutOfRange) as exc:
        validate(dict(GOOD, timestamp=timestamp))
    assert exc.value.field == "timestamp"


def test_unparsable_label_and_timestamp():
    for name in ("label", "timestamp"):
        with pytest.raises(UnparsableNumber) as exc:
            validate(dict(GOOD, **{name: "x1"}))
        assert exc.value.field == name


def test_integral_timestamp_spellings_accepted_exactly():
    assert validate(dict(GOOD, timestamp="12.0")).timestamp == 12
    assert validate(dict(GOOD, timestamp="12345678901234567891")).timestamp == 12345678901234567891


_NUMBERISH = st.one_of(
    st.sampled_from(["0", "1", "1.0", "0.9", "1.7", "-0.3", "inf", "-inf", "nan", "1e400", "", " ", "x"]),
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.text(max_size=6),
)


_FEATURE = st.one_of(st.sampled_from(["0", "0.5", "1", "20.0"]), _NUMBERISH)


@settings(max_examples=300, deadline=None)
@given(
    record=st.fixed_dictionaries(
        {**{name: _FEATURE for name in FEATURE_NAMES}, "label": _NUMBERISH, "timestamp": _NUMBERISH}
    )
)
def test_any_string_record_validates_or_raises_a_typed_error(record):
    try:
        event = validate(record)
    except DriftStreamError:
        return
    assert float(record["label"]) == int(event.label)
    if record["timestamp"].strip():
        # an integer spelling is parsed exactly, also past float precision
        try:
            expected = int(record["timestamp"])
        except ValueError:
            expected = float(record["timestamp"])
        assert event.timestamp == expected


def test_non_finite_rejected():
    with pytest.raises(OutOfRange):
        validate(dict(GOOD, osnr_tx="inf"))
    with pytest.raises(OutOfRange):
        validate(dict(GOOD, ber_rx="nan"))


def test_unknown_keys_become_metadata():
    event = validate(dict(GOOD, device_id="DEV-7", type="amp"))
    assert event.meta == {"device_id": "DEV-7", "type": "amp"}


def test_timestamp_defaults_to_index():
    record = dict(GOOD)
    del record["timestamp"]
    assert validate(record, index=42).timestamp == 42


def test_to_features_projection():
    event = make_event(ber_tx=0.0, osnr_tx=30.0, ber_rx=1e-3, osnr_rx=22.0)
    assert to_features(event) == (0.0, 30.0, 1e-3, 22.0)


def test_to_features_deterministic():
    a = make_event(osnr_rx=21.5)
    b = make_event(osnr_rx=21.5)
    assert to_features(a) == to_features(b)
    # pure: repeated projection of the same event is stable
    assert to_features(a) == to_features(a)


@settings(max_examples=200, deadline=None)
@given(
    ber_tx=st.floats(0.0, 1.0),
    osnr_tx=st.floats(0.01, 60.0),
    ber_rx=st.floats(0.0, 1.0),
    osnr_rx=st.floats(0.01, 60.0),
    label=st.integers(0, 1),
)
def test_feature_index_3_is_osnr_rx(ber_tx, osnr_tx, ber_rx, osnr_rx, label):
    event = make_event(
        ber_tx=ber_tx, osnr_tx=osnr_tx, ber_rx=ber_rx, osnr_rx=osnr_rx, label=label
    )
    vec = to_features(event)
    assert len(vec) == 4
    assert vec[OSNR_RX_INDEX] == event.osnr_rx
    assert FEATURE_NAMES[OSNR_RX_INDEX] == "osnr_rx"


@settings(max_examples=200, deadline=None)
@given(
    ber_tx=st.floats(0.0, 1.0),
    osnr_tx=st.floats(0.01, 60.0),
    ber_rx=st.floats(0.0, 1.0),
    osnr_rx=st.floats(0.01, 60.0),
    label=st.integers(0, 1),
)
def test_serialize_validate_round_trip_full_precision(ber_tx, osnr_tx, ber_rx, osnr_rx, label):
    original = make_event(
        i=3, ber_tx=ber_tx, osnr_tx=osnr_tx, ber_rx=ber_rx, osnr_rx=osnr_rx, label=label
    )
    back = validate(as_record(original))
    assert back.ber_tx == original.ber_tx
    assert back.osnr_tx == original.osnr_tx
    assert back.ber_rx == original.ber_rx
    assert back.osnr_rx == original.osnr_rx
    assert back.label == original.label
    assert back.timestamp == original.timestamp
    assert back.segment == original.segment


def test_segment_round_trip():
    event = make_event(segment=Segment.OVERSAMPLED)
    assert validate(as_record(event)).segment is Segment.OVERSAMPLED


def test_to_features_has_no_side_effects():
    event = make_event()
    before = as_record(event)
    to_features(event)
    assert as_record(event) == before
    assert math.isfinite(sum(to_features(event)))


def test_events_are_frozen():
    event = make_event()
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.timestamp = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.segment = Segment.HFD


# -- the event contract ----------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class _GeneratedEvent:
    """TelemetryEvent's fields, with the __init__ that dataclass generates."""

    timestamp: int
    ber_tx: float
    osnr_tx: float
    ber_rx: float
    osnr_rx: float
    label: Label
    segment: Segment = Segment.SFD
    meta: Optional[dict] = dataclasses.field(default=None, compare=False)


_FIELD_NAMES = [f.name for f in dataclasses.fields(TelemetryEvent)]
_REQUIRED = (3, 1e-9, 32.0, 1e-6, 25.0, Label.FAILURE)
_ALL = _REQUIRED + (Segment.HFD, {"site": "a"})


def _values(event):
    return [getattr(event, name) for name in _FIELD_NAMES]


def test_event_fields_and_signature_match_the_generated_ones():
    def shape(cls):
        return [(f.name, f.default, f.init, f.repr, f.compare, f.hash) for f in dataclasses.fields(cls)]

    assert shape(TelemetryEvent) == shape(_GeneratedEvent)
    assert inspect.signature(TelemetryEvent, eval_str=True) == inspect.signature(_GeneratedEvent)


def test_event_builds_positionally_and_by_keyword_with_the_same_defaults():
    for args in (_REQUIRED, _ALL):
        by_keyword = dict(zip(_FIELD_NAMES, args))
        reference = _values(_GeneratedEvent(*args))
        assert _values(TelemetryEvent(*args)) == reference
        assert _values(TelemetryEvent(**by_keyword)) == reference
        assert _values(TelemetryEvent(*args[:3], **dict(list(by_keyword.items())[3:]))) == reference
    assert _values(TelemetryEvent(*_REQUIRED))[-2:] == [Segment.SFD, None]
    bad_calls = [(_REQUIRED[:-1], {}), (_ALL + (None,), {}), (_REQUIRED, {"timestamp": 4}), (_REQUIRED, {"x": 1})]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            _GeneratedEvent(*args, **kwargs)
        with pytest.raises(TypeError):
            TelemetryEvent(*args, **kwargs)


def test_every_event_field_is_frozen():
    event = TelemetryEvent(*_ALL)
    for name in _FIELD_NAMES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(event, name)
    assert _values(event) == list(_ALL)


def test_a_name_that_is_not_a_field_is_frozen_too():
    event = TelemetryEvent(*_ALL)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        event.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'extra'"):
        del event.extra
    assert not hasattr(event, "extra")
    assert _values(event) == list(_ALL)


def test_event_replace_changes_only_the_named_fields():
    event = TelemetryEvent(*_ALL)
    changed = dataclasses.replace(event, timestamp=9, segment=Segment.OVERSAMPLED)
    assert type(changed) is TelemetryEvent
    assert _values(changed) == [9, *_ALL[1:6], Segment.OVERSAMPLED, _ALL[7]]
    assert changed.meta is event.meta


def test_event_equality_and_hash_ignore_meta():
    with_meta, without = TelemetryEvent(*_ALL), TelemetryEvent(*_ALL[:-1])
    assert with_meta == without and hash(with_meta) == hash(without)
    other = TelemetryEvent(*_ALL[:4], 25.5, *_ALL[5:])
    assert other != with_meta


def test_event_pickle_and_deepcopy_round_trip():
    event = TelemetryEvent(*_ALL)
    copies = [pickle.loads(pickle.dumps(event, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies.append(copy.deepcopy(event))
    for back in copies:
        assert type(back) is TelemetryEvent
        assert _values(back) == list(_ALL)
        assert back.label is Label.FAILURE and back.segment is Segment.HFD
    assert copy.copy(event) == event


def test_event_repr_is_unchanged():
    assert repr(TelemetryEvent(1, 0.1, 2.0, 0.2, 3.0, Label.NORMAL)) == (
        "TelemetryEvent(timestamp=1, ber_tx=0.1, osnr_tx=2.0, ber_rx=0.2, osnr_rx=3.0, "
        "label=<Label.NORMAL: 0>, segment=<Segment.SFD: 'SFD'>, meta=None)"
    )
