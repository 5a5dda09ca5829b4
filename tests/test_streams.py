import csv
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.errors import (
    ConfigError,
    EmptySegment,
    MalformedRow,
    MissingField,
    NoFailureSamples,
    OutOfRange,
    UnparsableNumber,
)
from driftstream.streams import (
    SynthConfig,
    generate_synthetic,
    generate_synthetic_segments,
    load_csv,
    merge_sfd_hfd,
    random_oversample,
    synthetic_columns,
    write_csv,
)
from driftstream.telemetry import CSV_COLUMNS, Label, Segment, TelemetryEvent, serialize_row, to_features, validate

from conftest import as_record, make_event


# -- csv ingestion -------------------------------------------------------------


def _write_rows(path, rows, header="timestamp,ber_tx,osnr_tx,ber_rx,osnr_rx,label"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_load_csv_preserves_order(tmp_path):
    path = tmp_path / "seg.csv"
    _write_rows(
        path,
        [
            "0,1e-9,32.0,1e-6,25.0,0",
            "1,1e-9,32.0,2e-6,24.0,1",
            "2,1e-9,32.0,3e-6,23.0,0",
        ],
    )
    events = load_csv(str(path))
    assert len(events) == 3
    assert [e.osnr_rx for e in events] == [25.0, 24.0, 23.0]
    assert [int(e.label) for e in events] == [0, 1, 0]


def test_load_csv_missing_label_names_row(tmp_path):
    path = tmp_path / "seg.csv"
    _write_rows(
        path,
        ["0,1e-9,32.0,1e-6,25.0,0", "1,1e-9,32.0,2e-6,24.0,", "2,1e-9,32.0,3e-6,23.0,0"],
    )
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    assert exc.value.row == 2


def test_load_csv_short_row_is_missing_field(tmp_path):
    path = tmp_path / "seg.csv"
    path.write_text("timestamp,ber_tx,osnr_tx,ber_rx,osnr_rx,label\n0,1e-9,32.0\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    assert isinstance(exc.value.cause, MissingField)


def test_load_csv_deterministic(tmp_path):
    path = tmp_path / "seg.csv"
    _write_rows(path, ["0,1e-9,32.0,1e-6,25.0,0", "1,1e-9,32.0,2e-6,24.0,1"])
    assert load_csv(str(path)) == load_csv(str(path))


def test_load_csv_rejects_non_increasing_timestamps(tmp_path):
    path = tmp_path / "seg.csv"
    _write_rows(path, ["5,1e-9,32.0,1e-6,25.0,0", "5,1e-9,32.0,2e-6,24.0,1"])
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    assert exc.value.row == 2
    assert isinstance(exc.value.cause, OutOfRange) and exc.value.cause.field == "timestamp"


def test_load_csv_column_mapping(tmp_path):
    path = tmp_path / "seg.csv"
    _write_rows(
        path,
        ["0,1e-9,32.0,1e-6,25.0,0"],
        header="timestamp,ber_tx,osnr_tx,ber_rx,OSNR_SPO2,label",
    )
    events = load_csv(str(path), column_map={"OSNR_SPO2": "osnr_rx"})
    assert events[0].osnr_rx == 25.0


_HEADER = "timestamp,ber_tx,osnr_tx,ber_rx,osnr_rx,label"
_ROW_A = "0,1e-9,32.0,1e-6,25.0,0"
_ROW_B = "1,1e-9,32.0,2e-6,24.0,1"


@pytest.mark.parametrize(
    "text, column_map, expected",
    [
        # blank lines are skipped and not counted: the bad row is data row 3
        (f"{_HEADER}\n{_ROW_A}\n\n\n{_ROW_B}\n\n2,1e-9,32.0,3e-6,23.0,x\n", None, (UnparsableNumber, 3)),
        (f"{_HEADER}\n\n{_ROW_A}\n\n{_ROW_B}\n\n", None, [(0, 0, "SFD", 25.0, None), (1, 1, "SFD", 24.0, None)]),
        # a whitespace-only line is a row, not a blank line
        (f"{_HEADER}\n{_ROW_A}\n \n", None, (MissingField, 2)),
        # a short row's missing trailing cells read as absent, not as blank
        (f"{_HEADER},segment\n{_ROW_A},HFD\n{_ROW_B}\n", None, (MissingField, 2)),
        ("ber_tx,osnr_tx,ber_rx,osnr_rx,label,timestamp\n1e-9,32.0,1e-6,25.0,0,4\n1e-9,32.0,2e-6,24.0,1\n", None,
         (MissingField, 2)),
        (f"{_HEADER},label\n{_ROW_A}\n", None, (MissingField, 1)),
        # extra cells are dropped
        (f"{_HEADER}\n{_ROW_A},zzz,yy\n{_ROW_B},\n", None, [(0, 0, "SFD", 25.0, None), (1, 1, "SFD", 24.0, None)]),
        # a repeated column keeps its last cell
        (f"{_HEADER},label\n{_ROW_A},1\n", None, [(0, 1, "SFD", 25.0, None)]),
        (f"{_HEADER.replace('osnr_rx', 'OSNR_SPO2')}\n{_ROW_A}\n", {"OSNR_SPO2": "osnr_rx"},
         [(0, 0, "SFD", 25.0, None)]),
        (f"{_HEADER}\n{_ROW_A}\n", {"label": "osnr_rx"}, (MissingField, 1)),
        (f"{_HEADER},site\n{_ROW_A},A\n", None, [(0, 0, "SFD", 25.0, {"site": "A"})]),
        (f"{_HEADER}\r\n{_ROW_A}\r\n", None, [(0, 0, "SFD", 25.0, None)]),
        ("", None, []),
        (f"{_HEADER}\n", None, []),
        (f"\n{_ROW_A}\n", None, (MissingField, 1)),
    ],
)
def test_load_csv_edge_cases(tmp_path, text, column_map, expected):
    path = tmp_path / "seg.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, tuple):
        cause, row = expected
        with pytest.raises(MalformedRow) as exc:
            load_csv(str(path), column_map=column_map)
        assert type(exc.value.cause) is cause
        assert exc.value.row == row
    else:
        events = load_csv(str(path), column_map=column_map)
        got = [(e.timestamp, int(e.label), e.segment.value, e.osnr_rx, e.meta) for e in events]
        assert got == expected


def test_load_csv_short_row_errors_name_the_field(tmp_path):
    path = tmp_path / "seg.csv"
    path.write_text(f"{_HEADER},segment\n{_ROW_A},HFD\n{_ROW_B}\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    assert isinstance(exc.value.cause, MissingField) and exc.value.cause.field == "segment"
    path.write_text("ber_tx,osnr_tx,ber_rx,osnr_rx,label,timestamp\n1e-9,32.0,2e-6,24.0,1\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(str(path))
    assert isinstance(exc.value.cause, MissingField) and exc.value.cause.field == "timestamp"


_GOOD_RECORD = {"timestamp": "0", "ber_tx": "1e-9", "osnr_tx": "32", "ber_rx": "1e-6", "osnr_rx": "25", "label": "0"}


@pytest.mark.parametrize(
    "faults, error, field",
    [
        ({"ber_tx": "abc", "osnr_rx": ""}, UnparsableNumber, "osnr_rx"),  # blank before unparsable
        ({"osnr_rx": None, "ber_tx": ""}, UnparsableNumber, "ber_tx"),  # missing and blank in field order
        ({"label": "", "ber_rx": "x"}, UnparsableNumber, "label"),
        ({"ber_rx": "abc", "osnr_tx": "abc"}, UnparsableNumber, "ber_rx"),  # BER fields parse first
        ({"ber_tx": "inf", "osnr_tx": "x"}, OutOfRange, "ber_tx"),
        ({"osnr_tx": "-1", "ber_rx": "2"}, OutOfRange, "ber_rx"),  # BER ranges before OSNR ranges
        ({"label": "2", "osnr_rx": "-1"}, OutOfRange, "osnr_rx"),
        ({"label": "x", "timestamp": "y"}, UnparsableNumber, "label"),
        ({"timestamp": "1.5", "segment": "Q"}, OutOfRange, "timestamp"),
    ],
)
def test_validate_error_precedence_with_two_faults(faults, error, field):
    with pytest.raises(error) as exc:
        validate({**_GOOD_RECORD, **faults})
    assert type(exc.value) is error and exc.value.field == field


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_csv(str(tmp_path / "nope.csv"))


def test_write_then_load_round_trip(tmp_path):
    events = [make_event(i, osnr_rx=20.0 + 0.123456789 * i, label=i % 2) for i in range(5)]
    path = tmp_path / "out.csv"
    write_csv(events, str(path))
    back = load_csv(str(path))
    assert back == events


# -- merging -------------------------------------------------------------------


def test_merge_order_and_boundary():
    sfd = [make_event(i, segment=Segment.SFD) for i in range(100)]
    hfd = [make_event(i, segment=Segment.HFD) for i in range(50)]
    merged = merge_sfd_hfd(sfd, hfd)
    assert len(merged) == 150
    assert all(e.segment is Segment.SFD for e in merged[:100])
    assert merged[100].segment is Segment.HFD
    assert [e.timestamp for e in merged] == list(range(150))


def test_merge_empty_segment():
    events = [make_event(0)]
    with pytest.raises(EmptySegment):
        merge_sfd_hfd([], events)
    with pytest.raises(EmptySegment):
        merge_sfd_hfd(events, [])


def test_merge_preserves_event_fields():
    sfd = [make_event(i, osnr_rx=24.0 + i) for i in range(3)]
    hfd = [make_event(i, osnr_rx=14.0 + i, segment=Segment.HFD) for i in range(2)]
    merged = merge_sfd_hfd(sfd, hfd)
    original = [to_features(e) + (int(e.label),) for e in sfd + hfd]
    after = [to_features(e) + (int(e.label),) for e in merged]
    assert original == after  # multiset and order intact, only timestamps change
    assert sfd[0].timestamp == 0  # inputs not mutated


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_merge_boundary_index_is_sfd_length(n_sfd, n_hfd):
    sfd = [make_event(i) for i in range(n_sfd)]
    hfd = [make_event(i, segment=Segment.HFD) for i in range(n_hfd)]
    merged = merge_sfd_hfd(sfd, hfd)
    first_hfd = next(i for i, e in enumerate(merged) if e.segment is Segment.HFD)
    assert first_hfd == n_sfd


# -- oversampling ----------------------------------------------------------------


def _small_population():
    events = [make_event(i, osnr_rx=25.0 + i, label=0) for i in range(8)]
    events.insert(3, make_event(3, osnr_rx=14.5, label=1))
    events.insert(7, make_event(7, osnr_rx=13.5, label=1))
    return merge_sfd_hfd(events[:5], events[5:])


def test_oversample_count_target_appends_copies():
    events = _small_population()
    out = random_oversample(events, target_failure_count=5, seed=0)
    appended = out[len(events):]
    assert len(appended) == 3
    originals = {to_features(e) for e in events if e.label is Label.FAILURE}
    for copy in appended:
        assert copy.segment is Segment.OVERSAMPLED
        assert copy.label is Label.FAILURE
        assert to_features(copy) in originals  # never invents feature values


def test_oversample_target_met_returns_input_unchanged():
    events = _small_population()
    assert random_oversample(events, target_failure_count=2, seed=0) == events


def test_oversample_deterministic_under_seed():
    events = _small_population()
    a = random_oversample(events, 0.5, seed=123)
    b = random_oversample(events, 0.5, seed=123)
    assert a == b


def test_oversample_requires_failures():
    events = [make_event(i) for i in range(5)]
    with pytest.raises(NoFailureSamples):
        random_oversample(events, 0.3, seed=0)


def test_oversample_ratio_semantics():
    events = _small_population()  # 10 events, 2 failures
    out = random_oversample(events, target_failure_ratio=0.5, seed=0)
    failures = sum(1 for e in out if e.label is Label.FAILURE)
    assert failures / len(out) >= 0.5
    assert failures - 2 == len(out) - len(events)


def test_oversample_rejects_bad_ratio():
    events = _small_population()
    with pytest.raises(ConfigError, match="'oversample.target_failure_ratio'"):
        random_oversample(events, target_failure_ratio=0.9, seed=0)


def test_oversample_timestamps_continue():
    events = _small_population()
    out = random_oversample(events, target_failure_count=6, seed=0)
    stamps = [e.timestamp for e in out]
    assert stamps == list(range(len(out)))


# -- event copies ----------------------------------------------------------------


def _fields(event):
    """Every field of an event, ``meta`` included, with floats compared by their bits."""
    return tuple(
        getattr(event, f.name).hex() if isinstance(getattr(event, f.name), float) else getattr(event, f.name)
        for f in dataclasses.fields(event)
    )


_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
_events = st.lists(
    st.builds(
        TelemetryEvent,
        timestamp=st.integers(0, 2**70),
        ber_tx=st.floats(0.0, 1.0),
        osnr_tx=_positive,
        ber_rx=st.floats(0.0, 1.0),
        osnr_rx=_positive,
        label=st.sampled_from(Label),
        segment=st.sampled_from(Segment),
        meta=st.none() | st.dictionaries(st.text(max_size=3), st.text(max_size=3), min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_events, _events, st.integers(0, 2**32 - 1), st.integers(-3, 2**70))
def test_event_copies_equal_a_replace_reference(sfd, hfd, seed, timestamp):
    merged = merge_sfd_hfd(sfd, hfd)
    assert [_fields(e) for e in merged] == [
        _fields(dataclasses.replace(e, timestamp=i)) for i, e in enumerate(sfd + hfd)
    ]
    assert _fields(sfd[0].with_timestamp(timestamp)) == _fields(dataclasses.replace(sfd[0], timestamp=timestamp))

    events = [dataclasses.replace(e, label=Label.FAILURE) if i == 0 else e for i, e in enumerate(merged)]
    out = random_oversample(events, target_failure_count=len(events) + 5, seed=seed)
    failures = [e for e in events if e.label is Label.FAILURE]
    picks = np.random.default_rng(seed).integers(0, len(failures), size=len(out) - len(events))
    reference = events + [
        dataclasses.replace(failures[int(p)], timestamp=len(events) + j, segment=Segment.OVERSAMPLED)
        for j, p in enumerate(picks)
    ]
    assert [_fields(e) for e in out] == [_fields(e) for e in reference]


@settings(max_examples=40, deadline=None)
@given(_events, st.integers(0, 2**32 - 1))
def test_write_then_load_round_trips_bit_for_bit(tmp_path_factory, events, seed):
    events = [dataclasses.replace(e, timestamp=i * 2**60, meta=None) for i, e in enumerate(events)]
    events = random_oversample(
        [dataclasses.replace(events[0], label=Label.FAILURE)] + events[1:], target_failure_count=len(events) + 3, seed=seed
    )
    path = str(tmp_path_factory.mktemp("round_trip") / "seg.csv")
    write_csv(events, path)
    back = load_csv(path)
    assert [_fields(e) for e in back] == [_fields(e) for e in events]
    assert sum(e.segment is Segment.OVERSAMPLED for e in back) >= 3


@settings(max_examples=60, deadline=None)
@given(_events | st.just([]))
def test_write_csv_bytes_equal_a_csv_writer_reference(tmp_path_factory, events):
    directory = tmp_path_factory.mktemp("writer")
    write_csv(events, str(directory / "seg.csv"))
    with open(directory / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(serialize_row, events))
    assert (directory / "seg.csv").read_bytes() == (directory / "reference.csv").read_bytes()


# -- synthetic generator ----------------------------------------------------------


SMALL = dict(n_sfd=2000, n_hfd=1200, sfd_episodes=2, hfd_episodes=3)


def test_hard_failures_drop_deeper_than_soft():
    cfg = SynthConfig(**SMALL, osnr_hard_drop=15.0, osnr_soft_drop=5.0)
    stream = generate_synthetic(cfg, seed=9)
    soft = [e.osnr_rx for e in stream if e.segment is Segment.SFD and e.label is Label.FAILURE]
    hard = [e.osnr_rx for e in stream if e.segment is Segment.HFD and e.label is Label.FAILURE]
    assert np.mean(hard) < np.mean(soft)


def test_ordering_invariant_with_margin():
    cfg = SynthConfig(**SMALL)
    stream = generate_synthetic(cfg, seed=4)
    soft = np.mean([e.osnr_rx for e in stream if e.segment is Segment.SFD and e.label is Label.FAILURE])
    hard = np.mean([e.osnr_rx for e in stream if e.segment is Segment.HFD and e.label is Label.FAILURE])
    normal = np.mean([e.osnr_rx for e in stream if e.label is Label.NORMAL])
    margin = (cfg.osnr_hard_drop - cfg.osnr_soft_drop) / 2.0
    assert hard + margin < soft < normal


def test_no_hfd_segment_when_n_hfd_zero():
    cfg = SynthConfig(**dict(SMALL, n_hfd=0))
    stream = generate_synthetic(cfg, seed=1)
    assert len(stream) == cfg.n_sfd
    assert all(e.segment is Segment.SFD for e in stream)


def test_same_seed_bit_identical():
    cfg = SynthConfig(**SMALL)
    assert generate_synthetic(cfg, seed=7) == generate_synthetic(cfg, seed=7)


@pytest.mark.parametrize(
    "integers",
    [
        {"osnr_normal_mean": 30},
        {"hfd_baseline_shift": 13},
        {"osnr_normal_mean": 30, "hfd_baseline_shift": 13, "osnr_hard_drop": 15, "osnr_normal_std": 1},
    ],
)
def test_integer_config_values_generate_the_same_events_as_floats(integers):
    floats = {name: float(value) for name, value in integers.items()}
    by_int = generate_synthetic(SynthConfig(**SMALL, **integers), seed=7)
    by_float = generate_synthetic(SynthConfig(**SMALL, **floats), seed=7)
    assert [_fields(e) for e in by_int] == [_fields(e) for e in by_float]


def test_a_tiny_waterfall_scale_generates_without_a_warning():
    # z = (osnr - center) / scale overflows to +-inf, and the waterfall saturates at 0 or ber_cap
    cfg = SynthConfig(**SMALL, waterfall_center_db=30.0, waterfall_scale_db=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = generate_synthetic(cfg, seed=7)
    assert {e.ber_rx for e in stream} | {e.ber_tx for e in stream} == {0.0, cfg.ber_cap}


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(SynthConfig) if f.type in (float, "float")]
_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, -1.0, 1e6, -1e6, 1e6 + 1, 1e300, 1e308, -1e308])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_FLOAT_FIELDS), _EXTREME | st.floats(), max_size=4), st.integers(0, 2**32 - 1))
def test_a_synth_config_is_rejected_or_synthesizes_only_finite_values(overrides, seed):
    cfg = SynthConfig(n_sfd=400, n_hfd=300, sfd_episodes=1, hfd_episodes=1, **overrides)
    try:
        cfg.validate()
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = synthetic_columns(cfg, seed)
    for segment in columns:
        assert np.isfinite(np.array(segment[1:5], dtype=float)).all()


def test_different_seeds_differ():
    cfg = SynthConfig(**SMALL)
    assert generate_synthetic(cfg, seed=7) != generate_synthetic(cfg, seed=8)


def test_warning_prefix_precedes_soft_failures():
    cfg = SynthConfig(**SMALL)
    sfd, _ = generate_synthetic_segments(cfg, seed=2)
    labels = np.array([int(e.label) for e in sfd])
    osnr = np.array([e.osnr_rx for e in sfd])
    first_failure = int(np.argmax(labels == 1))
    prefix = osnr[first_failure - cfg.prefix_dwell_len : first_failure]
    # the degradation dip sits below the upcoming failure plateau
    plateau = osnr[first_failure : first_failure + cfg.failure_burst_len]
    assert prefix.mean() < plateau.mean() < cfg.osnr_normal_mean


def test_hard_failures_start_abruptly():
    cfg = SynthConfig(**SMALL)
    _, hfd = generate_synthetic_segments(cfg, seed=2)
    labels = np.array([int(e.label) for e in hfd])
    osnr = np.array([e.osnr_rx for e in hfd])
    onsets = np.flatnonzero(np.diff(labels) == 1) + 1
    assert len(onsets) > 0
    baseline = cfg.osnr_normal_mean - cfg.hfd_baseline_shift
    for onset in onsets:
        # one sample before the onset the link still sits at its baseline
        assert abs(osnr[onset - 1] - baseline) < 6 * cfg.hfd_baseline_std
        assert osnr[onset] < baseline - 0.5 * (cfg.osnr_hard_drop - cfg.hfd_baseline_shift)


def test_ber_anticorrelated_with_osnr():
    cfg = SynthConfig(**SMALL)
    stream = generate_synthetic(cfg, seed=5)
    ber = np.array([e.ber_rx for e in stream])
    osnr = np.array([e.osnr_rx for e in stream])
    assert np.corrcoef(ber, osnr)[0, 1] < -0.3


def test_generated_events_are_valid():
    cfg = SynthConfig(**SMALL)
    for event in generate_synthetic(cfg, seed=3)[::97]:
        validate(as_record(event))  # raises on any invariant breach


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError, match="'stream.synth.n_sfd'"):
        SynthConfig(n_sfd=0).validate()
    with pytest.raises(ConfigError, match="'stream.synth.osnr_hard_drop'"):
        SynthConfig(osnr_soft_drop=10.0, osnr_hard_drop=5.0).validate()
    with pytest.raises(ConfigError, match="'stream.synth.sfd_episodes'"):
        SynthConfig(n_sfd=100, sfd_episodes=5).validate()
    with pytest.raises(ConfigError, match="'stream.synth.osnr_hard_drop'"):
        SynthConfig(osnr_hard_drop=40.0).validate()
