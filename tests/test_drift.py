import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.drift import (
    ClassContext,
    Direction,
    PageHinkley,
    correlation_rank,
    detect_drifts_per_class,
)
from driftstream.errors import DegenerateLabels, NonFiniteInput
from driftstream.streams import SynthConfig, generate_synthetic
from driftstream.telemetry import Segment

from conftest import make_stream


def replay_decrease(values, delta, threshold, min_instances):
    """Independent recomputation of the cumulative-sum recurrence.

    Mirrors the published update rule sample by sample: incremental mean,
    m_t accumulating the deviations, running extremum, alarm on the gap.
    Returns all alarm indices (with reset after each alarm).
    """
    alarms = []
    t = 0
    mean = m = extremum = 0.0
    for i, x in enumerate(values):
        t += 1
        mean += (x - mean) / t
        m += x - mean + delta
        extremum = max(extremum, m)
        if extremum - m > threshold and t > min_instances:
            alarms.append(i)
            t = 0
            mean = m = extremum = 0.0
    return alarms


def test_constant_stream_never_drifts():
    det = PageHinkley(delta=0.005, threshold=50.0)
    assert not any(det.update(5.0) for _ in range(5000))
    assert 0.0 <= det.statistic < 1.0


def test_statistic_never_negative():
    rng = np.random.default_rng(33)
    det = PageHinkley(threshold=1e9)  # never alarms, never resets
    for x in rng.normal(0, 3, 2000):
        det.update(float(x))
        assert det.statistic >= 0.0


def test_step_drop_matches_brute_force_replay():
    values = [0.0] * 500 + [-10.0] * 200
    expected = replay_decrease(values, delta=0.005, threshold=50.0, min_instances=30)
    det = PageHinkley(delta=0.005, threshold=50.0, min_instances=30, direction=Direction.DECREASE)
    fired = [i for i, x in enumerate(values) if det.update(x)]
    assert fired == expected
    assert len(fired) >= 1
    assert fired[0] >= 500  # inside the post-shift region


def test_two_sided_fires_no_later_than_decrease_only():
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.normal(0, 0.1, 400), rng.normal(-4.0, 0.1, 200)])
    one_sided = PageHinkley(direction=Direction.DECREASE)
    two_sided = PageHinkley(direction=Direction.TWO_SIDED)
    first_one = next((i for i, x in enumerate(values) if one_sided.update(float(x))), None)
    first_two = next((i for i, x in enumerate(values) if two_sided.update(float(x))), None)
    assert first_one is not None and first_two is not None
    assert first_two <= first_one


def test_increase_direction_detects_upward_step():
    values = [0.0] * 300 + [8.0] * 100
    det = PageHinkley(direction=Direction.INCREASE)
    assert any(det.update(x) for x in values)


def test_no_alarm_before_min_instances():
    det = PageHinkley(delta=0.0, threshold=0.5, min_instances=30, direction=Direction.INCREASE)
    fired = [i for i, x in enumerate([0.0] * 10 + [100.0] * 40) if det.update(x)]
    assert fired and min(fired) >= 30


def test_reset_clears_state():
    det = PageHinkley(direction=Direction.DECREASE)
    for x in [0.0] * 200 + [-30.0] * 50:
        if det.update(x):
            break
    assert det.t == 0
    assert det.mean == 0.0
    assert det.statistic == 0.0


def test_non_finite_input_rejected():
    det = PageHinkley()
    with pytest.raises(NonFiniteInput):
        det.update(float("nan"))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=50, max_size=300),
    st.floats(-1000, 1000, allow_nan=False),
)
def test_alarm_sequence_invariant_under_level_shift(values, c):
    base = PageHinkley(threshold=5.0, min_instances=10)
    shifted = PageHinkley(threshold=5.0, min_instances=10)
    fired_base = [i for i, x in enumerate(values) if base.update(x)]
    fired_shifted = [i for i, x in enumerate(values) if shifted.update(x + c)]
    assert fired_base == fired_shifted


def test_replay_determinism():
    rng = np.random.default_rng(11)
    values = rng.normal(0, 0.3, 3000)
    values[1500:] -= 2.0
    runs = []
    for _ in range(2):
        det = PageHinkley()
        runs.append([i for i, x in enumerate(values) if det.update(float(x))])
    assert runs[0] == runs[1]


def test_detection_delay_monotone_in_shift_magnitude():
    rng = np.random.default_rng(21)
    base = 5.0 + rng.normal(0, 0.2, 3000)
    delays = []
    for magnitude in (8.0, 4.0, 2.0):  # in units of sigma
        values = base.copy()
        values[1000:] -= magnitude * 0.2
        det = PageHinkley()
        first = next(i for i, x in enumerate(values) if det.update(float(x)))
        delays.append(first - 1000)
    assert delays[0] <= delays[1] <= delays[2]


# -- per-class localization -------------------------------------------------------


def test_failure_only_shift_yields_failure_context_only():
    n = 2000
    labels = [i % 2 for i in range(n)]
    osnr = [30.0 if lbl == 0 else (24.0 if i < n // 2 else 12.0) for i, lbl in enumerate(labels)]
    events = make_stream(osnr, labels)
    drifts = detect_drifts_per_class(events)
    assert len(drifts) >= 1
    assert all(d.class_context is ClassContext.FAILURE for d in drifts)


def test_stationary_all_normal_stream_is_quiet():
    events = make_stream([30.0] * 3000, [0] * 3000)
    assert detect_drifts_per_class(events) == []


def test_synthetic_stream_failure_drift_inside_hfd():
    cfg = SynthConfig(n_sfd=3000, n_hfd=1500, sfd_episodes=3, hfd_episodes=4)
    stream = generate_synthetic(cfg, seed=6)
    boundary = next(i for i, e in enumerate(stream) if e.segment is Segment.HFD)
    drifts = detect_drifts_per_class(stream)
    failure_in_hfd = [
        d for d in drifts if d.class_context is ClassContext.FAILURE and d.index >= boundary
    ]
    assert failure_in_hfd
    # warning structure: normal-class drift precedes the first failure drift
    first_failure = min(d.index for d in drifts if d.class_context is ClassContext.FAILURE)
    first_normal = min(d.index for d in drifts if d.class_context is ClassContext.NORMAL)
    assert first_normal < first_failure


def test_per_class_indices_refer_to_full_stream():
    labels = [0] * 100 + [1] * 400
    osnr = [30.0] * 100 + [24.0] * 200 + [10.0] * 200
    events = make_stream(osnr, labels)
    drifts = detect_drifts_per_class(events)
    assert all(d.index >= 300 for d in drifts)
    assert all(a.index < b.index for a, b in zip(drifts, drifts[1:]))


# -- correlation ranking ------------------------------------------------------------


def test_separable_feature_ranked_first():
    rng = np.random.default_rng(5)
    osnr = rng.uniform(10, 30, size=800)
    labels = (osnr < 20.0).astype(int)
    events = make_stream(osnr, labels)
    ranked = correlation_rank(events)
    assert ranked[0][0] == 3  # osnr_rx
    assert ranked[0][1] > 0.8


def test_constant_feature_reports_zero_correlation():
    from conftest import make_event

    events = [make_event(i, osnr_tx=32.0, label=i % 2, osnr_rx=20.0 + (i % 2)) for i in range(100)]
    ranked = dict(correlation_rank(events))
    assert ranked[1] == 0.0  # osnr_tx constant
    assert len(ranked) == 4  # ranking stays total


def test_single_class_degenerate():
    events = make_stream([25.0] * 50, [1] * 50)
    with pytest.raises(DegenerateLabels):
        correlation_rank(events)
