import math
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.errors import NonFiniteInput
from driftstream.models import LogisticRegression
from driftstream.models.snapshot import restore_model, snapshot_dict, snapshot_json
from driftstream.stats import RunningStats


def raw_model(weights=None, bias=0.0):
    model = LogisticRegression(standardize=False)
    if weights is not None:
        model.weights = list(weights)
    model.bias = bias
    return model


def log_loss(model, x, y):
    p = model.score_one(x)
    p = min(max(p, 1e-300), 1.0 - 1e-16)
    return -(y * math.log(p) + (1 - y) * math.log(1.0 - p))


def test_unfitted_scores_half():
    assert LogisticRegression().score_one((1.0, 2.0, 3.0, 4.0)) == 0.5


def test_zero_weights_score_half_for_any_input():
    model = raw_model()
    assert model.score_one((10.0, -3.0, 0.5, 99.0)) == 0.5


def test_sigmoid_asymptote():
    model = raw_model(weights=(100.0, 0.0, 0.0, 0.0))
    assert model.score_one((100.0, 0.0, 0.0, 0.0)) == 1.0
    assert model.score_one((-100.0, 0.0, 0.0, 0.0)) == 0.0


def test_closed_form_score():
    model = raw_model(weights=(1.0, 0.0, 0.0, 0.0))
    expected = 1.0 / (1.0 + math.exp(-2.0))
    assert abs(model.score_one((2.0, 0.0, 0.0, 0.0)) - expected) < 1e-12
    assert abs(expected - 0.8808) < 1e-4


def test_single_sgd_step_hand_computed():
    model = raw_model()
    model.learn_one((1.0, 0.0, 0.0, 0.0), 1)
    # gradient (0.5 - 1) on the active coordinate and the bias, lr 0.01
    assert model.weights == pytest.approx([0.005, 0.0, 0.0, 0.0], abs=1e-15)
    assert model.bias == pytest.approx(0.005, abs=1e-15)


def test_saturated_score_gives_zero_gradient():
    model = raw_model(weights=(50.0, 0.0, 0.0, 0.0), bias=0.0)
    x = (20.0, 0.0, 0.0, 0.0)
    assert model.score_one(x) == 1.0  # matches the label exactly
    before = list(model.weights), model.bias
    model.learn_one(x, 1)
    assert (list(model.weights), model.bias) == before


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        model = raw_model(weights=rng.normal(0, 1, 4).tolist(), bias=float(rng.normal()))
        x = tuple(rng.normal(0, 1, 4).tolist())
        y = int(rng.integers(0, 2))

        stepped = deepcopy(model)
        stepped.learn_one(x, y)
        grad = [
            (model.weights[j] - stepped.weights[j]) / model.learning_rate for j in range(4)
        ] + [(model.bias - stepped.bias) / model.learning_rate]

        for j in range(5):
            probe = deepcopy(model)
            if j < 4:
                probe.weights[j] += h
                up = log_loss(probe, x, y)
                probe.weights[j] -= 2 * h
                down = log_loss(probe, x, y)
            else:
                probe.bias += h
                up = log_loss(probe, x, y)
                probe.bias -= 2 * h
                down = log_loss(probe, x, y)
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grad[j]), 1e-8)
            assert abs(fd - grad[j]) / scale < 1e-5


def test_standardizer_updates_before_step():
    model = LogisticRegression()
    model.learn_one((10.0, 20.0, 30.0, 40.0), 1)
    # first sample: mean equals the sample, so the standardized vector is 0
    # and only the bias moves
    assert model.weights == [0.0, 0.0, 0.0, 0.0]
    assert model.bias == pytest.approx(0.005)


def test_weights_stay_finite_across_wild_scales():
    model = LogisticRegression()
    rng = np.random.default_rng(3)
    for i in range(2000):
        scale = 10.0 ** rng.integers(-9, 9)
        x = tuple((rng.normal(0, 1, 4) * scale).tolist())
        model.learn_one(x, int(rng.integers(0, 2)))
    assert all(math.isfinite(w) for w in model.weights)
    assert math.isfinite(model.bias)
    assert 0.0 <= model.score_one((1.0, 1.0, 1.0, 1.0)) <= 1.0


def test_scoring_is_pure():
    model = LogisticRegression()
    for i in range(20):
        model.learn_one((float(i), 1.0, 2.0, 3.0), i % 2)
    before = snapshot_json(model)
    for _ in range(50):
        model.score_one((5.0, 1.0, 2.0, 3.0))
    assert snapshot_json(model) == before


def test_non_finite_inputs_rejected():
    model = LogisticRegression()
    with pytest.raises(NonFiniteInput):
        model.score_one((float("inf"), 0.0, 0.0, 0.0))
    with pytest.raises(NonFiniteInput):
        model.learn_one((0.0, 0.0, 0.0, float("nan")), 1)
    with pytest.raises(NonFiniteInput):
        model.learn_one((0.0, 0.0, 0.0, 0.0), 2)


def test_snapshot_round_trip():
    model = LogisticRegression()
    rng = np.random.default_rng(8)
    for _ in range(200):
        model.learn_one(tuple(rng.normal(0, 1, 4).tolist()), int(rng.integers(0, 2)))
    clone = restore_model(snapshot_dict(model))
    x = tuple(rng.normal(0, 1, 4).tolist())
    assert clone.score_one(x) == model.score_one(x)
    assert snapshot_json(clone) == snapshot_json(model)


_values = st.floats(-1e6, 1e6, allow_nan=False)
_stream = st.lists(st.tuples(st.tuples(_values, _values, _values), st.integers(0, 1)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(_stream, st.booleans())
def test_scaler_state_equals_running_stats_triple_for_triple(samples, standardize):
    model = LogisticRegression(n_features=3, standardize=standardize)
    reference = [RunningStats() for _ in range(3)]
    for x, y in samples:
        model.learn_one(x, y)
        if standardize:
            for j, v in enumerate(x):
                reference[j].update(v)
    assert model.to_state()["scaler"] == [rs.to_state() for rs in reference]


def test_restore_rejects_scaler_stats_whose_weights_disagree():
    model = LogisticRegression()
    for i in range(10):
        model.learn_one((float(i), 1.0, 2.0, 3.0), i % 2)
    data = snapshot_dict(model)
    restore_model(data)
    data["state"]["scaler"][2][0] += 1.0
    with pytest.raises(ValueError, match="scaler count"):
        restore_model(data)
