import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.errors import NonFiniteInput
from driftstream.models import GaussianNB
from driftstream.models.snapshot import restore_model, snapshot_dict, snapshot_json
from driftstream.stats import RunningStats
from driftstream.telemetry import to_features

from conftest import make_stream


def test_unfitted_scores_half():
    assert GaussianNB().score_one((1.0, 2.0, 3.0, 4.0)) == 0.5


def test_first_sample_stats():
    model = GaussianNB(n_features=1)
    model.learn_one((3.7,), 1)
    assert model.class_mean(1, 0) == 3.7
    assert model.class_variance(1, 0) == 0.0  # stored raw; floored when scoring
    assert 0.0 <= model.score_one((3.7,)) <= 1.0


def test_four_point_stream_matches_batch():
    model = GaussianNB(n_features=1)
    for v in (1.0, 2.0, 3.0, 4.0):
        model.learn_one((v,), 0)
    assert abs(model.class_mean(0, 0) - 2.5) < 1e-12
    assert abs(model.class_variance(0, 0) - 1.25) < 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    values = rng.normal(5.0, 2.0, 300)
    a, b = GaussianNB(n_features=1), GaussianNB(n_features=1)
    for v in values:
        a.learn_one((float(v),), 1)
    for v in rng.permutation(values):
        b.learn_one((float(v),), 1)
    assert abs(a.class_mean(1, 0) - b.class_mean(1, 0)) < 1e-9 * max(abs(a.class_mean(1, 0)), 1.0)
    assert abs(a.class_variance(1, 0) - b.class_variance(1, 0)) < 1e-9 * max(a.class_variance(1, 0), 1.0)


def test_symmetric_likelihoods_equal_priors_score_half():
    model = GaussianNB(n_features=1)
    for v in (0.0, 1.0):
        model.learn_one((v,), 0)
        model.learn_one((v,), 1)
    assert model.score_one((0.3,)) == pytest.approx(0.5, abs=1e-12)
    assert model.score_one((123.0,)) == pytest.approx(0.5, abs=1e-12)


def test_identical_likelihoods_posterior_equals_prior():
    model = GaussianNB(n_features=1)
    for _ in range(3):
        model.learn_one((0.0,), 0)
        model.learn_one((1.0,), 0)
    model.learn_one((0.0,), 1)
    model.learn_one((1.0,), 1)
    # both classes saw {0,1} multisets: same mean/variance, priors 0.75/0.25
    assert model.score_one((0.5,)) == pytest.approx(0.25, abs=1e-12)


def test_two_feature_toy_matches_direct_density_formula():
    model = GaussianNB(n_features=2, min_variance=1e-10)
    class0 = [(1.0, 10.0), (2.0, 12.0), (3.0, 14.0)]
    class1 = [(5.0, 4.0), (6.0, 6.0), (8.0, 5.0)]
    for x in class0:
        model.learn_one(x, 0)
    for x in class1:
        model.learn_one(x, 1)

    def direct(x):
        out = []
        for data, prior in ((class0, 0.5), (class1, 0.5)):
            arr = np.array(data)
            mu = arr.mean(axis=0)
            var = np.maximum(arr.var(axis=0), 1e-10)
            dens = np.prod(np.exp(-((np.array(x) - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))
            out.append(prior * dens)
        return out[1] / (out[0] + out[1])

    for x in [(2.0, 11.0), (6.0, 5.0), (4.0, 8.0), (0.0, 0.0)]:
        assert abs(model.score_one(x) - direct(x)) < 1e-9


def test_single_class_saturates_to_that_class():
    model = GaussianNB(n_features=1)
    model.learn_one((1.0,), 1)
    assert model.score_one((0.0,)) == 1.0
    other = GaussianNB(n_features=1)
    other.learn_one((1.0,), 0)
    assert other.score_one((0.0,)) == 0.0


def test_variance_floor_applied_at_scoring():
    model = GaussianNB(n_features=1, min_variance=1e-10)
    # both classes degenerate (zero variance) at different centers
    for _ in range(2):
        model.learn_one((0.0,), 0)
        model.learn_one((1.0,), 1)
    score = model.score_one((0.9,))
    assert math.isfinite(score)
    assert score == 1.0  # 0.9 is astronomically closer to class 1 at the floor


def test_scoring_is_pure():
    model = GaussianNB()
    rng = np.random.default_rng(0)
    for _ in range(50):
        model.learn_one(tuple(rng.normal(0, 1, 4).tolist()), int(rng.integers(0, 2)))
    before = snapshot_json(model)
    for _ in range(20):
        model.score_one((0.1, 0.2, 0.3, 0.4))
    assert snapshot_json(model) == before


def test_non_finite_rejected():
    model = GaussianNB()
    with pytest.raises(NonFiniteInput):
        model.learn_one((float("inf"), 0.0, 0.0, 0.0), 0)
    with pytest.raises(NonFiniteInput):
        model.learn_one((0.0, 0.0, 0.0, 0.0), 3)


def test_snapshot_round_trip():
    model = GaussianNB()
    rng = np.random.default_rng(1)
    for _ in range(100):
        model.learn_one(tuple(rng.normal(0, 2, 4).tolist()), int(rng.integers(0, 2)))
    clone = restore_model(snapshot_dict(model))
    x = (0.5, -1.0, 2.0, 0.0)
    assert clone.score_one(x) == model.score_one(x)


_values = st.floats(-1e6, 1e6, allow_nan=False)
_stream = st.lists(st.tuples(st.tuples(_values, _values, _values), st.integers(0, 1)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(_stream)
def test_state_equals_running_stats_triple_for_triple(samples):
    model = GaussianNB(n_features=3)
    reference = [[RunningStats() for _ in range(3)] for _ in range(2)]
    for x, y in samples:
        model.learn_one(x, y)
        for j, v in enumerate(x):
            reference[y][j].update(v)
    state = model.to_state()
    assert state["counts"] == [sum(1.0 for _, y in samples if y == cls) for cls in (0, 1)]
    assert state["stats"] == [[rs.to_state() for rs in per_class] for per_class in reference]
    for cls in (0, 1):
        for j in range(3):
            assert model.class_variance(cls, j) == reference[cls][j].variance


def test_restore_rejects_stats_whose_weight_differs_from_the_class_count():
    model = GaussianNB()
    for i in range(10):
        model.learn_one((float(i), 1.0, 2.0, 3.0), i % 2)
    data = snapshot_dict(model)
    restore_model(data)
    data["state"]["stats"][0][3][0] += 1.0
    with pytest.raises(ValueError, match="class counts"):
        restore_model(data)


def test_a_feature_whose_squared_deviation_overflows_raises_rather_than_scoring_zero():
    # both classes' log-likelihoods reach -inf, so their difference is NaN
    rng = np.random.default_rng(3)
    labels = [i % 2 for i in range(200)]
    model = GaussianNB()
    for event in make_stream([25.0 + rng.normal(0, 1) - 5 * y for y in labels], labels):
        model.learn_one(to_features(event), int(event.label))
    assert 0.0 <= model.score_one((1e-9, 32.0, 1e-6, 1e100)) <= 1.0
    with pytest.raises(NonFiniteInput, match="log-odds"):
        model.score_one((1e-9, 32.0, 1e-6, 1e200))
