import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.errors import NonFiniteInput
from driftstream.stats import RunningStats, entropy2, sigmoid

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_running_stats_match_batch(values):
    rs = RunningStats()
    for v in values:
        rs.update(v)
    arr = np.array(values)
    scale = max(abs(float(arr.mean())), 1.0)
    assert abs(rs.mean - float(arr.mean())) <= 1e-9 * scale
    vscale = max(float(arr.var()), 1.0)
    assert abs(rs.variance - float(arr.var())) <= 1e-9 * vscale


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=50), st.randoms())
def test_running_stats_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    a, b = RunningStats(), RunningStats()
    for v in values:
        a.update(v)
    for v in shuffled:
        b.update(v)
    scale = max(abs(a.mean), abs(a.variance), 1.0)
    assert abs(a.mean - b.mean) <= 1e-9 * scale
    assert abs(a.variance - b.variance) <= 1e-9 * scale


def test_weighted_update_counts_multiplicity():
    a, b = RunningStats(), RunningStats()
    for v, w in ((2.0, 3), (5.0, 2)):
        a.update(v, w)
        for _ in range(w):
            b.update(v)
    assert a.n == b.n == 5
    assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
    assert math.isclose(a.variance, b.variance, rel_tol=1e-12)


def test_sigmoid_endpoints_and_symmetry():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0
    assert math.isclose(sigmoid(2.0) + sigmoid(-2.0), 1.0, rel_tol=1e-15)


def test_sigmoid_of_nan_raises_and_infinities_saturate():
    with pytest.raises(NonFiniteInput, match="log-odds"):
        sigmoid(math.nan)
    assert sigmoid(math.inf) == 1.0
    assert sigmoid(-math.inf) == 0.0


def test_entropy_bounds():
    assert entropy2(0.0, 5.0) == 0.0
    assert entropy2(5.0, 0.0) == 0.0
    assert math.isclose(entropy2(5.0, 5.0), 1.0, rel_tol=1e-12)
    # extreme imbalance must not raise even when one share underflows
    assert entropy2(1e300, 1e-300) == 0.0
