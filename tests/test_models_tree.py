import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.models import AdaptiveRandomForest, HoeffdingTree
from driftstream.models.snapshot import restore_model, snapshot_dict, snapshot_json
from driftstream.stats import RunningStats, entropy2


def test_unfitted_scores_half():
    assert HoeffdingTree().score_one((1.0, 2.0, 3.0, 4.0)) == 0.5


def test_no_split_before_grace_period():
    tree = HoeffdingTree(n_features=1, grace_period=50)
    rng = np.random.default_rng(0)
    for i in range(49):
        x = float(rng.uniform(-1, 1))
        tree.learn_one((x,), int(x >= 0))
    assert tree.n_splits == 0
    # the 50th sample triggers the first attempt; separable data splits there
    x = float(rng.uniform(-1, 1))
    tree.learn_one((x,), int(x >= 0))
    assert tree.n_splits == 1


def test_separable_one_feature_stream_splits_and_fits():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, 500)
    tree = HoeffdingTree(n_features=1)
    for x in xs:
        tree.learn_one((float(x),), int(x >= 0))
    assert tree.n_splits >= 1
    correct = sum((tree.score_one((float(x),)) >= 0.5) == (x >= 0) for x in xs)
    assert correct / len(xs) >= 0.95


def test_pure_class_stream_never_splits():
    rng = np.random.default_rng(1)
    tree = HoeffdingTree(n_features=2)
    for _ in range(1000):
        tree.learn_one((float(rng.normal()), float(rng.normal())), 1)
    assert tree.n_splits == 0
    assert tree.n_leaves == 1


def test_leaf_counts_equal_routed_weight():
    tree = HoeffdingTree(n_features=1, grace_period=10_000)  # no splits
    total = 0
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = int(rng.integers(1, 5))
        tree.learn_one((float(rng.normal()),), int(rng.integers(0, 2)), weight=w)
        total += w
    assert sum(tree._root.counts) == total


def test_weight_must_be_positive():
    tree = HoeffdingTree(n_features=1)
    with pytest.raises(ValueError):
        tree.learn_one((0.0,), 1, weight=0)


def test_laplace_smoothing_at_leaves():
    tree = HoeffdingTree(n_features=1, grace_period=10_000)
    for _ in range(3):
        tree.learn_one((0.0,), 1)
    assert tree.score_one((0.0,)) == pytest.approx(4.0 / 5.0)


def test_constant_feature_cannot_split():
    tree = HoeffdingTree(n_features=1)
    for i in range(500):
        tree.learn_one((1.0,), i % 2)
    assert tree.n_splits == 0


def test_subset_trees_deterministic_under_seed():
    def run(seed):
        rng = np.random.default_rng(9)
        tree = HoeffdingTree(n_features=4, max_features=2, seed=seed)
        scores = []
        for _ in range(800):
            x = tuple(rng.normal(0, 1, 4).tolist())
            y = int(x[2] > 0)
            scores.append(tree.score_one(x))
            tree.learn_one(x, y)
        return scores, tree.n_splits

    assert run(5) == run(5)
    # subsets drive how quickly structure appears (seed 0 split once,
    # seed 1 twice on this stream); either way replays are bit-stable
    assert run(0)[1] != run(1)[1]


def test_tree_only_grows():
    rng = np.random.default_rng(2)
    tree = HoeffdingTree(n_features=1)
    leaves = [tree.n_leaves]
    for i in range(2000):
        x = float(rng.uniform(-2, 2))
        tree.learn_one((x,), int(x >= 0.3))
        leaves.append(tree.n_leaves)
    assert all(b >= a for a, b in zip(leaves, leaves[1:]))


def test_scoring_is_pure():
    rng = np.random.default_rng(7)
    tree = HoeffdingTree(n_features=2)
    for _ in range(300):
        x = (float(rng.normal()), float(rng.normal()))
        tree.learn_one(x, int(x[0] > 0))
    before = snapshot_json(tree)
    for _ in range(50):
        tree.score_one((0.1, -0.2))
    assert snapshot_json(tree) == before


def test_snapshot_round_trip_mid_growth():
    rng = np.random.default_rng(12)
    tree = HoeffdingTree(n_features=4, max_features=2, seed=3)
    stream = [
        (tuple(rng.normal(0, 1, 4).tolist()), int(rng.integers(0, 2))) for _ in range(600)
    ]
    for x, y in stream[:300]:
        tree.learn_one(x, y)
    clone = restore_model(snapshot_dict(tree))
    for x, y in stream[300:]:
        assert clone.score_one(x) == tree.score_one(x)
        clone.learn_one(x, y)
        tree.learn_one(x, y)
    assert snapshot_json(clone) == snapshot_json(tree)


def test_snapshot_round_trip_keeps_an_empty_feature_subset():
    rng = np.random.default_rng(4)
    tree = HoeffdingTree(n_features=4, grace_period=20, max_features=0, seed=1)
    stream = [tuple(rng.normal(0, 1, 4).tolist()) for _ in range(400)]
    for x in stream[:200]:
        tree.learn_one(x, int(x[0] > 0))
    clone = restore_model(snapshot_dict(tree))
    assert tree._root.subset == () and clone._root.subset == ()
    for x in stream[200:]:
        assert clone.score_one(x) == tree.score_one(x)
        clone.learn_one(x, int(x[0] > 0))
        tree.learn_one(x, int(x[0] > 0))
    assert snapshot_json(clone) == snapshot_json(tree)
    assert clone.n_splits == 0  # a leaf with no features has nothing to split on


# samples (x, y, weight); the few fixed values let ranges collapse, or span less than the 1e-6 std floor
_values = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, 1.0, 0.5, 0.5 + 1e-7, 0.5 + 4e-6]))
_samples = st.lists(
    st.tuples(st.tuples(_values, _values, _values), st.integers(0, 1), st.integers(1, 12)),
    min_size=1,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(_samples)
def test_leaf_statistics_equal_running_stats_bit_for_bit(samples):
    tree = HoeffdingTree(n_features=3, grace_period=10**9)  # never attempts a split
    reference = [[RunningStats() for _ in range(3)] for _ in range(2)]
    fmin, fmax = [math.inf] * 3, [-math.inf] * 3
    for x, y, weight in samples:
        tree.learn_one(x, y, weight=weight)
        for j, v in enumerate(x):
            reference[y][j].update(v, float(weight))
            fmin[j], fmax[j] = min(fmin[j], v), max(fmax[j], v)
    leaf = tree.to_state()["root"]
    assert leaf["stats"] == [[rs.to_state() for rs in per_class] for per_class in reference]
    assert leaf["fmin"] == [v if math.isfinite(v) else None for v in fmin]
    assert leaf["fmax"] == [v if math.isfinite(v) else None for v in fmax]


@settings(max_examples=150, deadline=None)
@given(_samples, st.integers(0, 2**32 - 1))
def test_subset_leaf_observes_only_its_features(samples, seed):
    tree = HoeffdingTree(n_features=3, grace_period=10**9, max_features=2, seed=seed)
    subset = tree._root.subset
    reference = [[RunningStats() for _ in range(3)] for _ in range(2)]
    fmin, fmax = [math.inf] * 3, [-math.inf] * 3
    for x, y, weight in samples:
        tree.learn_one(x, y, weight=weight)
        for j in subset:
            reference[y][j].update(x[j], float(weight))
            fmin[j], fmax[j] = min(fmin[j], x[j]), max(fmax[j], x[j])
    leaf = tree.to_state()["root"]
    assert len(subset) == 2 and leaf["subset"] == list(subset)
    for cls in (0, 1):
        for j in range(3):
            if j in subset:
                assert leaf["stats"][cls][j] == reference[cls][j].to_state()
            else:
                assert leaf["stats"][cls][j] == [leaf["counts"][cls], 0.0, 0.0]
    assert leaf["fmin"] == [v if math.isfinite(v) else None for v in fmin]
    assert leaf["fmax"] == [v if math.isfinite(v) else None for v in fmax]


def gaussian_cdf(x: float, mean: float, std: float) -> float:
    if std <= 0.0:
        return 1.0 if mean <= x else 0.0
    return 0.5 * (1.0 + math.erf((x - mean) / (std * math.sqrt(2.0))))


def test_gaussian_cdf_degenerate_std_is_step():
    assert gaussian_cdf(1.0, mean=0.5, std=0.0) == 1.0
    assert gaussian_cdf(0.0, mean=0.5, std=0.0) == 0.0


def per_threshold_merits(leaf: dict, feature: int, n_candidates: int):
    """Best (gain, threshold) from a leaf's state, each class's CDF rebuilt at every threshold."""
    lo, hi = leaf["fmin"][feature], leaf["fmax"][feature]
    if lo is None or not (hi > lo):
        return None
    c0, c1 = leaf["counts"]
    total = c0 + c1
    h_parent = entropy2(c0, c1)
    best_gain, best_threshold = -1.0, lo
    step = (hi - lo) / (n_candidates + 1)
    for k in range(1, n_candidates + 1):
        t = lo + step * k
        left = [0.0, 0.0]
        for cls in (0, 1):
            n_cls = leaf["counts"][cls]
            if n_cls <= 0.0:
                continue
            rs = RunningStats.from_state(leaf["stats"][cls][feature])
            left[cls] = n_cls * gaussian_cdf(t, rs.mean, math.sqrt(max(rs.variance, 1e-12)))
        wl = left[0] + left[1]
        wr = total - wl
        if wl <= 0.0 or wr <= 0.0:
            continue
        gain = h_parent - (
            (wl / total) * entropy2(left[0], left[1]) + (wr / total) * entropy2(c0 - left[0], c1 - left[1])
        )
        if gain > best_gain:
            best_gain, best_threshold = gain, t
    return None if best_gain < 0.0 else (best_gain, best_threshold)


@settings(max_examples=150, deadline=None)
@given(_samples, st.integers(1, 12))
def test_candidate_merits_equal_the_per_threshold_formula(samples, n_candidates):
    tree = HoeffdingTree(n_features=3, grace_period=10**9, n_split_candidates=n_candidates)
    for x, y, weight in samples + [((0.5, 0.5, 0.5), 0, 1), ((0.5, 0.5, 0.5), 1, 1)]:  # both classes
        tree.learn_one(x, y, weight=weight)
    leaf = tree.to_state()["root"]
    for feature in range(3):
        expected = per_threshold_merits(leaf, feature, n_candidates)
        assert tree._candidate_merits(tree._root, feature) == expected


def _first_leaf(node: dict) -> dict:
    while "split" in node:
        node = node["left"]
    return node


def test_restore_rejects_leaf_stats_whose_weight_differs_from_the_class_count():
    rng = np.random.default_rng(5)
    forest = AdaptiveRandomForest(seed=1)
    for _ in range(400):
        x = tuple(rng.normal(0, 1, 4).tolist())
        forest.learn_one(x, int(x[0] > 0))
    data = snapshot_dict(forest)
    restore_model(data)  # the untouched snapshot restores
    leaf = _first_leaf(data["state"]["trees"][3]["root"])
    leaf["stats"][1][2][0] += 1.0
    with pytest.raises(ValueError, match="class counts"):
        restore_model(data)
