import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.errors import DriftStreamError, SnapshotError
from driftstream.models import AdaptiveRandomForest, HoeffdingTree
from driftstream.models import forest as forest_module
from driftstream.models.snapshot import restore_model, snapshot_dict, snapshot_json
from driftstream.models.tree import _Leaf, _SplitNode


def random_stream(n, seed, concept=lambda x: x[0] > 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    return [(tuple(X[i].tolist()), int(concept(X[i]))) for i in range(n)]


def test_unfitted_scores_half():
    assert AdaptiveRandomForest(seed=0).score_one((1.0, 2.0, 3.0, 4.0)) == 0.5


def test_score_is_average_of_member_probabilities():
    forest = AdaptiveRandomForest(n_trees=4, seed=0)
    # one split root and three single leaves, each leaf with set class counts
    forest.trees[0]._root = _SplitNode(0, 0.5, _Leaf(4, (0, 1)), _Leaf(4, (0, 1)))
    leaves = [forest.trees[0]._root.left, forest.trees[0]._root.right] + [t._root for t in forest.trees[1:]]
    for leaf, counts in zip(leaves, ([3.0, 1.0], [0.0, 8.0], [5.0, 5.0], [1.0, 0.0], [0.0, 2.0])):
        leaf.counts = counts
    left, right = (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)
    member = [tree.score_one(left) for tree in forest.trees]
    assert member == [2 / 6, 6 / 12, 1 / 3, 3 / 4]
    assert forest.score_one(left) == pytest.approx(sum(member) / 4, rel=1e-15)
    member = [tree.score_one(right) for tree in forest.trees]
    assert member == [9 / 10, 6 / 12, 1 / 3, 3 / 4]
    assert forest.score_one(right) == pytest.approx(sum(member) / 4, rel=1e-15)


def test_seeded_forest_reproducible():
    def run(seed):
        forest = AdaptiveRandomForest(seed=seed)
        scores = []
        for x, y in random_stream(1500, 4):
            scores.append(forest.score_one(x))
            forest.learn_one(x, y)
        return scores

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_poisson_bagging_rate():
    draws = np.random.default_rng(100).poisson(6.0, size=100_000)
    assert 5.9 <= draws.mean() <= 6.1


def test_label_flip_triggers_tree_replacement():
    forest = AdaptiveRandomForest(seed=2)
    n = 6000
    stream = random_stream(n, 5)
    for i, (x, y) in enumerate(stream):
        if i >= n // 2:
            y = 1 - y
        forest.learn_one(x, y)
        if i == n // 2 - 1:
            at_flip = forest.n_replacements
        if i == n // 2 - 1 + 2000:
            break
    assert forest.n_replacements - at_flip >= 1


def test_forest_state_after_label_flip_matches_golden_hash():
    # pins every snapshot byte, including the initial values in leaves' non-subset entries
    forest = AdaptiveRandomForest(seed=7)
    for i, (x, y) in enumerate(random_stream(4000, 5)):
        forest.learn_one(x, 1 - y if i >= 2000 else y)
    assert (forest.n_warnings, forest.n_replacements) == (7, 4)
    digest = hashlib.sha256(snapshot_json(forest).encode()).hexdigest()
    assert digest == "b066fbc90c80a5eee975be3d8bc1ff6c65df3c2eb5463b4d4fa5a2ffa73bfd0f"


def test_single_tree_reduction_equals_plain_tree():
    forest = AdaptiveRandomForest(
        n_trees=1, max_features=4, bagging=False, drift_detection=False, seed=1
    )
    tree = HoeffdingTree()
    for x, y in random_stream(3000, 6, concept=lambda v: v[0] + 0.5 * v[2] > 0):
        assert forest.score_one(x) == tree.score_one(x)
        forest.learn_one(x, y)
        tree.learn_one(x, y)


def test_ensemble_size_constant():
    forest = AdaptiveRandomForest(n_trees=7, seed=3)
    stream = random_stream(3000, 7)
    for i, (x, y) in enumerate(stream):
        if i >= 1500:
            y = 1 - y
        forest.learn_one(x, y)
    assert len(forest.trees) == 7


def test_forest_learns_simple_concept():
    forest = AdaptiveRandomForest(seed=9)
    stream = random_stream(3000, 8)
    for x, y in stream:
        forest.learn_one(x, y)
    correct = sum((forest.score_one(x) >= 0.5) == bool(y) for x, y in stream[-500:])
    assert correct / 500 >= 0.9


def test_scoring_is_pure():
    forest = AdaptiveRandomForest(seed=4)
    for x, y in random_stream(400, 9):
        forest.learn_one(x, y)
    before = snapshot_json(forest)
    for _ in range(20):
        forest.score_one((0.3, -0.1, 0.5, 0.0))
    assert snapshot_json(forest) == before


def test_snapshot_round_trip_preserves_future_behavior():
    forest = AdaptiveRandomForest(n_trees=3, seed=21)
    stream = random_stream(1200, 10)
    for x, y in stream[:600]:
        forest.learn_one(x, y)
    clone = restore_model(snapshot_dict(forest))
    for x, y in stream[600:]:
        assert clone.score_one(x) == forest.score_one(x)
        clone.learn_one(x, y)
        forest.learn_one(x, y)
    assert snapshot_json(clone) == snapshot_json(forest)


def test_score_within_unit_interval():
    forest = AdaptiveRandomForest(seed=15)
    for x, y in random_stream(1000, 11):
        s = forest.score_one(x)
        assert 0.0 <= s <= 1.0
        forest.learn_one(x, y)


def test_restored_forest_continues_bit_for_bit_from_either_leaf_layout():
    forest = AdaptiveRandomForest(n_trees=4, seed=31)
    stream = random_stream(3000, 12)
    for i, (x, y) in enumerate(stream[:1500]):
        forest.learn_one(x, 1 - y if i >= 1000 else y)
    data = snapshot_dict(forest)
    # snapshots written before leaves observed only their subset hold values in the other entries
    old_layout = json.loads(json.dumps(data))
    for tree in old_layout["state"]["trees"] + [t for t in old_layout["state"]["background"] if t]:
        for leaf in _leaves(tree["root"]):
            for j in set(range(4)) - set(leaf["subset"]):
                leaf["fmin"][j], leaf["fmax"][j] = -0.75, 0.75
                for per_class in leaf["stats"]:
                    per_class[j][1:] = [0.25, 3.5]
    clones = [restore_model(data), restore_model(old_layout)]
    for i, (x, y) in enumerate(stream[1500:]):
        y = 1 - y if i < 500 else y
        expected = forest.score_one(x)
        assert [clone.score_one(x) for clone in clones] == [expected, expected]
        for model in (forest, *clones):
            model.learn_one(x, y)
    assert snapshot_json(clones[0]) == snapshot_json(forest)
    assert (clones[1].n_warnings, clones[1].n_replacements) == (forest.n_warnings, forest.n_replacements)


def _leaves(node):
    if "split" in node:
        return _leaves(node["left"]) + _leaves(node["right"])
    return [node]


def test_a_snapshot_from_before_per_slot_seeds_is_a_snapshot_error():
    data = snapshot_dict(AdaptiveRandomForest(n_trees=2, seed=3))
    state = data["state"]
    state["seed_sequence"] = state.pop("slot_seeds")[0]  # the one shared sequence of the old layout
    with pytest.raises(SnapshotError, match="slot_seeds") as exc:
        restore_model(data)
    assert exc.value.field == "slot_seeds"
    assert isinstance(exc.value, DriftStreamError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "field, value, message",
    [("format", "other", "not a driftstream-model snapshot"), ("version", 0, "unsupported snapshot version: 0"),
     ("kind", "svm", "unknown model kind: svm")],
)
def test_restore_rejects_a_foreign_snapshot_with_a_snapshot_error(field, value, message):
    data = {**snapshot_dict(AdaptiveRandomForest(n_trees=1, seed=0)), field: value}
    with pytest.raises(SnapshotError, match=message) as exc:
        restore_model(data)
    assert exc.value.field == field


def slot_state(forest, i):
    """Everything slot ``i`` of a snapshot holds: tree, background tree, both detectors, seed sequence."""
    state = forest.to_state()
    return [state[key][i] for key in ("trees", "background", "warn", "drift", "slot_seeds")]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 4),
    n=st.integers(300, 700),
    flip=st.floats(0.3, 0.7),
)
def test_each_slot_learns_alone_as_it_learns_in_the_whole_forest(seed, n_trees, n, flip):
    # the label flip drives the detectors to warnings and replacements
    stream = [(x, 1 - y if i >= flip * n else y) for i, (x, y) in enumerate(random_stream(n, seed % 1000))]
    whole = AdaptiveRandomForest(n_trees=n_trees, seed=seed)
    shares = []
    for i in range(n_trees):
        shares.append(AdaptiveRandomForest(n_trees=n_trees, seed=seed))
        shares[-1].learning = range(i, i + 1)
    for x, y in stream:
        for forest in (whole, *shares):
            forest.learn_one(x, y)
    for i, share in enumerate(shares):
        assert slot_state(share, i) == slot_state(whole, i)
    assert sum(share.n_warnings for share in shares) == whole.n_warnings
    assert sum(share.n_replacements for share in shares) == whole.n_replacements
    # joined in any grouping, the shares are the whole forest
    joined = shares[0]
    for share in shares[1:]:
        joined.join(share)
    assert snapshot_json(joined) == snapshot_json(whole)
    assert [joined.score_one(x) for x, _ in stream[:50]] == [whole.score_one(x) for x, _ in stream[:50]]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 5),
    slots=st.tuples(st.integers(0, 4), st.integers(1, 5)),
    bagging=st.booleans(),
    drift_detection=st.booleans(),
    max_features=st.sampled_from([2, None]),
    block=st.sampled_from([1, 3, 7, forest_module.BLOCK]),
    n=st.integers(150, 500),
    bad=st.one_of(st.none(), st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(["nan", "inf", "label"]))),
)
def test_the_block_pass_scores_and_learns_as_score_one_then_learn_one(
    seed, n_trees, slots, bagging, drift_detection, max_features, block, n, bad
):
    # the label flip and low thresholds drive the detectors to warnings and replacements
    stream = [(x, 1 - y if i >= n // 2 else y) for i, (x, y) in enumerate(random_stream(n, seed % 1000))]
    if bad is not None:  # one bad sample, at a drawn position
        at, kind = int(bad[0] * n), bad[1]
        x, y = stream[at]
        stream[at] = ((x[0], math.nan if kind == "nan" else math.inf, *x[2:]), y) if kind != "label" else (x, 2)
    lo = min(slots[0], n_trees - 1)
    hi = max(lo + 1, min(slots[1], n_trees))
    forests = []
    for _ in range(2):
        forests.append(AdaptiveRandomForest(
            n_trees=n_trees, max_features=max_features, bagging=bagging, drift_detection=drift_detection,
            warn_threshold=3.0, drift_threshold=6.0, seed=seed,
        ))
        forests[-1].learning = range(lo, hi)
    one, many = forests
    expected, error = [], None
    try:
        for x, y in stream:
            score = one.score_one(x)
            one.learn_one(x, y)
            expected.append(score)
    except DriftStreamError as err:
        error = err
    scores = []
    with mock.patch.object(forest_module, "BLOCK", block):
        if error is None:
            many.learn_many([x for x, _ in stream], [y for _, y in stream], scores)
        else:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                many.learn_many((x for x, _ in stream), (y for _, y in stream), scores)
    assert scores == expected
    assert snapshot_json(many) == snapshot_json(one)
