import hashlib

import numpy as np

from driftstream.models import AdaptiveRandomForest, HoeffdingTree
from driftstream.models.snapshot import restore_model, snapshot_dict, snapshot_json


def random_stream(n, seed, concept=lambda x: x[0] > 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    return [(tuple(X[i].tolist()), int(concept(X[i]))) for i in range(n)]


def test_unfitted_scores_half():
    assert AdaptiveRandomForest(seed=0).score_one((1.0, 2.0, 3.0, 4.0)) == 0.5


def test_score_is_average_of_member_probabilities():
    class Stub:
        def __init__(self, p):
            self.p = p

        def _route(self, x):
            return self, None, ""

        def probability(self):
            return self.p

    forest = AdaptiveRandomForest(n_trees=10, seed=0)
    forest.trees = [Stub(0.0)] * 5 + [Stub(1.0)] * 5
    assert forest.score_one((0.0, 0.0, 0.0, 0.0)) == 0.5
    forest.trees = [Stub(1.0)] * 10
    assert forest.score_one((0.0, 0.0, 0.0, 0.0)) == 1.0


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
    # taken before the forest learned in one routing pass per tree
    forest = AdaptiveRandomForest(seed=7)
    for i, (x, y) in enumerate(random_stream(4000, 5)):
        forest.learn_one(x, 1 - y if i >= 2000 else y)
    assert (forest.n_warnings, forest.n_replacements) == (7, 4)
    digest = hashlib.sha256(snapshot_json(forest).encode()).hexdigest()
    assert digest == "09ee995f5fe47579f07e93b0db4514a20a3c40bf370744785a581fa9264aa616"


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
