import numpy as np
import pytest

from driftstream.errors import OutOfRange
from driftstream.models import AdaptiveRandomForest, GaussianNB, HoeffdingTree, LogisticRegression

_MODELS = {
    "lr": LogisticRegression,
    "nb": GaussianNB,
    "ht": lambda: HoeffdingTree(grace_period=20, max_features=2, seed=3),
    "arf": lambda: AdaptiveRandomForest(n_trees=3, grace_period=20, seed=5),
}


@pytest.mark.parametrize("kind", list(_MODELS))
@pytest.mark.parametrize("method", ["score_one", "learn_one"])
@pytest.mark.parametrize("offset", [-1, 1])
def test_a_sample_of_the_wrong_length_raises_before_any_state_changes(kind, method, offset):
    model = _MODELS[kind]()
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = tuple(rng.normal(0, 1, 4).tolist())
        model.learn_one(x, int(x[0] > 0))
    before = model.to_state()
    x = tuple(rng.normal(0, 1, model.n_features + offset).tolist())
    with pytest.raises(OutOfRange) as exc:
        if method == "score_one":
            model.score_one(x)
        else:
            model.learn_one(x, 1)
    assert exc.value.field == "x" and exc.value.value == len(x)
    assert model.to_state() == before
