import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.config import ExperimentConfig, config_from_dict, load_config, named_seed
from driftstream.errors import ConfigError
from driftstream.models.snapshot import restore_model, snapshot_json
from driftstream.streams import SynthConfig, generate_synthetic
from driftstream.telemetry import to_features


def test_defaults_match_published_hyperparameters():
    cfg = ExperimentConfig()
    assert cfg.lr.learning_rate == 0.01
    assert cfg.nb.min_variance == 1e-10
    assert cfg.arf.n_trees == 10
    assert cfg.arf.max_features == 2
    assert cfg.arf.grace_period == 50
    assert cfg.window == 500
    assert cfg.bench.trials == 100


def test_default_config_validates():
    ExperimentConfig().validate()


def test_unknown_model_name_names_the_field():
    cfg = ExperimentConfig()
    cfg.models = ["svm"]
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert exc.value.field == "models"
    assert "svm" in str(exc.value)


def test_named_seed_is_stable_and_distinct():
    a = named_seed(7, "generator")
    b = named_seed(7, "generator")
    c = named_seed(7, "oversample")
    d = named_seed(8, "generator")
    assert np.random.default_rng(a).integers(1 << 62) == np.random.default_rng(b).integers(1 << 62)
    assert np.random.default_rng(a).integers(1 << 62) != np.random.default_rng(c).integers(1 << 62)
    assert np.random.default_rng(a).integers(1 << 62) != np.random.default_rng(d).integers(1 << 62)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "seed": 99,
                "models": ["lr"],
                "window": 120,
                "stream": {"mode": "synth", "synth": {"n_sfd": 500, "n_hfd": 200, "sfd_episodes": 1, "hfd_episodes": 1}},
                "oversample": {"target_failure_ratio": 0.4},
                "arf": {"n_trees": 4},
            }
        )
    )
    cfg = load_config(str(path))
    cfg.validate()
    assert cfg.seed == 99
    assert cfg.models == ["lr"]
    assert cfg.window == 120
    assert cfg.stream.synth.n_sfd == 500
    assert cfg.oversample.target_failure_ratio == 0.4
    assert cfg.arf.n_trees == 4
    # untouched keys keep their defaults
    assert cfg.arf.max_features == 2


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"learning_rate": 0.5})
    assert exc.value.field == "learning_rate"
    with pytest.raises(ConfigError):
        config_from_dict({"arf": {"bogus": 1}})


def test_build_model_kinds():
    cfg = ExperimentConfig()
    from driftstream.models import AdaptiveRandomForest, GaussianNB, LogisticRegression

    assert isinstance(cfg.build_model("lr"), LogisticRegression)
    assert isinstance(cfg.build_model("nb"), GaussianNB)
    forest = cfg.build_model("arf")
    assert isinstance(forest, AdaptiveRandomForest)
    assert forest.n_trees == 10 and forest.max_features == 2


def test_identically_seeded_models_start_identical():
    cfg = ExperimentConfig()
    a, b = cfg.build_model("arf"), cfg.build_model("arf")
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = tuple(rng.normal(0, 1, 4).tolist())
        y = int(x[0] > 0)
        assert a.score_one(x) == b.score_one(x)
        a.learn_one(x, y)
        b.learn_one(x, y)


def test_models_satisfy_online_classifier_contract():
    from driftstream.models import HoeffdingTree, OnlineClassifier

    cfg = ExperimentConfig()
    for model in [cfg.build_model(name) for name in ("lr", "nb", "arf")] + [HoeffdingTree()]:
        assert isinstance(model, OnlineClassifier)
        assert model.score_one((1e-6, 32.0, 1e-4, 20.0)) == 0.5  # unfitted


def test_config_built_forest_snapshot_round_trip():
    from driftstream.models.snapshot import restore_model, snapshot_dict, snapshot_json

    cfg = ExperimentConfig()
    forest = cfg.build_model("arf")
    rng = np.random.default_rng(1)
    for _ in range(400):
        x = tuple(rng.normal(0, 1, 4).tolist())
        forest.learn_one(x, int(x[1] > 0))
    clone = restore_model(snapshot_dict(forest))
    assert snapshot_json(clone) == snapshot_json(forest)
    for _ in range(100):
        x = tuple(rng.normal(0, 1, 4).tolist())
        assert clone.score_one(x) == forest.score_one(x)
        clone.learn_one(x, int(x[1] > 0))
        forest.learn_one(x, int(x[1] > 0))


_DRIFTING = [
    (to_features(e), int(e.label))
    for e in generate_synthetic(SynthConfig(n_sfd=1500, n_hfd=800, sfd_episodes=2, hfd_episodes=2), seed=3)
]


def _stream_through(model, events, scores):
    for x, y in events:
        scores.append(model.score_one(x))
        model.learn_one(x, y)
    return model


@functools.cache
def _uninterrupted(name):
    scores = []
    model = _stream_through(ExperimentConfig().build_model(name), _DRIFTING, scores)
    return scores, snapshot_json(model)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("lr", "nb", "arf")), st.integers(0, len(_DRIFTING)))
def test_mid_stream_snapshot_restore_continues_like_the_uninterrupted_run(name, cut):
    scores = []
    model = _stream_through(ExperimentConfig().build_model(name), _DRIFTING[:cut], scores)
    restored = restore_model(json.loads(snapshot_json(model)))
    _stream_through(restored, _DRIFTING[cut:], scores)
    assert (scores, snapshot_json(restored)) == _uninterrupted(name)
