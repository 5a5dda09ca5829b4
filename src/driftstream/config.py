"""Experiment configuration: defaults, JSON config files, seed discipline.

All randomness flows from one root seed. Every stochastic component asks for
a named sub-seed derived from (root seed, component label), so enabling or
reconfiguring one component never perturbs another component's draws.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .drift import Direction
from .errors import ConfigError, check_fields, shortened
from .models import AdaptiveRandomForest, GaussianNB, LogisticRegression
from .streams import OversampleConfig, StreamConfig
from .telemetry import N_FEATURES, OSNR_RX_INDEX

VALID_MODELS = ("lr", "nb", "arf")
VALID_FORMATS = ("csv", "json")
VALID_DIRECTIONS = tuple(d.value for d in Direction)


def named_seed(root_seed: int, label: str) -> np.random.SeedSequence:
    """Deterministic, platform-independent sub-seed for a named component."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    spawn_key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.SeedSequence(entropy=root_seed, spawn_key=spawn_key)


@dataclass
class PhtParams:
    delta: float = 0.005
    threshold: float = 50.0
    min_instances: int = 30
    direction: str = Direction.TWO_SIDED.value
    feature_index: int = OSNR_RX_INDEX


@dataclass
class LrParams:
    learning_rate: float = 0.01
    standardize: bool = True


@dataclass
class NbParams:
    min_variance: float = 1e-10


@dataclass
class ArfParams:
    n_trees: int = 10
    max_features: int = 2
    lambda_bag: float = 6.0
    grace_period: int = 50
    split_confidence: float = 1e-7
    tie_threshold: float = 0.05
    n_split_candidates: int = 10
    min_split_gain: float = 1e-3
    warn_threshold: float = 20.0
    drift_threshold: float = 50.0


@dataclass
class BenchParams:
    trials: int = 100
    events_per_trial: int = 1000
    warmup_trials: int = 1


@dataclass
class ExperimentConfig:
    seed: int = 7
    models: list[str] = field(default_factory=lambda: list(VALID_MODELS))
    window: int = 500
    epochs: int = 1
    out_dir: str = "out"
    format: str = "csv"
    stream: StreamConfig = field(default_factory=StreamConfig)
    oversample: Optional[OversampleConfig] = None
    pht: PhtParams = field(default_factory=PhtParams)
    lr: LrParams = field(default_factory=LrParams)
    nb: NbParams = field(default_factory=NbParams)
    arf: ArfParams = field(default_factory=ArfParams)
    bench: BenchParams = field(default_factory=BenchParams)

    def validate(self) -> None:
        """Raise ConfigError naming the dotted field of the first value that breaks a rule."""
        pht, arf, bench = self.pht, self.arf, self.bench
        check_fields("", [
            ("models", bool(self.models), "select at least one model"),
            *(("models", name in VALID_MODELS, f"unknown model name {shortened(name)}; valid: {VALID_MODELS}")
              for name in self.models),
            ("models", len(set(self.models)) == len(self.models), "each model may be named only once"),
            ("window", 2 <= self.window <= sys.maxsize, "must be in [2, sys.maxsize]"),
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("format", self.format in VALID_FORMATS, f"must be one of {VALID_FORMATS}"),
            ("out_dir", self.out_dir != "", "must not be empty"),
            ("out_dir", "\0" not in self.out_dir, "must not contain a NUL character"),
            ("seed", 0 <= self.seed <= 2**64 - 1, "must fit into an unsigned 64-bit integer"),
            ("bench.trials", bench.trials >= 1, "must be >= 1"),
            ("bench.events_per_trial", bench.events_per_trial >= 1, "must be >= 1"),
            ("bench.warmup_trials", bench.warmup_trials >= 0, "must be >= 0"),
            ("pht.feature_index", 0 <= pht.feature_index < N_FEATURES, f"must be in [0, {N_FEATURES})"),
            ("pht.direction", pht.direction in VALID_DIRECTIONS, f"unknown direction {shortened(pht.direction)}"),
            ("pht.delta", pht.delta >= 0.0, "must be >= 0"),
            ("pht.threshold", pht.threshold > 0.0, "must be > 0"),
            ("pht.min_instances", pht.min_instances >= 0, "must be >= 0"),
            ("lr.learning_rate", self.lr.learning_rate > 0.0, "must be > 0"),
            ("nb.min_variance", self.nb.min_variance > 0.0, "must be > 0"),
            # the forest spawns n_trees + 1 seed sequences, a count numpy takes as a C ssize_t
            ("arf.n_trees", 1 <= arf.n_trees <= sys.maxsize - 1, "must be in [1, sys.maxsize - 1]"),
            ("arf.max_features", arf.max_features >= 1, "must be >= 1"),
            # numpy's Poisson sampler rejects rates above about 9.2e18
            ("arf.lambda_bag", 0.0 <= arf.lambda_bag <= 1e18, "must be in [0, 1e18]"),
            ("arf.grace_period", arf.grace_period >= 1, "must be >= 1"),
            ("arf.split_confidence", 0.0 < arf.split_confidence < 1.0, "must be in (0, 1)"),
            ("arf.n_split_candidates", arf.n_split_candidates >= 1, "must be >= 1"),
            ("arf.warn_threshold", arf.warn_threshold > 0.0, "must be > 0"),
            ("arf.drift_threshold", arf.drift_threshold > 0.0, "must be > 0"),
        ])
        self.stream.validate()
        if self.oversample is not None:
            self.oversample.validate()

    def build_model(self, name: str):
        """Fresh, unfitted model with this config's hyperparameters.

        Seeded from the named sub-seed for the model, so separately built
        instances of the same kind start bit-identical.
        """
        if name == "lr":
            return LogisticRegression(n_features=N_FEATURES, **asdict(self.lr))
        if name == "nb":
            return GaussianNB(n_features=N_FEATURES, **asdict(self.nb))
        if name == "arf":
            return AdaptiveRandomForest(
                n_features=N_FEATURES, **asdict(self.arf), seed=named_seed(self.seed, f"model:{name}")
            )
        raise ConfigError("models", f"unknown model name {shortened(name)}")

    def to_dict(self) -> dict:
        return asdict(self)


def _has_type(value, tp) -> bool:
    """Whether the JSON ``value`` fits the resolved field type ``tp``.

    An int fits a float if its size is at most 2**53, so that it converts
    exactly (a larger one would reach numpy as an object); JSON's ``NaN`` and
    infinities fit no field.
    """
    if get_origin(tp) is Union:
        return any(_has_type(value, arg) for arg in get_args(tp))
    if get_origin(tp) is list:
        (item,) = get_args(tp)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if get_origin(tp) is dict:
        key, item = get_args(tp)
        return isinstance(value, dict) and all(_has_type(k, key) and _has_type(v, item) for k, v in value.items())
    if isinstance(value, bool):
        return tp is bool
    if tp is float and isinstance(value, int):
        return abs(value) <= 2**53
    if tp is float:
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, tp)


@cache
def _field_types(cls) -> dict:
    """Field name -> resolved type of a config dataclass (annotations are strings here)."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _type_name(tp) -> str:
    return tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")


def _apply_section(target, data, section: str) -> None:
    """Set ``data``'s keys on the dataclass ``target``, descending into nested sections."""
    if not isinstance(data, dict):
        raise ConfigError(section or "config", "must be a JSON object")
    types = _field_types(type(target))
    for key, value in data.items():
        name = f"{section}.{key}" if section else key
        if key not in types:
            raise ConfigError(name, "unknown config key")
        if key == "oversample" and value is not None:
            target.oversample = OversampleConfig()
        current = getattr(target, key)
        if is_dataclass(current):
            _apply_section(current, value, name)
        elif _has_type(value, types[key]):
            setattr(target, key, value)
        else:
            raise ConfigError(name, f"must be of type {_type_name(types[key])}, got {shortened(value)}")


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    _apply_section(cfg, data, "")
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, where a repeated key is an error rather than its last value winning."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError("config", f"key {shortened(key)} appears twice in one object")
        data[key] = value
    return data


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as err:  # a ValueError, as are bad syntax and an integer past the digit limit
            raise ConfigError("config", f"not UTF-8 text: {err}") from err
        except (ValueError, RecursionError) as err:  # RecursionError: too deep a nesting
            raise ConfigError("config", f"not valid JSON: {err}") from err
    return config_from_dict(data)
