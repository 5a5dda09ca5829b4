"""Online logistic regression trained by plain SGD on binary log loss."""

from __future__ import annotations

import math
from typing import Sequence

from ..stats import sigmoid, welford_from_state
from .base import check_sample


class LogisticRegression:
    """Logistic regression updated one sample at a time.

    Features are standardized with running per-feature mean/variance because
    the raw BER and OSNR scales differ by many orders of magnitude, which
    would cripple SGD at a fixed small learning rate. The standardizer keeps
    a Welford mean and m2 per feature in ``means``/``m2s``, all of weight
    ``scale_n``, and is updated with the incoming sample before each gradient
    step. Set ``standardize=False`` to train on raw features.
    """

    def __init__(self, n_features: int = 4, learning_rate: float = 0.01, standardize: bool = True):
        self.n_features = n_features
        self.learning_rate = learning_rate
        self.standardize = standardize
        self.weights = [0.0] * n_features
        self.bias = 0.0
        self.n_seen = 0
        self.scale_n = 0.0
        self.means = [0.0] * n_features
        self.m2s = [0.0] * n_features

    def score_one(self, x: Sequence[float]) -> float:
        check_sample(x, self.n_features)
        z = self.bias
        n = self.scale_n
        if self.standardize and n != 0.0:
            for w, v, mean, m2 in zip(self.weights, x, self.means, self.m2s):
                sd = math.sqrt(max(m2 / n, 0.0))
                z += w * ((v - mean) / sd if sd > 0.0 else v - mean)
        else:
            for w, v in zip(self.weights, x):
                z += w * v
        return sigmoid(z)

    def learn_one(self, x: Sequence[float], y: int) -> None:
        check_sample(x, self.n_features, y)
        weights = self.weights
        if self.standardize:
            n = self.scale_n + 1.0
            self.scale_n = n
            # one Welford step per feature, then the feature scaled by the updated statistics
            r = 1.0 / n
            means, m2s = self.means, self.m2s
            xt = []
            for j, v in enumerate(x):
                delta = v - means[j]
                mean = means[j] = means[j] + r * delta
                m2 = m2s[j] = m2s[j] + delta * (v - mean)
                sd = math.sqrt(max(m2 / n, 0.0))
                xt.append((v - mean) / sd if sd > 0.0 else v - mean)
        else:
            xt = x
        z = self.bias
        for w, v in zip(weights, xt):
            z += w * v
        step = self.learning_rate * (sigmoid(z) - y)
        for j, v in enumerate(xt):
            weights[j] -= step * v
        self.bias -= step
        self.n_seen += 1

    def to_state(self) -> dict:
        return {
            "kind": "lr",
            "n_features": self.n_features,
            "learning_rate": self.learning_rate,
            "standardize": self.standardize,
            "weights": list(self.weights),
            "bias": self.bias,
            "n_seen": self.n_seen,
            "scaler": [[self.scale_n, mean, m2] for mean, m2 in zip(self.means, self.m2s)],
        }

    @classmethod
    def from_state(cls, state: dict) -> "LogisticRegression":
        model = cls(
            n_features=state["n_features"],
            learning_rate=state["learning_rate"],
            standardize=state["standardize"],
        )
        model.weights = [float(w) for w in state["weights"]]
        model.bias = float(state["bias"])
        model.n_seen = int(state["n_seen"])
        scaler = state["scaler"]
        model.scale_n = float(scaler[0][0]) if scaler else 0.0
        (model.means,), (model.m2s,) = welford_from_state([model.scale_n], [scaler], "scaler count")
        return model
