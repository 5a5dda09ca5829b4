"""Incremental Gaussian naive Bayes with a variance floor."""

from __future__ import annotations

import math
from typing import Sequence

from ..stats import sigmoid, welford_from_state
from .base import check_sample

_TWO_PI = 2.0 * math.pi


class GaussianNB:
    """Gaussian naive Bayes updated one sample at a time.

    Per class and per feature a single-pass (Welford) mean and m2 are
    maintained; ``means[cls][j]`` and ``m2s[cls][j]`` have weight
    ``counts[cls]``, and their results equal batch mean and population
    variance over the same samples. Stored variances may be zero (single
    sample); at scoring time every variance is floored to ``min_variance``.
    Posteriors are computed in the log domain.
    """

    def __init__(self, n_features: int = 4, min_variance: float = 1e-10):
        self.n_features = n_features
        self.min_variance = min_variance
        self.counts = [0.0, 0.0]
        self.means = [[0.0] * n_features, [0.0] * n_features]
        self.m2s = [[0.0] * n_features, [0.0] * n_features]

    def learn_one(self, x: Sequence[float], y: int) -> None:
        check_sample(x, self.n_features, y)
        counts = self.counts
        n = counts[y] + 1.0
        counts[y] = n
        # one Welford step per feature; the class count is its weight
        r = 1.0 / n
        means, m2s = self.means[y], self.m2s[y]
        for j, v in enumerate(x):
            delta = v - means[j]
            mean = means[j] = means[j] + r * delta
            m2s[j] += delta * (v - mean)

    def class_mean(self, y: int, feature: int) -> float:
        return self.means[y][feature]

    def class_variance(self, y: int, feature: int) -> float:
        n = self.counts[y]
        if n <= 0.0:
            return 0.0
        # guard against tiny negative values from cancellation
        return max(self.m2s[y][feature] / n, 0.0)

    def _log_joint(self, x: Sequence[float], y: int, log_prior: float) -> float:
        total = log_prior
        n = self.counts[y]
        floor = self.min_variance
        for v, mean, m2 in zip(x, self.means[y], self.m2s[y]):
            var = max(max(m2 / n, 0.0), floor)
            d = v - mean
            total += -0.5 * (math.log(_TWO_PI * var) + d * d / var)
        return total

    def score_one(self, x: Sequence[float]) -> float:
        check_sample(x, self.n_features)
        n0, n1 = self.counts
        total = n0 + n1
        if total == 0.0:
            return 0.5
        if n0 == 0.0:
            return 1.0
        if n1 == 0.0:
            return 0.0
        lj0 = self._log_joint(x, 0, math.log(n0 / total))
        lj1 = self._log_joint(x, 1, math.log(n1 / total))
        return sigmoid(lj1 - lj0)

    def to_state(self) -> dict:
        return {
            "kind": "nb",
            "n_features": self.n_features,
            "min_variance": self.min_variance,
            "counts": list(self.counts),
            "stats": [
                [[n, mean, m2] for mean, m2 in zip(means, m2s)]
                for n, means, m2s in zip(self.counts, self.means, self.m2s)
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GaussianNB":
        model = cls(n_features=state["n_features"], min_variance=state["min_variance"])
        model.counts = [float(c) for c in state["counts"]]
        model.means, model.m2s = welford_from_state(model.counts, state["stats"], "class counts")
        return model
