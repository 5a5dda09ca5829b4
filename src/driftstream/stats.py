"""Scalar numeric helpers used by the incremental learners.

Kept free of numpy on purpose: these run per event inside tight loops where
scalar math is faster than array dispatch.
"""

from __future__ import annotations

import math

from .errors import NonFiniteInput


class RunningStats:
    """Single-pass mean/variance accumulator (Welford, weight-aware).

    Variance is the population variance (second central moment over the total
    weight), matching what a batch computation over the same samples returns.
    """

    __slots__ = ("n", "mean", "_m2")

    def __init__(self):
        self.n = 0.0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, x: float, weight: float = 1.0) -> None:
        self.n += weight
        delta = x - self.mean
        self.mean += (weight / self.n) * delta
        self._m2 += weight * delta * (x - self.mean)

    @property
    def variance(self) -> float:
        if self.n <= 0.0:
            return 0.0
        # guard against tiny negative values from cancellation
        return max(self._m2 / self.n, 0.0)

    def to_state(self) -> list[float]:
        return [self.n, self.mean, self._m2]

    @classmethod
    def from_state(cls, state: list[float]) -> "RunningStats":
        rs = cls()
        rs.n, rs.mean, rs._m2 = float(state[0]), float(state[1]), float(state[2])
        return rs


def sigmoid(z: float) -> float:
    """Numerically stable logistic function; a NaN log-odds raises NonFiniteInput."""
    if z >= 0.0:
        ez = math.exp(-z) if z < 745.0 else 0.0
        return 1.0 / (1.0 + ez)
    if z < 0.0:
        ez = math.exp(z) if z > -745.0 else 0.0
        return ez / (1.0 + ez)
    raise NonFiniteInput("log-odds")


def welford_from_state(counts, stats, count_name: str) -> tuple[list[list[float]], list[list[float]]]:
    """Flat means and m2s per count from ``RunningStats`` state triples.

    Every triple in ``stats[i]`` must have ``counts[i]`` as its weight, else ``ValueError``.
    """
    means, m2s = [], []
    for n, triples in zip(counts, stats):
        if any(float(t[0]) != n for t in triples):
            raise ValueError(f"statistics disagree with the {count_name}")
        means.append([float(t[1]) for t in triples])
        m2s.append([float(t[2]) for t in triples])
    return means, m2s


def entropy2(c0: float, c1: float) -> float:
    """Binary entropy in bits of the class-count pair (c0, c1)."""
    total = c0 + c1
    if total <= 0.0 or c0 <= 0.0 or c1 <= 0.0:
        return 0.0
    p = c0 / total
    if p <= 0.0 or p >= 1.0:  # one side underflowed relative to the other
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
