"""Incrementally grown binary decision tree for streaming classification.

Leaves accumulate per-class counts plus per-class, per-feature Gaussian
summaries and the observed feature ranges. Every ``grace_period`` samples a
leaf evaluates candidate numeric thresholds; it converts itself into an
internal node once a confidence bound over the information gain guarantees
the observed best split beats the runner-up, or once the bound is tight
enough that the choice no longer matters (tie). The tree only grows; no
rebuild or pruning happens in place.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from ..stats import entropy2, welford_from_state
from .base import check_sample

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]

_SQRT2 = math.sqrt(2.0)


class _Leaf:
    """Class counts, each class's Welford mean and m2 per feature, and feature ranges.

    ``means[cls][j]`` and ``m2s[cls][j]`` have weight ``counts[cls]``, so no per-feature count is kept.
    A leaf with a feature ``subset`` observes only those features, the only ones it may split
    on; the other entries keep their initial values.
    """

    __slots__ = ("counts", "means", "m2s", "fmin", "fmax", "weight_since_attempt", "subset")

    def __init__(self, n_features: int, subset: Optional[tuple[int, ...]]):
        self.counts = [0.0, 0.0]
        self.means = [[0.0] * n_features, [0.0] * n_features]
        self.m2s = [[0.0] * n_features, [0.0] * n_features]
        self.fmin = [math.inf] * n_features
        self.fmax = [-math.inf] * n_features
        self.weight_since_attempt = 0.0
        self.subset = subset

    def probability(self) -> float:
        # Laplace-smoothed class-1 probability; 0.5 when untouched
        c0, c1 = self.counts
        return (c1 + 1.0) / (c0 + c1 + 2.0)


class _SplitNode:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


class HoeffdingTree:
    """Streaming decision tree with confidence-bounded splits.

    ``max_features`` limits each leaf to a random feature subset drawn when
    the leaf is created (used by the forest); ``None`` or a value covering
    all features disables subsetting, in which case the RNG is never
    consulted and trees are fully deterministic.
    """

    def __init__(
        self,
        n_features: int = 4,
        grace_period: int = 50,
        split_confidence: float = 1e-7,
        tie_threshold: float = 0.05,
        n_split_candidates: int = 10,
        min_split_gain: float = 1e-3,
        max_features: Optional[int] = None,
        seed: SeedLike = None,
    ):
        self.n_features = n_features
        self.grace_period = grace_period
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self.n_split_candidates = n_split_candidates
        self.min_split_gain = min_split_gain
        if max_features is not None and max_features >= n_features:
            max_features = None
        self.max_features = max_features
        self._rng = np.random.default_rng(seed) if max_features is not None else None
        self.n_splits = 0
        self._root = self._new_leaf()

    def _new_leaf(self) -> _Leaf:
        subset = None
        if self.max_features is not None:
            chosen = self._rng.choice(self.n_features, size=self.max_features, replace=False)
            subset = tuple(sorted(int(j) for j in chosen))
        return _Leaf(self.n_features, subset)

    def _route(self, x: Sequence[float]):
        parent = None
        side = ""
        node = self._root
        while node.__class__ is _SplitNode:
            parent = node
            if x[node.feature] <= node.threshold:
                node, side = node.left, "left"
            else:
                node, side = node.right, "right"
        return node, parent, side

    def score_one(self, x: Sequence[float]) -> float:
        check_sample(x, self.n_features)
        leaf, _, _ = self._route(x)
        return leaf.probability()

    def learn_one(self, x: Sequence[float], y: int, weight: int = 1) -> None:
        check_sample(x, self.n_features, y)
        if weight < 1:
            raise ValueError("weight must be a positive integer")
        self._learn_routed(self._route(x), x, y, weight)

    def _learn_routed(self, routed, x: Sequence[float], y: int, weight: int) -> None:
        """Unchecked update of the leaf ``_route(x)`` returned, then a split attempt."""
        leaf, parent, side = routed
        weight = float(weight)
        counts = leaf.counts
        n = counts[y] + weight
        counts[y] = n
        # one weighted Welford step per observed feature; the class count is its weight
        r = weight / n
        means, m2s, fmin, fmax = leaf.means[y], leaf.m2s[y], leaf.fmin, leaf.fmax
        subset = leaf.subset
        for j in range(len(x)) if subset is None else subset:
            v = x[j]
            delta = v - means[j]
            mean = means[j] = means[j] + r * delta
            m2s[j] += weight * delta * (v - mean)
            if v < fmin[j]:
                fmin[j] = v
            if v > fmax[j]:
                fmax[j] = v
        leaf.weight_since_attempt += weight
        if leaf.weight_since_attempt >= self.grace_period:
            leaf.weight_since_attempt = 0.0
            self._attempt_split(leaf, parent, side)

    # -- split machinery ---------------------------------------------------

    def _candidate_merits(self, leaf: _Leaf, feature: int) -> Optional[tuple[float, float]]:
        """Best (gain, threshold) for one feature, or None; both class counts must be > 0."""
        lo, hi = leaf.fmin[feature], leaf.fmax[feature]
        if not (hi > lo):
            return None
        c0, c1 = leaf.counts
        total = c0 + c1
        h_parent = entropy2(c0, c1)
        # each class's Gaussian, with its std floored at 1e-6, scaled for erf
        mean0, mean1 = leaf.means[0][feature], leaf.means[1][feature]
        denom0 = math.sqrt(max(leaf.m2s[0][feature] / c0, 1e-12)) * _SQRT2
        denom1 = math.sqrt(max(leaf.m2s[1][feature] / c1, 1e-12)) * _SQRT2
        best_gain = -1.0
        best_threshold = lo
        step = (hi - lo) / (self.n_split_candidates + 1)
        for k in range(1, self.n_split_candidates + 1):
            t = lo + step * k
            left0 = c0 * (0.5 * (1.0 + math.erf((t - mean0) / denom0)))
            left1 = c1 * (0.5 * (1.0 + math.erf((t - mean1) / denom1)))
            wl = left0 + left1
            wr = total - wl
            if wl <= 0.0 or wr <= 0.0:
                continue
            h_children = (wl / total) * entropy2(left0, left1) + (wr / total) * entropy2(
                c0 - left0, c1 - left1
            )
            gain = h_parent - h_children
            if gain > best_gain:
                best_gain = gain
                best_threshold = t
        if best_gain < 0.0:
            return None
        return best_gain, best_threshold

    def _attempt_split(self, leaf: _Leaf, parent: Optional[_SplitNode], side: str) -> None:
        c0, c1 = leaf.counts
        if c0 <= 0.0 or c1 <= 0.0:
            return  # pure leaf: every candidate split has zero gain
        features = leaf.subset if leaf.subset is not None else range(self.n_features)
        suggestions = []
        for feature in features:
            merit = self._candidate_merits(leaf, feature)
            if merit is not None:
                suggestions.append((merit[0], feature, merit[1]))
        if not suggestions:
            return
        # ties resolved toward the lowest feature index
        suggestions.sort(key=lambda s: (-s[0], s[1]))
        best_gain, best_feature, best_threshold = suggestions[0]
        second_gain = suggestions[1][0] if len(suggestions) > 1 else 0.0

        n = c0 + c1
        # entropy range for two classes is 1 bit
        epsilon = math.sqrt(math.log(1.0 / self.split_confidence) / (2.0 * n))
        if best_gain <= self.min_split_gain:
            return
        if best_gain - second_gain > epsilon or epsilon < self.tie_threshold:
            new_node = _SplitNode(best_feature, best_threshold, self._new_leaf(), self._new_leaf())
            if parent is None:
                self._root = new_node
            elif side == "left":
                parent.left = new_node
            else:
                parent.right = new_node
            self.n_splits += 1

    # -- introspection / persistence ---------------------------------------

    @property
    def n_leaves(self) -> int:
        def count(node):
            if isinstance(node, _SplitNode):
                return count(node.left) + count(node.right)
            return 1

        return count(self._root)

    def _node_state(self, node) -> dict:
        if isinstance(node, _SplitNode):
            return {
                "split": [node.feature, node.threshold],
                "left": self._node_state(node.left),
                "right": self._node_state(node.right),
            }
        return {
            "counts": list(node.counts),
            "stats": [
                [[n, mean, m2] for mean, m2 in zip(means, m2s)]
                for n, means, m2s in zip(node.counts, node.means, node.m2s)
            ],
            "fmin": [v if math.isfinite(v) else None for v in node.fmin],
            "fmax": [v if math.isfinite(v) else None for v in node.fmax],
            "weight_since_attempt": node.weight_since_attempt,
            "subset": list(node.subset) if node.subset is not None else None,
        }

    def _node_from_state(self, state: dict):
        if "split" in state:
            return _SplitNode(
                int(state["split"][0]),
                float(state["split"][1]),
                self._node_from_state(state["left"]),
                self._node_from_state(state["right"]),
            )
        leaf = _Leaf(self.n_features, tuple(state["subset"]) if state["subset"] is not None else None)
        leaf.counts = [float(c) for c in state["counts"]]
        leaf.means, leaf.m2s = welford_from_state(leaf.counts, state["stats"], "class counts")
        leaf.fmin = [math.inf if v is None else float(v) for v in state["fmin"]]
        leaf.fmax = [-math.inf if v is None else float(v) for v in state["fmax"]]
        leaf.weight_since_attempt = float(state["weight_since_attempt"])
        return leaf

    def to_state(self) -> dict:
        return {
            "kind": "ht",
            "n_features": self.n_features,
            "grace_period": self.grace_period,
            "split_confidence": self.split_confidence,
            "tie_threshold": self.tie_threshold,
            "n_split_candidates": self.n_split_candidates,
            "min_split_gain": self.min_split_gain,
            "max_features": self.max_features,
            "n_splits": self.n_splits,
            "rng": _rng_state(self._rng),
            "root": self._node_state(self._root),
        }

    @classmethod
    def from_state(cls, state: dict) -> "HoeffdingTree":
        tree = cls(
            n_features=state["n_features"],
            grace_period=state["grace_period"],
            split_confidence=state["split_confidence"],
            tie_threshold=state["tie_threshold"],
            n_split_candidates=state["n_split_candidates"],
            min_split_gain=state["min_split_gain"],
            max_features=state["max_features"],
            seed=0 if state["max_features"] is not None else None,
        )
        if state["rng"] is not None:
            tree._rng = _rng_from_state(state["rng"])
        tree.n_splits = int(state["n_splits"])
        tree._root = tree._node_from_state(state["root"])
        return tree


def _rng_state(rng: Optional[np.random.Generator]):
    if rng is None:
        return None
    state = rng.bit_generator.state
    # PCG64 state holds big ints; stringify so JSON round-trips exactly
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: str(v) for k, v in state["state"].items()},
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


def _rng_from_state(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    return rng
