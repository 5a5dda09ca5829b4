"""Streaming ensemble of Hoeffding trees with drift-triggered replacement.

Each member tree sees every sample with a Poisson-distributed weight (online
bagging) and restricts its splits to small random feature subsets. Two
change detectors watch each tree's own prequential 0/1 error: the warning
detector starts a background tree that trains alongside, and the drift
detector swaps the background tree in (or a fresh tree if none exists).

A tree slot (its tree, background tree, two detectors and seed sequence)
shares nothing with the other slots but the bagging draw, so a forest can be
trained in shares: each share learns some slots and joins the others later.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..drift import Direction, PageHinkley
from ..errors import SnapshotError
from .base import check_sample
from .tree import HoeffdingTree, _rng_from_state, _rng_state, _SplitNode

SeedLike = Union[int, np.random.SeedSequence, None]

# samples per block of learn_many: against blocks of 1,024, paper-run's wall time read 2.9% lower
# (lower in 9 of 10 alternating pairs) and its peak RSS 0.4 MB lower
BLOCK = 256


class AdaptiveRandomForest:
    """Online random forest over Hoeffding trees.

    The ensemble size stays constant; adaptation happens through per-tree
    background training and replacement. The constructor seed yields the
    bagging generator and one seed sequence per tree slot; a slot's initial
    tree is seeded from its sequence, and every background or replacement
    tree is spawned from it. So a slot's future depends only on its own
    samples and bagging weights, never on when other slots spawned, and runs
    are reproducible whichever slots learn together.

    ``learning`` is the range of slots that ``learn_one`` and ``learn_many``
    update, every slot by default; both still draw every slot's bagging
    weight. A forest restricted to some slots is a share, and ``join``
    takes the slots another share of the same forest learned from the same
    samples. Since slots share nothing else, ``learn_many`` learns a pass
    one slot at a time over blocks of samples, with the state and scores of
    ``score_one`` then ``learn_one`` per sample.

    ``bagging=False`` forces every sample weight to 1 and
    ``drift_detection=False`` disables the per-tree detectors; with one tree
    and ``max_features`` covering all features this reduces the forest to a
    single plain Hoeffding tree.
    """

    def __init__(
        self,
        n_features: int = 4,
        n_trees: int = 10,
        max_features: Optional[int] = 2,
        lambda_bag: float = 6.0,
        grace_period: int = 50,
        split_confidence: float = 1e-7,
        tie_threshold: float = 0.05,
        n_split_candidates: int = 10,
        min_split_gain: float = 1e-3,
        warn_threshold: float = 20.0,
        drift_threshold: float = 50.0,
        detector_delta: float = 0.005,
        detector_min_instances: int = 30,
        bagging: bool = True,
        drift_detection: bool = True,
        seed: SeedLike = None,
    ):
        self.n_features = n_features
        self.n_trees = n_trees
        self.max_features = max_features
        self.lambda_bag = lambda_bag
        self.grace_period = grace_period
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self.n_split_candidates = n_split_candidates
        self.min_split_gain = min_split_gain
        self.warn_threshold = warn_threshold
        self.drift_threshold = drift_threshold
        self.detector_delta = detector_delta
        self.detector_min_instances = detector_min_instances
        self.bagging = bagging
        self.drift_detection = drift_detection

        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        *self._slot_seeds, bag_seed = root.spawn(n_trees + 1)
        self._bag_rng = np.random.default_rng(bag_seed)
        self.trees = [self._new_tree(ss) for ss in self._slot_seeds]
        self._background: list[Optional[HoeffdingTree]] = [None] * n_trees
        self._warn = [self._new_detector(self.warn_threshold) for _ in range(n_trees)]
        self._drift = [self._new_detector(self.drift_threshold) for _ in range(n_trees)]
        self.n_warnings = 0
        self.n_replacements = 0
        self.learning = range(n_trees)

    def _new_tree(self, seed) -> HoeffdingTree:
        return HoeffdingTree(
            n_features=self.n_features,
            grace_period=self.grace_period,
            split_confidence=self.split_confidence,
            tie_threshold=self.tie_threshold,
            n_split_candidates=self.n_split_candidates,
            min_split_gain=self.min_split_gain,
            max_features=self.max_features,
            seed=seed,
        )

    def _new_detector(self, threshold: float) -> PageHinkley:
        # the error stream only rises under degradation, so one-sided
        return PageHinkley(
            delta=self.detector_delta,
            threshold=threshold,
            min_instances=self.detector_min_instances,
            direction=Direction.INCREASE,
        )

    def score_one(self, x: Sequence[float]) -> float:
        check_sample(x, self.n_features)
        total = 0.0
        for tree in self.trees:
            node = tree._root
            while node.__class__ is _SplitNode:
                node = node.left if x[node.feature] <= node.threshold else node.right
            c0, c1 = node.counts  # the leaf's probability(), computed in place
            total += (c1 + 1.0) / (c0 + c1 + 2.0)
        return total / self.n_trees

    def join(self, share: "AdaptiveRandomForest") -> None:
        """Take the slots ``share`` learned, and its warnings and replacements; then learn every slot.

        ``share`` is this forest built from the same seed and trained on the
        same samples, with learning restricted to the slots this one skipped.
        """
        for i in share.learning:
            self.trees[i] = share.trees[i]
            self._background[i] = share._background[i]
            self._warn[i] = share._warn[i]
            self._drift[i] = share._drift[i]
            self._slot_seeds[i] = share._slot_seeds[i]
        self.n_warnings += share.n_warnings
        self.n_replacements += share.n_replacements
        self.learning = range(self.n_trees)

    def learn_one(self, x: Sequence[float], y: int) -> None:
        # _learn_block([(x, y)], None) learns the same, but its per-slot setup for one sample made
        # bench's serve-latency wall time 14.5% longer, so the per-event step keeps its own loop
        check_sample(x, self.n_features, y)
        if self.bagging:
            # one vector draw yields the same stream as n_trees scalar draws
            weights = self._bag_rng.poisson(self.lambda_bag, size=self.n_trees).tolist()
        else:
            weights = [1] * self.n_trees
        trees, backgrounds, warn, drift = self.trees, self._background, self._warn, self._drift
        positive = y == 1
        for i in self.learning:
            k = weights[i]
            tree = trees[i]
            # one routing serves both the prequential error and the update
            routed = tree._route(x)
            c0, c1 = routed[0].counts  # the leaf's probability(), computed in place
            error = 0.0 if ((c1 + 1.0) / (c0 + c1 + 2.0) >= 0.5) == positive else 1.0

            if k > 0:
                tree._learn_routed(routed, x, y, k)
                background = backgrounds[i]
                if background is not None:
                    background._learn_routed(background._route(x), x, y, k)

            if not self.drift_detection:
                continue
            # the 0/1 error is finite by construction: skip update()'s check
            if warn[i]._step(error) and backgrounds[i] is None:
                self._start_background(i)
            if drift[i]._step(error):
                self._replace(i)

    def learn_many(self, xs: Iterable[Sequence[float]], ys: Iterable[int], scores: Optional[list] = None) -> None:
        """``learn_one`` per sample in turn, to the same state bit for bit, run slot by slot over blocks of samples.

        A block's bagging weights come from one draw, which yields the same
        values as a draw per sample and leaves the generator in the same
        state. Each slot then takes the block's samples in order, and one
        routing per sample gives that slot's score, its prequential error and
        its update. ``scores``, if given, is extended with each sample's
        pre-update ``score_one``: the slots' probabilities are summed in slot
        order, as ``score_one`` sums them.

        Every sample of a block is checked first. On a bad one the samples
        before it are learned and scored, then ``learn_one``'s error for it
        is raised, so the forest ends as a loop of ``learn_one`` ends. Any
        other error, raised by a slot at some sample, stops every later slot
        at that sample too, so ``scores`` holds the samples before the first
        failing one and the error is the one the loop would raise first. The
        slots before the failing one have by then learned the rest of the
        block, so after such an error the forest's state is unspecified.
        """
        samples = zip(xs, ys)
        while block := list(islice(samples, BLOCK)):
            self._learn_block(block, scores)

    def _learn_block(self, block: list, scores: Optional[list]) -> None:
        limit, failure = len(block), None
        for r, (x, y) in enumerate(block):
            try:
                check_sample(x, self.n_features, y)
            except Exception as err:
                limit, failure = r, err
                break
        if self.bagging:
            weights = self._bag_rng.poisson(self.lambda_bag, size=(limit, self.n_trees)).T.tolist()
        else:
            weights = [[1] * limit] * self.n_trees
        totals = [0.0] * limit if scores is not None else None
        trees, backgrounds, warn, drift = self.trees, self._background, self._warn, self._drift
        detection = self.drift_detection
        for i in range(self.n_trees):
            learns = i in self.learning
            if not learns and totals is None:
                continue
            tree, background = trees[i], backgrounds[i]
            warn_step, drift_step = warn[i]._step, drift[i]._step
            try:
                for r, (x, y), k in zip(range(limit), block, weights[i]):
                    routed = tree._route(x)
                    c0, c1 = routed[0].counts  # the leaf's probability(), computed in place
                    p = (c1 + 1.0) / (c0 + c1 + 2.0)
                    if totals is not None:
                        totals[r] += p
                    if not learns:
                        continue
                    if k > 0:
                        tree._learn_routed(routed, x, y, k)
                        if background is not None:
                            background._learn_routed(background._route(x), x, y, k)
                    if not detection:
                        continue
                    error = 0.0 if (p >= 0.5) == (y == 1) else 1.0
                    if warn_step(error) and background is None:
                        background = self._start_background(i)
                    if drift_step(error):
                        tree, background = self._replace(i), None
                        warn_step, drift_step = warn[i]._step, drift[i]._step
            except Exception as err:  # the later slots stop at this sample too
                limit, failure = r, err
        if totals is not None:
            n_trees = self.n_trees
            scores.extend(total / n_trees for total in totals[:limit])
        if failure is not None:
            raise failure

    def _start_background(self, i: int) -> HoeffdingTree:
        """Slot ``i`` warned with no background tree: start one, spawned from the slot's seed sequence."""
        background = self._background[i] = self._new_tree(self._slot_seeds[i].spawn(1)[0])
        self.n_warnings += 1
        return background

    def _replace(self, i: int) -> HoeffdingTree:
        """Slot ``i`` drifted: its background tree, or a fresh one, replaces its tree, with fresh detectors."""
        tree = self._background[i]
        if tree is None:
            tree = self._new_tree(self._slot_seeds[i].spawn(1)[0])
        self.trees[i] = tree
        self._background[i] = None
        self._warn[i] = self._new_detector(self.warn_threshold)
        self._drift[i] = self._new_detector(self.drift_threshold)
        self.n_replacements += 1
        return tree

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "kind": "arf",
            "params": {
                "n_features": self.n_features,
                "n_trees": self.n_trees,
                "max_features": self.max_features,
                "lambda_bag": self.lambda_bag,
                "grace_period": self.grace_period,
                "split_confidence": self.split_confidence,
                "tie_threshold": self.tie_threshold,
                "n_split_candidates": self.n_split_candidates,
                "min_split_gain": self.min_split_gain,
                "warn_threshold": self.warn_threshold,
                "drift_threshold": self.drift_threshold,
                "detector_delta": self.detector_delta,
                "detector_min_instances": self.detector_min_instances,
                "bagging": self.bagging,
                "drift_detection": self.drift_detection,
            },
            "slot_seeds": [_seed_sequence_state(ss) for ss in self._slot_seeds],
            "bag_rng": _rng_state(self._bag_rng),
            "trees": [t.to_state() for t in self.trees],
            "background": [t.to_state() if t is not None else None for t in self._background],
            "warn": [d.to_state() for d in self._warn],
            "drift": [d.to_state() for d in self._drift],
            "n_warnings": self.n_warnings,
            "n_replacements": self.n_replacements,
        }

    @classmethod
    def from_state(cls, state: dict) -> "AdaptiveRandomForest":
        if "slot_seeds" not in state:
            raise SnapshotError("slot_seeds", "missing: the forest snapshot predates per-slot seeds")
        forest = cls(**state["params"], seed=0)
        forest._slot_seeds = [_seed_sequence_from_state(s) for s in state["slot_seeds"]]
        forest._bag_rng = _rng_from_state(state["bag_rng"])
        forest.trees = [HoeffdingTree.from_state(s) for s in state["trees"]]
        forest._background = [
            HoeffdingTree.from_state(s) if s is not None else None for s in state["background"]
        ]
        forest._warn = [PageHinkley.from_state(s) for s in state["warn"]]
        forest._drift = [PageHinkley.from_state(s) for s in state["drift"]]
        forest.n_warnings = int(state["n_warnings"])
        forest.n_replacements = int(state["n_replacements"])
        return forest


def _seed_sequence_state(ss: np.random.SeedSequence) -> dict:
    entropy = ss.entropy
    return {
        "entropy": str(entropy) if entropy is not None else None,
        "spawn_key": [int(k) for k in ss.spawn_key],
        "n_children_spawned": ss.n_children_spawned,
    }


def _seed_sequence_from_state(state: dict) -> np.random.SeedSequence:
    entropy = int(state["entropy"]) if state["entropy"] is not None else None
    return np.random.SeedSequence(
        entropy=entropy,
        spawn_key=tuple(state["spawn_key"]),
        n_children_spawned=int(state["n_children_spawned"]),
    )
