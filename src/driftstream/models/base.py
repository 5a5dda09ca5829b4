"""Incremental classifier contract.

Every model scores one sample at a time and learns one sample at a time.
Scoring is side-effect free; learning is the only mutator. An unfitted model
scores 0.5 for anything.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

from ..errors import NonFiniteInput, OutOfRange


@runtime_checkable
class OnlineClassifier(Protocol):
    def score_one(self, x: Sequence[float]) -> float:
        """Failure probability in [0, 1] for one sample."""

    def learn_one(self, x: Sequence[float], y: int) -> None:
        """Update the model with one labeled sample."""

    def to_state(self) -> dict:
        """Snapshot of the full mutable state (JSON-compatible)."""


def check_sample(x: Sequence[float], n_features: int, y: int | None = None) -> None:
    if len(x) != n_features:
        raise OutOfRange("x", len(x))
    for v in x:
        if not math.isfinite(v):
            raise NonFiniteInput("feature value")
    if y is not None and y not in (0, 1):
        raise NonFiniteInput(f"label {y!r} (must be 0 or 1)")
