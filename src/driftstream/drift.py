"""Sequential change detection on univariate telemetry streams.

The detector compares a mean-centered cumulative sum against its running
extremum and raises an alarm once the gap exceeds a threshold. Per-class
localization runs two independent detectors, one per label, over a single
feature so each alarm can be attributed to the class whose distribution
moved.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateLabels, NonFiniteInput
from .telemetry import (
    FEATURE_NAMES,
    N_FEATURES,
    OSNR_RX_INDEX,
    Label,
    TelemetryEvent,
    to_features,
)


class Direction(str, Enum):
    INCREASE = "increase"
    DECREASE = "decrease"
    TWO_SIDED = "two_sided"


class ClassContext(str, Enum):
    NORMAL = "Normal"
    FAILURE = "Failure"


@dataclass(frozen=True)
class DriftEvent:
    """One alarm: stream position, which class's detector fired, feature id."""

    index: int
    class_context: ClassContext
    feature: int


class PageHinkley:
    """Cumulative-sum change detector with a tolerance and a threshold.

    Per sample x_t the running mean is updated first, then the cumulative
    deviation m_t accumulates (x_t - mean_t - delta) and is compared against
    its running minimum M_t; an alarm fires once m_t - M_t exceeds the
    threshold. The decrease direction mirrors this with (x_t - mean_t +
    delta) against a running maximum. Two-sided detection keeps both one-
    sided statistics over a shared running mean and fires if either side
    crosses the threshold.

    No alarm is permitted during the first ``min_instances`` samples. On
    alarm the detector fully resets (mean and sums cleared) and re-arms.
    ``_step`` is ``update`` without its finiteness check (the forest's 0/1 error).
    """

    # slots keep attribute access fast on deep copies too (the online arm's copied detectors)
    __slots__ = (
        "delta", "threshold", "min_instances", "direction", "_inc", "_dec",
        "t", "mean", "m_inc", "min_inc", "m_dec", "max_dec",
    )

    def __init__(
        self,
        delta: float = 0.005,
        threshold: float = 50.0,
        min_instances: int = 30,
        direction: Direction = Direction.TWO_SIDED,
    ):
        if delta < 0.0:
            raise ValueError("delta must be >= 0")
        if threshold <= 0.0:
            raise ValueError("threshold must be > 0")
        self.delta = delta
        self.threshold = threshold
        self.min_instances = min_instances
        self.direction = Direction(direction)
        self._inc = self.direction in (Direction.INCREASE, Direction.TWO_SIDED)
        self._dec = self.direction in (Direction.DECREASE, Direction.TWO_SIDED)
        self.reset()

    def reset(self) -> None:
        self.t = 0
        self.mean = 0.0
        self.m_inc = 0.0
        self.min_inc = 0.0
        self.m_dec = 0.0
        self.max_dec = 0.0

    @property
    def statistic(self) -> float:
        """Current test statistic (largest active one-sided gap, >= 0)."""
        stat = 0.0
        if self._inc:
            stat = max(stat, self.m_inc - self.min_inc)
        if self._dec:
            stat = max(stat, self.max_dec - self.m_dec)
        return stat

    def update(self, x: float) -> bool:
        """Advance by one sample; True means drift (detector has reset)."""
        if not math.isfinite(x):
            raise NonFiniteInput("sample")
        return self._step(x)

    def _step(self, x: float) -> bool:
        """Unchecked ``update``, for a caller whose x is finite by construction."""
        self.t += 1
        self.mean += (x - self.mean) / self.t

        alarm = False
        if self._inc:
            self.m_inc += x - self.mean - self.delta
            if self.m_inc < self.min_inc:
                self.min_inc = self.m_inc
            if self.m_inc - self.min_inc > self.threshold:
                alarm = True
        if self._dec:
            self.m_dec += x - self.mean + self.delta
            if self.m_dec > self.max_dec:
                self.max_dec = self.m_dec
            if self.max_dec - self.m_dec > self.threshold:
                alarm = True

        if alarm and self.t > self.min_instances:
            self.reset()
            return True
        return False

    def to_state(self) -> dict:
        return {
            "delta": self.delta,
            "threshold": self.threshold,
            "min_instances": self.min_instances,
            "direction": self.direction.value,
            "t": self.t,
            "mean": self.mean,
            "m_inc": self.m_inc,
            "min_inc": self.min_inc,
            "m_dec": self.m_dec,
            "max_dec": self.max_dec,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PageHinkley":
        det = cls(
            delta=state["delta"],
            threshold=state["threshold"],
            min_instances=state["min_instances"],
            direction=Direction(state["direction"]),
        )
        det.t = int(state["t"])
        det.mean = float(state["mean"])
        det.m_inc = float(state["m_inc"])
        det.min_inc = float(state["min_inc"])
        det.m_dec = float(state["m_dec"])
        det.max_dec = float(state["max_dec"])
        return det


def detect_drifts_per_class(
    events: Sequence[TelemetryEvent],
    feature_index: int = OSNR_RX_INDEX,
    *,
    delta: float = 0.005,
    threshold: float = 50.0,
    min_instances: int = 30,
    direction: Direction = Direction.TWO_SIDED,
) -> list[DriftEvent]:
    """Localize drift per class on one feature of an event stream.

    ``detect_drifts_in_columns`` over the events' labels and that feature's
    values; ``events`` is read twice, so it must be a sequence.
    """
    return detect_drifts_in_columns(
        map(operator.attrgetter("label"), events),
        map(operator.itemgetter(feature_index), map(to_features, events)),
        feature_index,
        delta=delta,
        threshold=threshold,
        min_instances=min_instances,
        direction=direction,
    )


def detect_drifts_in_columns(
    labels: Iterable[Label],
    values: Iterable[float],
    feature_index: int = OSNR_RX_INDEX,
    *,
    delta: float = 0.005,
    threshold: float = 50.0,
    min_instances: int = 30,
    direction: Direction = Direction.TWO_SIDED,
) -> list[DriftEvent]:
    """Localize drift per class on one feature, given as a stream's labels and that feature's values.

    Two independent detectors run over the same stream: one sees only
    normal-labeled samples, the other only failure-labeled samples. Alarm
    indices refer to positions in the full stream, and each alarm names
    ``feature_index``. Results are ordered by index.
    """
    if not 0 <= feature_index < N_FEATURES:
        raise ValueError(f"feature_index must be in [0, {N_FEATURES})")
    detectors = {
        Label.NORMAL: PageHinkley(delta, threshold, min_instances, direction),
        Label.FAILURE: PageHinkley(delta, threshold, min_instances, direction),
    }
    contexts = {Label.NORMAL: ClassContext.NORMAL, Label.FAILURE: ClassContext.FAILURE}
    out = []
    for i, (label, x) in enumerate(zip(labels, values)):
        if detectors[label].update(x):
            out.append(DriftEvent(index=i, class_context=contexts[label], feature=feature_index))
    return out


def correlation_rank(events: Sequence[TelemetryEvent]) -> list[tuple[int, float]]:
    """Rank features by absolute Pearson correlation with the binary label.

    A zero-variance feature reports correlation 0 so the ranking stays
    total. Raises DegenerateLabels when only one class is present.
    """
    labels = np.array([int(e.label) for e in events], dtype=float)
    if len(np.unique(labels)) < 2:
        raise DegenerateLabels()
    x = np.array([to_features(e) for e in events], dtype=float)
    y = labels - labels.mean()
    sy = math.sqrt(float(y @ y))
    ranked = []
    for j in range(N_FEATURES):
        col = x[:, j] - x[:, j].mean()
        sx = math.sqrt(float(col @ col))
        corr = 0.0 if sx == 0.0 else float(col @ y) / (sx * sy)
        ranked.append((j, abs(corr)))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


def write_drift_csv(drift_events: Sequence[DriftEvent], path: str) -> None:
    """Export alarms as CSV rows (index, class_context, feature)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "class_context", "feature"])
        for ev in drift_events:
            writer.writerow([ev.index, ev.class_context.value, FEATURE_NAMES[ev.feature]])
