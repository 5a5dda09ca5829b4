"""Prequential (test-then-train) evaluation of static vs online models.

Both arms start in the same state. The model is pretrained once on the
soft-failure segment, and the online arm starts as a copy of that pretrained
static arm; the hard-failure segment is then streamed event by event. The
static arm only predicts; the online arm predicts first and learns from the
revealed label afterwards, so every recorded online score is a pre-update
score. Rolling accuracy and rolling AUC are tracked over a sliding window for
both arms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from bisect import bisect_left, bisect_right, insort
from collections import deque
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import EmptyWindow, NonFiniteInput, PrequentialAbort
from .telemetry import TelemetryEvent, to_features

DEFAULT_WINDOW = 500
SCORE_THRESHOLD = 0.5

SeedLike = Union[int, np.random.SeedSequence, None]


# -- windowed metrics --------------------------------------------------------


class _PairCounter:
    """Sorted scores per class and ``c2``, the doubled concordant-pair count.

    A (positive, negative) pair counts 2 for a win and 1 for a tie, so ``c2 / 2`` is
    the Mann-Whitney U. Adding or removing a score costs O(log W) search plus a memmove.
    """

    __slots__ = ("by_label", "c2")

    def __init__(self):
        self.by_label: tuple[list[float], list[float]] = ([], [])
        self.c2 = 0

    def _pairs(self, y: int, score: float) -> int:
        # doubled concordant pairs the score forms with the other class
        other = self.by_label[1 - y]
        lo = bisect_left(other, score)
        hi = bisect_right(other, score)
        return lo + hi if y == 1 else 2 * len(other) - lo - hi

    def add(self, y: int, score: float) -> None:
        self.c2 += self._pairs(y, score)
        insort(self.by_label[y], score)

    def remove(self, y: int, score: float) -> None:
        own = self.by_label[y]
        del own[bisect_left(own, score)]
        self.c2 -= self._pairs(y, score)

    def auc(self) -> tuple[float, bool]:
        """P(score+ > score-) + 0.5 P(tie); (0.5, True) for a single-class window."""
        n_neg, n_pos = len(self.by_label[0]), len(self.by_label[1])
        if n_pos == 0 or n_neg == 0:
            return 0.5, True
        return self.c2 / (2 * n_pos * n_neg), False


def _check_record(y_true: int, score: float) -> int:
    """The label as an int; rejects what would corrupt the sorted lists."""
    if y_true not in (0, 1):
        raise NonFiniteInput(f"label {y_true!r} (must be 0 or 1)")
    if not math.isfinite(score):
        raise NonFiniteInput("score")
    return int(y_true)


def rolling_auc_flagged(buffer: Sequence[tuple[int, int, float]]) -> tuple[float, bool]:
    """Mann-Whitney AUC over the window: P(score+ > score-) + 0.5 P(tie).

    A single-class window cannot express discrimination; it reports 0.5 with
    the degenerate flag set.
    """
    if len(buffer) == 0:
        raise EmptyWindow()
    counter = _PairCounter()
    for y, _, score in buffer:
        counter.add(_check_record(y, score), score)
    return counter.auc()


def rolling_auc(buffer: Sequence[tuple[int, int, float]]) -> float:
    return rolling_auc_flagged(buffer)[0]


class RollingMetrics:
    """Sliding-window accuracy and AUC over (label, prediction, score), O(log W) per update."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._buffer: deque[tuple[int, int, float]] = deque(maxlen=window)
        self._correct = 0
        self._pairs = _PairCounter()

    def update(self, y_true: int, score: float) -> tuple[float, float, bool]:
        """Add one scored sample; returns (accuracy, auc, auc_degenerate)."""
        y_true = _check_record(y_true, score)
        pred = 1 if score >= SCORE_THRESHOLD else 0
        if len(self._buffer) == self._buffer.maxlen:
            old_y, old_pred, old_score = self._buffer[0]
            if old_y == old_pred:
                self._correct -= 1
            self._pairs.remove(old_y, old_score)
        self._buffer.append((y_true, pred, score))
        if y_true == pred:
            self._correct += 1
        self._pairs.add(y_true, score)
        auc, degenerate = self._pairs.auc()
        return self._correct / len(self._buffer), auc, degenerate

    @property
    def buffer(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(self._buffer)


# -- prequential harness ------------------------------------------------------


@dataclass
class ArmSeries:
    """Per-event record of one arm over the streamed segment."""

    scores: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    auc: list[float] = field(default_factory=list)
    auc_degenerate: list[bool] = field(default_factory=list)
    sfd_end_accuracy: float = float("nan")


@dataclass
class ExperimentReport:
    """Everything one prequential run produced, for export and audit."""

    window: int
    labels: list[int]
    arms: dict[str, ArmSeries]
    summary: dict = field(default_factory=dict)


def _pretrain(model, events: Sequence[TelemetryEvent], shuffle_seed: SeedLike, epochs: int, share=None) -> None:
    """``epochs`` passes over ``events`` in one order drawn from ``shuffle_seed``; then ``share()``'s slots joined.

    A model with a block pass (``learn_many``) takes each pass through it; any other learns one event at a time.
    """
    order = np.random.default_rng(shuffle_seed).permutation(len(events))
    learn_many = getattr(model, "learn_many", None)
    for _ in range(epochs):
        if learn_many is not None:
            learn_many((to_features(events[idx]) for idx in order), (int(events[idx].label) for idx in order))
        else:
            for idx in order:
                event = events[int(idx)]
                model.learn_one(to_features(event), int(event.label))
    if share is not None:
        model.join(share())


def _tail_accuracy(model, events: Sequence[TelemetryEvent], window: int) -> float:
    tail = events[-window:]
    correct = 0
    for event in tail:
        pred = 1 if model.score_one(to_features(event)) >= SCORE_THRESHOLD else 0
        correct += pred == int(event.label)
    return correct / len(tail)


def prequential_run(
    static_model,
    online_model,
    pretrain: Sequence[TelemetryEvent],
    stream: Sequence[TelemetryEvent],
    window: int = DEFAULT_WINDOW,
    *,
    shuffle_seed: SeedLike = None,
    epochs: int = 1,
    share: Optional[Callable[[], object]] = None,
) -> ExperimentReport:
    """Pretrain the model once on ``pretrain``, then stream ``stream``.

    Both arms must start in the same state (equal ``to_state()``), or
    ``ValueError`` is raised. Only ``static_model`` is pretrained; its
    pretrained attributes are then deep-copied into ``online_model``, so the
    caller's online object holds the same state without a second pass.

    ``share``, for two forests that learn only some slots, is ``_pretrain``'s:
    the other slots are joined into ``static_model`` before anything is scored.

    Per stream event, in order: the static model scores, the online model
    scores, and only then the online model learns from the true label. The
    static model is never updated after pretraining. Both arms see the
    identical event sequence. Model exceptions abort with the failing index.
    After an abort the online model is in the per-event loop's state when a
    sample failed its check; after any other error of a block pass
    (``learn_many``) its state is unspecified.
    """
    if static_model.to_state() != online_model.to_state():
        raise ValueError("static and online arms must start in the same state")
    _pretrain(static_model, pretrain, shuffle_seed, epochs, share)
    arms = {"static": ArmSeries(), "online": ArmSeries()}
    if len(pretrain) > 0:
        sfd_end_accuracy = _tail_accuracy(static_model, pretrain, window)
        arms["static"].sfd_end_accuracy = arms["online"].sfd_end_accuracy = sfd_end_accuracy
    online_model.__dict__ = deepcopy(static_model.__dict__)

    metrics = {"static": RollingMetrics(window), "online": RollingMetrics(window)}
    labels: list[int] = []
    # a block pass learns the whole stream first; it scores each event as score_one would have before learning it
    learn_many = getattr(online_model, "learn_many", None)
    online_scores: list[float] = []
    failure = None
    if learn_many is not None:
        try:
            learn_many(map(to_features, stream), (int(event.label) for event in stream), online_scores)
        except Exception as err:  # raised below at its index, after the static arm's score there
            failure = err

    for i, event in enumerate(stream):
        x = to_features(event)
        y = int(event.label)
        try:
            s_static = static_model.score_one(x)
            if learn_many is None:
                s_online = online_model.score_one(x)
                online_model.learn_one(x, y)
            elif i < len(online_scores):
                s_online = online_scores[i]
            else:
                raise failure
            for name, score in (("static", s_static), ("online", s_online)):
                accuracy, auc, degenerate = metrics[name].update(y, score)
                arm = arms[name]
                arm.scores.append(score)
                arm.accuracy.append(accuracy)
                arm.auc.append(auc)
                arm.auc_degenerate.append(degenerate)
        except Exception as err:  # propagate with the failing stream position
            raise PrequentialAbort(i, err) from err
        labels.append(y)

    report = ExperimentReport(window=window, labels=labels, arms=arms)
    report.summary = _summarize(report)
    return report


def _summarize(report: ExperimentReport) -> dict:
    static = report.arms["static"]
    online = report.arms["online"]
    summary: dict = {
        "window": report.window,
        "stream_length": len(report.labels),
        "arms": {},
    }
    for name, arm in report.arms.items():
        summary["arms"][name] = {
            "sfd_end_accuracy": arm.sfd_end_accuracy,
            "final_rolling_accuracy": arm.accuracy[-1] if arm.accuracy else None,
            "final_rolling_auc": arm.auc[-1] if arm.auc else None,
        }
    gaps = [b - a for a, b in zip(static.accuracy, online.accuracy)]
    summary["max_accuracy_gap_points"] = max(gaps) if gaps else None
    rel = [
        (b - a) / a
        for a, b in zip(static.accuracy, online.accuracy)
        if a > 0.0
    ]
    summary["max_accuracy_gap_relative"] = max(rel) if rel else None
    return summary


# -- report export -------------------------------------------------------------

METRIC_COLUMNS = ("event_index", "arm", "rolling_accuracy", "rolling_auc", "auc_degenerate")


def _metric_rows(report: ExperimentReport):
    for pos in range(len(report.labels)):
        for name in ("static", "online"):
            arm = report.arms[name]
            yield (pos, name, arm.accuracy[pos], arm.auc[pos], int(arm.auc_degenerate[pos]))


def export_report(report: ExperimentReport, path: str, fmt: str = "csv") -> str:
    """Write the windowed metric series; repeated exports are byte-identical."""
    if fmt == "csv":
        # no cell can need quoting: an int, a fixed arm name, two float reprs and 0/1
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(METRIC_COLUMNS) + "\r\n")
            fh.writelines(
                f"{pos},{name},{accuracy!r},{auc!r},{degenerate}\r\n"
                for pos, name, accuracy, auc, degenerate in _metric_rows(report)
            )
    elif fmt == "json":
        series = [
            {
                "event_index": row[0],
                "arm": row[1],
                "rolling_accuracy": row[2],
                "rolling_auc": row[3],
                "auc_degenerate": row[4],
            }
            for row in _metric_rows(report)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"window": report.window, "series": series}, fh)
    else:
        raise ValueError(f"unknown format: {fmt}")
    return path


# -- latency benchmark ----------------------------------------------------------


@dataclass
class LatencyReport:
    """Median per-event latency per model, static vs online, plus raw samples.

    The reported value per (model, mode) is the median over trial medians;
    one trial is a full pass over the fixed sample stream. Raw per-event
    samples (ms) are retained so every number can be recomputed.
    """

    trials: int
    events_per_trial: int
    medians: dict[str, dict[str, float]]
    raw_ms: dict[str, dict[str, list[list[float]]]]


def latency_benchmark(
    models: dict[str, object],
    sample_stream: Sequence[TelemetryEvent],
    trials: int = 100,
    *,
    warmup_trials: int = 1,
) -> LatencyReport:
    """Time predict-only and predict+update per event for each model.

    Each model must already be pretrained; it is deep-copied per mode so the
    static copy stays frozen while the online copy keeps learning across
    trials. Each trial times the static copy, then the online copy, so a
    change of host speed between trials reaches both modes alike. Warm-up
    trials run first and are discarded.
    """
    if len(sample_stream) == 0:
        raise EmptyWindow()
    samples = [(to_features(e), int(e.label)) for e in sample_stream]
    clock = time.perf_counter_ns

    medians: dict[str, dict[str, float]] = {}
    raw_ms: dict[str, dict[str, list[list[float]]]] = {}
    for name, model in models.items():
        raw = raw_ms[name] = {"static": [], "online": []}
        arms = (("static", deepcopy(model), False), ("online", deepcopy(model), True))
        for trial in range(warmup_trials + trials):
            for mode, subject, online in arms:
                ticks = []
                for x, y in samples:
                    t0 = clock()
                    score = subject.score_one(x)
                    if online:
                        subject.learn_one(x, y)
                    t1 = clock()
                    ticks.append((t1 - t0) / 1e6)
                if trial >= warmup_trials:
                    raw[mode].append(ticks)
        row = medians[name] = {
            f"{mode}_ms": statistics.median([statistics.median(t) for t in raw[mode]]) for mode in raw
        }
        row["overhead_ms"] = row["online_ms"] - row["static_ms"]
    return LatencyReport(
        trials=trials,
        events_per_trial=len(samples),
        medians=medians,
        raw_ms=raw_ms,
    )


def write_latency_table(report: LatencyReport, path: str) -> None:
    """Latency table with 4-significant-digit milliseconds."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "static_ms", "online_ms", "overhead_ms"])
        for model, row in report.medians.items():
            writer.writerow(
                [
                    model,
                    format(row["static_ms"], ".4g"),
                    format(row["online_ms"], ".4g"),
                    format(row["overhead_ms"], ".4g"),
                ]
            )


def write_latency_raw(report: LatencyReport, path: str) -> None:
    """Full-precision per-event dump: one row per timed event."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("model,mode,trial,event_index,latency_ms\r\n")
        for model, modes in report.raw_ms.items():
            for mode, trials in modes.items():
                # a model name is any string: let csv quote the two text cells once
                text = io.StringIO()
                csv.writer(text).writerow([model, mode])
                prefix = text.getvalue()[:-2]
                for trial, ticks in enumerate(trials):
                    fh.writelines(
                        f"{prefix},{trial},{event_index},{ms!r}\r\n" for event_index, ms in enumerate(ticks)
                    )
