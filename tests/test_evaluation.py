import csv
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.config import ExperimentConfig
from driftstream.errors import NonFiniteInput, PrequentialAbort
from driftstream.evaluation import (
    ArmSeries,
    ExperimentReport,
    LatencyReport,
    RollingMetrics,
    _pretrain,
    export_report,
    latency_benchmark,
    prequential_run,
    rolling_auc,
    rolling_auc_flagged,
    write_latency_raw,
    write_latency_table,
)
from driftstream.models import AdaptiveRandomForest, LogisticRegression
from driftstream.models.snapshot import snapshot_json
from driftstream.telemetry import Segment, to_features

from conftest import make_event, make_stream


# -- independent oracles -------------------------------------------------------


def brute_force_auc(labels, scores):
    """All-pairs enumeration: wins + half-ties over positive/negative pairs."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def trapezoid_auc(labels, scores):
    """ROC integration: sweep thresholds over distinct scores, np.trapz."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(1 - sorted_labels)
    distinct = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    tpr = np.r_[0.0, tp[distinct] / n_pos]
    fpr = np.r_[0.0, fp[distinct] / n_neg]
    return float(np.trapezoid(tpr, fpr))


def buffer_of(labels, scores):
    return [(y, 1 if s >= 0.5 else 0, s) for y, s in zip(labels, scores)]


def test_auc_perfect_ranking():
    labels = [1] * 5 + [0] * 5
    scores = [0.9, 0.8, 0.85, 0.99, 0.7, 0.3, 0.2, 0.1, 0.05, 0.0]
    assert rolling_auc(buffer_of(labels, scores)) == 1.0


def test_auc_all_ties_both_classes():
    labels = [1, 0, 1, 0]
    scores = [0.7, 0.7, 0.7, 0.7]
    assert rolling_auc(buffer_of(labels, scores)) == 0.5


def test_auc_four_record_example():
    window = buffer_of([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.3])
    assert rolling_auc(window) == pytest.approx(0.75, abs=1e-15)


def test_auc_single_class_degenerate():
    auc, degenerate = rolling_auc_flagged(buffer_of([1, 1, 1], [0.2, 0.9, 0.5]))
    assert auc == 0.5 and degenerate


def test_auc_matches_brute_force_and_trapezoid():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(5, 500))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 2)  # ties likely
        window = buffer_of(labels, scores)
        ours = rolling_auc(window)
        assert abs(ours - brute_force_auc(labels, scores)) <= 1e-12
        assert abs(ours - trapezoid_auc(labels, scores)) <= 1e-12


def test_rolling_metrics_window_clamps_to_history():
    metrics = RollingMetrics(window=3)
    accs = []
    for y, s in [(1, 0.9), (0, 0.9), (0, 0.1), (0, 0.2), (1, 0.7)]:
        acc, _, _ = metrics.update(y, s)
        accs.append(acc)
    # windows: [ok], [ok, bad], [ok, bad, ok], [bad, ok, ok], [ok, ok, ok]
    assert accs == [1.0, 0.5, 2 / 3, 2 / 3, 1.0]
    assert len(metrics.buffer) == 3


def test_metric_value_is_pure_function_of_window_contents():
    a = RollingMetrics(window=4)
    b = RollingMetrics(window=4)
    tail = [(1, 0.8), (0, 0.3), (1, 0.9), (0, 0.4)]
    for y, s in [(0, 0.99), (1, 0.01)] + tail:  # different prefix
        ra = a.update(y, s)
    for y, s in [(1, 0.6), (0, 0.6), (1, 0.2)] + tail:
        rb = b.update(y, s)
    assert ra == rb


# few distinct scores, -0.0 among them, so ties are common
TIE_SCORES = (0.0, -0.0, 0.25, 0.5, 0.75, 1.0)


def recount(records):
    """(accuracy, auc, degenerate) of a window from scratch, AUC by all pairs."""
    correct = sum(1 for y, s in records if y == (1 if s >= 0.5 else 0))
    pos = [s for y, s in records if y == 1]
    neg = [s for y, s in records if y == 0]
    if not pos or not neg:
        return correct / len(records), 0.5, True
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return correct / len(records), (wins + 0.5 * ties) / (len(pos) * len(neg)), False


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(1, 64),
    # runs of one class, up to 40 long, so single-class windows occur
    runs=st.lists(
        st.tuples(st.integers(0, 1), st.lists(st.sampled_from(TIE_SCORES), min_size=1, max_size=40)),
        min_size=1,
        max_size=8,
    ),
)
def test_incremental_metrics_equal_recount_exactly(window, runs):
    metrics = RollingMetrics(window=window)
    history = []
    for y, scores in runs:
        for s in scores:
            history.append((y, s))
            assert metrics.update(y, s) == recount(history[-window:])


@pytest.mark.parametrize("y, score", [(1, math.nan), (0, math.inf), (1, -math.inf), (2, 0.7)])
def test_bad_record_rejected_before_any_state_change(y, score):
    prefix = [(1, 0.8), (0, 0.3), (0, 0.6)]
    tail = [(1, 0.9), (0, 0.1), (1, 0.4), (0, 0.4)]
    clean, probed = RollingMetrics(window=3), RollingMetrics(window=3)
    for y0, s0 in prefix:
        clean.update(y0, s0)
        probed.update(y0, s0)
    with pytest.raises(NonFiniteInput):
        probed.update(y, score)
    with pytest.raises(NonFiniteInput):
        rolling_auc_flagged(buffer_of([1, 0], [0.8, 0.3]) + [(y, 0, score)])
    assert probed.buffer == clean.buffer
    for y1, s1 in tail:
        assert probed.update(y1, s1) == clean.update(y1, s1)


# -- prequential harness ----------------------------------------------------------


class OracleModel:
    """Scores the label directly; ber_tx carries the label in test streams."""

    def score_one(self, x):
        return x[0]

    def learn_one(self, x, y):
        pass

    def to_state(self):
        return {"kind": "oracle"}


class CountingModel:
    """Score encodes how many samples it has learned (for ordering tests)."""

    def __init__(self):
        self.n = 0

    def score_one(self, x):
        return min(self.n / 1000.0, 1.0)

    def learn_one(self, x, y):
        self.n += 1

    def to_state(self):
        return {"kind": "counting", "n": self.n}


def label_stream(labels, segment=Segment.HFD):
    return [
        make_event(i, ber_tx=float(lbl), label=int(lbl), segment=segment)
        for i, lbl in enumerate(labels)
    ]


def test_perfect_oracle_has_unit_accuracy():
    stream = label_stream([0, 1] * 300)
    report = prequential_run(OracleModel(), OracleModel(), [], stream, window=100)
    assert all(a == 1.0 for a in report.arms["online"].accuracy)
    assert all(a == 1.0 for a in report.arms["static"].accuracy)


def test_static_model_state_unchanged_by_run():
    pretrain = make_stream([30.0] * 200 + [24.0] * 50, [0] * 200 + [1] * 50)
    stream = make_stream([18.0] * 300, [0] * 300, segment=Segment.HFD)
    static_model, online_model = LogisticRegression(), LogisticRegression()
    report = prequential_run(static_model, online_model, pretrain, stream, window=50, shuffle_seed=0)
    after_run = snapshot_json(static_model)
    # replaying only the pretraining phase reproduces the same state
    fresh = LogisticRegression()
    order = np.random.default_rng(0).permutation(len(pretrain))
    for idx in order:
        event = pretrain[int(idx)]
        fresh.learn_one(to_features(event), int(event.label))
    assert snapshot_json(fresh) == after_run
    assert online_model.n_seen > fresh.n_seen  # the online arm kept learning


def test_recorded_online_scores_are_pre_update():
    stream = label_stream([1] * 40)
    report = prequential_run(CountingModel(), CountingModel(), [], stream, window=10)
    # score at index t reflects t prior updates, not t+1
    assert report.arms["online"].scores == [i / 1000.0 for i in range(40)]


def test_learn_before_predict_would_change_the_record():
    stream = label_stream([1] * 40)
    report = prequential_run(CountingModel(), CountingModel(), [], stream, window=10)
    mutant = CountingModel()
    mutant_scores = []
    for event in stream:
        x = to_features(event)
        mutant.learn_one(x, int(event.label))  # deliberately wrong order
        mutant_scores.append(mutant.score_one(x))
    assert mutant_scores != report.arms["online"].scores
    # and the shipped ordering equals a manual predict-then-learn replay
    manual = CountingModel()
    manual_scores = []
    for event in stream:
        x = to_features(event)
        manual_scores.append(manual.score_one(x))
        manual.learn_one(x, int(event.label))
    assert manual_scores == report.arms["online"].scores


def test_both_arms_see_identical_sequence():
    stream = label_stream([0, 1, 1, 0] * 50)
    report = prequential_run(OracleModel(), OracleModel(), [], stream, window=20)
    assert len(report.arms["static"].scores) == len(report.arms["online"].scores) == 200
    assert report.labels == [int(e.label) for e in stream]


def test_model_error_aborts_with_index():
    class Broken(CountingModel):
        def score_one(self, x):
            if self.n >= 7:
                raise ValueError("boom")
            return 0.5

    stream = label_stream([1] * 20)
    with pytest.raises(PrequentialAbort) as exc:
        prequential_run(Broken(), Broken(), [], stream, window=5)
    assert exc.value.index == 7


def test_non_finite_score_aborts_with_index():
    class NanAtThree(CountingModel):
        def score_one(self, x):
            return math.nan if self.n == 3 else 0.5

    stream = label_stream([1] * 10)
    with pytest.raises(PrequentialAbort) as exc:
        prequential_run(CountingModel(), NanAtThree(), [], stream, window=5)
    assert exc.value.index == 3
    assert isinstance(exc.value.__cause__, NonFiniteInput)


def test_multi_epoch_pretraining_uses_every_pass():
    pretrain = make_stream([30.0] * 100, [0, 1] * 50)
    stream = make_stream([20.0] * 10, [0] * 10, segment=Segment.HFD)
    one = CountingModel()
    two = CountingModel()
    prequential_run(one, CountingModel(), pretrain, stream, window=5, shuffle_seed=0, epochs=1)
    prequential_run(two, CountingModel(), pretrain, stream, window=5, shuffle_seed=0, epochs=2)
    assert one.n == 100  # static arm: pretraining only
    assert two.n == 200


@pytest.mark.parametrize("name", ["lr", "nb", "arf"])
def test_online_arm_starts_as_a_copy_of_the_pretrained_static_arm(name):
    cfg = ExperimentConfig()
    labels = [0] * 150 + [1] * 50 + [0] * 100
    pretrain = make_stream([30.0] * 150 + [24.0] * 50 + [29.0] * 100, labels)
    static_model, online_model = cfg.build_model(name), cfg.build_model(name)
    report = prequential_run(static_model, online_model, pretrain, [], window=50, shuffle_seed=3, epochs=2)
    fresh = cfg.build_model(name)
    _pretrain(fresh, pretrain, 3, 2)
    expected = snapshot_json(fresh)
    assert snapshot_json(static_model) == snapshot_json(online_model) == expected
    assert report.arms["static"].sfd_end_accuracy == report.arms["online"].sfd_end_accuracy
    # the arms share no mutable sub-object: online learning leaves the static arm as it was
    for event in make_stream([18.0] * 200, [1, 0] * 100, segment=Segment.HFD, seed=1):
        online_model.learn_one(to_features(event), int(event.label))
    assert snapshot_json(online_model) != expected
    assert snapshot_json(static_model) == expected


@pytest.mark.parametrize(
    "static_model, online_model",
    [
        (LogisticRegression(), LogisticRegression(learning_rate=0.1)),
        (ExperimentConfig().build_model("arf"), ExperimentConfig(seed=8).build_model("arf")),
        (CountingModel(), OracleModel()),
    ],
)
def test_arms_with_different_starting_states_are_rejected(static_model, online_model):
    stream = label_stream([0, 1] * 5)
    with pytest.raises(ValueError, match="same state"):
        prequential_run(static_model, online_model, [], stream, window=5)


def test_online_arm_that_already_learned_is_rejected():
    pretrain = make_stream([30.0] * 20, [0, 1] * 10)
    online_model = LogisticRegression()
    online_model.learn_one(to_features(pretrain[0]), 0)
    with pytest.raises(ValueError, match="same state"):
        prequential_run(LogisticRegression(), online_model, pretrain, [], window=5, shuffle_seed=0)


# -- a forest pretrained in two shares ------------------------------------------


class FailingForest(AdaptiveRandomForest):
    """A forest whose block pass raises NonFiniteInput(``name``) when it reaches the features ``fails_on``."""

    fails_on, name = None, ""

    def learn_many(self, xs, ys, scores=None):
        super().learn_many(map(self._checked, xs), ys, scores)

    def _checked(self, x):
        if x == self.fails_on:
            raise NonFiniteInput(self.name)
        return x


def forest_pair(head_slots=None, fails_on=None, name=""):
    pair = []
    for _ in range(2):
        forest = FailingForest(n_trees=4, seed=5)
        forest.fails_on, forest.name = fails_on, name
        if head_slots is not None:
            forest.learning = head_slots
        pair.append(forest)
    return pair


def flip_streams():
    pretrain = make_stream([30.0] * 150 + [24.0] * 150, [0] * 150 + [1] * 150)
    # the drop in osnr_rx now means "healthy": the forest's detectors warn and replace trees
    stream = make_stream([18.0] * 200 + [30.0] * 200, [0] * 200 + [1] * 200, segment=Segment.HFD, seed=1)
    return pretrain, stream


def run_split(head, pretrain, stream, fails=(None, None)):
    """The run of ``forest_pair`` learning slots ``[0, head)``, joined to the rest pretrained in an in-process share.

    ``fails`` holds the pretrain event each share fails on, or None; ``shares`` records each share handed over.
    """
    failing = [to_features(pretrain[i]) if i is not None else None for i in fails]
    shares = []

    def share():
        shares.append(forest_pair(range(head, 4), failing[1], "tail")[0])
        _pretrain(shares[-1], pretrain, 2, 1)
        return shares[-1]

    static_model, online_model = forest_pair(range(head), failing[0], "head")
    report = prequential_run(static_model, online_model, pretrain, stream, window=50, shuffle_seed=2, share=share)
    assert len(shares) == 1
    return report, static_model, online_model


@pytest.mark.parametrize("head", [1, 2, 3])
def test_a_forest_pretrained_in_two_shares_runs_as_the_whole_forest_bit_for_bit(head):
    pretrain, stream = flip_streams()
    static_model, online_model = forest_pair()
    whole = prequential_run(static_model, online_model, pretrain, stream, window=50, shuffle_seed=2)
    assert online_model.n_replacements > static_model.n_replacements  # the stream replaced trees
    split, static_split, online_split = run_split(head, pretrain, stream)
    assert split == whole
    assert snapshot_json(static_split) == snapshot_json(static_model)
    assert snapshot_json(online_split) == snapshot_json(online_model)


class PerEventForest(AdaptiveRandomForest):
    """A forest without a block pass: the harness pretrains and streams it one event at a time."""

    learn_many = None


def test_the_block_pass_runs_the_forest_as_the_per_event_loop_bit_for_bit():
    pretrain, stream = flip_streams()
    per_event = [PerEventForest(n_trees=4, seed=5) for _ in range(2)]
    expected = prequential_run(*per_event, pretrain, stream, window=50, shuffle_seed=2, epochs=2)
    assert per_event[1].n_replacements > per_event[0].n_replacements  # the stream replaced trees
    block = [AdaptiveRandomForest(n_trees=4, seed=5) for _ in range(2)]
    assert prequential_run(*block, pretrain, stream, window=50, shuffle_seed=2, epochs=2) == expected
    assert [snapshot_json(model) for model in block] == [snapshot_json(model) for model in per_event]


@pytest.mark.parametrize("at", [0, 5, 300])
def test_a_bad_event_aborts_the_block_pass_at_the_per_event_loops_index_and_state(at):
    pretrain, stream = flip_streams()
    stream[at] = make_event(at, osnr_rx=math.nan, segment=Segment.HFD)
    aborts, online = [], []
    for cls in (PerEventForest, AdaptiveRandomForest):
        pair = [cls(n_trees=4, seed=5) for _ in range(2)]
        with pytest.raises(PrequentialAbort) as exc:
            prequential_run(*pair, pretrain, stream, window=50, shuffle_seed=2)
        aborts.append((exc.value.index, type(exc.value.cause), str(exc.value)))
        online.append(snapshot_json(pair[1]))
    assert aborts[0] == aborts[1] == (at, NonFiniteInput, f"model error at stream index {at}: non-finite feature value")
    assert online[0] == online[1]


@pytest.mark.parametrize(
    "fails, expected", [((None, 7), "tail"), ((7, None), "head"), ((7, 7), "head"), ((7, 200), "head")]
)
def test_a_failing_pretrain_in_either_share_raises_this_processs_first(fails, expected):
    pretrain, stream = flip_streams()
    with pytest.raises(NonFiniteInput, match=f"^non-finite {expected}$"):
        run_split(2, pretrain, stream, fails)


# -- export ----------------------------------------------------------------------


def load_metrics(path: str, fmt: str = "csv") -> list[dict]:
    """Re-import an exported metric series (values parsed back to floats)."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["series"]
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {
                "event_index": int(row["event_index"]),
                "arm": row["arm"],
                "rolling_accuracy": float(row["rolling_accuracy"]),
                "rolling_auc": float(row["rolling_auc"]),
                "auc_degenerate": int(row["auc_degenerate"]),
            }
            for row in csv.DictReader(fh)
        ]


def small_report():
    stream = label_stream([0, 1] * 100)
    return prequential_run(OracleModel(), OracleModel(), [], stream, window=50)


def test_export_csv_round_trip(tmp_path):
    report = small_report()
    path = str(tmp_path / "metrics.csv")
    export_report(report, path, "csv")
    rows = load_metrics(path, "csv")
    assert len(rows) == 2 * len(report.labels)
    for pos, row in enumerate(rows):
        arm = report.arms[row["arm"]]
        assert row["rolling_accuracy"] == arm.accuracy[pos // 2]
        assert row["rolling_auc"] == arm.auc[pos // 2]


def test_export_reexport_byte_identical(tmp_path):
    report = small_report()
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    export_report(report, a, "csv")
    export_report(report, b, "csv")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_csv_and_json_agree_to_full_precision(tmp_path):
    report = small_report()
    csv_path = str(tmp_path / "m.csv")
    json_path = str(tmp_path / "m.json")
    export_report(report, csv_path, "csv")
    export_report(report, json_path, "json")
    csv_rows = load_metrics(csv_path, "csv")
    json_rows = load_metrics(json_path, "json")
    assert len(csv_rows) == len(json_rows)
    for a, b in zip(csv_rows, json_rows):
        assert a["event_index"] == b["event_index"]
        assert a["arm"] == b["arm"]
        assert a["rolling_accuracy"] == b["rolling_accuracy"]
        assert a["rolling_auc"] == b["rolling_auc"]
        assert a["auc_degenerate"] == int(b["auc_degenerate"])


_floats = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _reports(draw):
    n = draw(st.integers(0, 30))
    arms = {}
    for name in ("static", "online"):
        arms[name] = ArmSeries(
            accuracy=draw(st.lists(_floats, min_size=n, max_size=n)),
            auc=draw(st.lists(_floats, min_size=n, max_size=n)),
            auc_degenerate=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        )
    return ExperimentReport(window=draw(st.integers(1, 50)), labels=[0] * n, arms=arms)


@settings(max_examples=100, deadline=None)
@given(_reports())
def test_export_csv_bytes_equal_a_csv_writer_reference(tmp_path_factory, report):
    directory = tmp_path_factory.mktemp("export")
    path, reference = str(directory / "metrics.csv"), str(directory / "reference.csv")
    export_report(report, path, "csv")
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_index", "arm", "rolling_accuracy", "rolling_auc", "auc_degenerate"])
        for pos in range(len(report.labels)):
            for name in ("static", "online"):
                arm = report.arms[name]
                writer.writerow([pos, name, repr(arm.accuracy[pos]), repr(arm.auc[pos]), int(arm.auc_degenerate[pos])])
    assert open(path, "rb").read() == open(reference, "rb").read()


def test_summary_reports_both_gap_definitions():
    report = small_report()
    assert "max_accuracy_gap_points" in report.summary
    assert "max_accuracy_gap_relative" in report.summary


# -- latency benchmark -------------------------------------------------------------


def test_latency_medians_recomputable_from_raw(tmp_path):
    stream = make_stream([25.0] * 50, [0, 1] * 25)
    model = LogisticRegression()
    for e in stream:
        model.learn_one(to_features(e), int(e.label))
    report = latency_benchmark({"lr": model}, stream, trials=5, warmup_trials=1)
    for mode in ("static", "online"):
        trial_medians = [statistics.median(t) for t in report.raw_ms["lr"][mode]]
        assert statistics.median(trial_medians) == report.medians["lr"][f"{mode}_ms"]
    assert (
        report.medians["lr"]["overhead_ms"]
        == report.medians["lr"]["online_ms"] - report.medians["lr"]["static_ms"]
    )
    raw_path = str(tmp_path / "raw.csv")
    write_latency_raw(report, raw_path)
    rows = open(raw_path).read().strip().splitlines()
    assert len(rows) - 1 == 5 * 50 * 2  # trials x events x modes
    table_path = str(tmp_path / "table.csv")
    write_latency_table(report, table_path)
    assert open(table_path).read().startswith("model,static_ms,online_ms,overhead_ms")


def test_latency_benchmark_does_not_mutate_input_model():
    stream = make_stream([25.0] * 30, [0, 1] * 15)
    model = LogisticRegression()
    for e in stream:
        model.learn_one(to_features(e), int(e.label))
    before = snapshot_json(model)
    latency_benchmark({"lr": model}, stream, trials=2, warmup_trials=0)
    assert snapshot_json(model) == before


@st.composite
def _latency_reports(draw):
    raw_ms = {}
    for model in draw(st.lists(st.text(max_size=6), max_size=3, unique=True)):
        raw_ms[model] = {
            mode: draw(st.lists(st.lists(_floats, max_size=5), max_size=3)) for mode in ("static", "online")
        }
    return LatencyReport(trials=0, events_per_trial=0, medians={}, raw_ms=raw_ms)


@settings(max_examples=100, deadline=None)
@given(_latency_reports())
def test_latency_raw_bytes_equal_a_csv_writer_reference(tmp_path_factory, report):
    directory = tmp_path_factory.mktemp("raw")
    path, reference = str(directory / "raw.csv"), str(directory / "reference.csv")
    write_latency_raw(report, path)
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "mode", "trial", "event_index", "latency_ms"])
        for model, modes in report.raw_ms.items():
            for mode, trials in modes.items():
                for trial, ticks in enumerate(trials):
                    for event_index, ms in enumerate(ticks):
                        writer.writerow([model, mode, trial, event_index, repr(ms)])
    assert open(path, "rb").read() == open(reference, "rb").read()


class _Recorder:
    """Scores 0.5 and logs (copy id, call) into a log shared by every deep copy."""

    log: list = []

    def score_one(self, x):
        self.log.append((id(self), "score"))
        return 0.5

    def learn_one(self, x, y):
        self.log.append((id(self), "learn"))


def test_latency_trials_alternate_the_static_and_online_copies():
    stream = make_stream([25.0] * 3, [0, 1, 0])
    _Recorder.log = []
    latency_benchmark({"stub": _Recorder()}, stream, trials=2, warmup_trials=1)
    static_id, online_id = _Recorder.log[0][0], _Recorder.log[3][0]
    assert static_id != online_id
    static_trial = [(static_id, "score")] * 3
    online_trial = [(online_id, "score"), (online_id, "learn")] * 3
    assert _Recorder.log == (static_trial + online_trial) * 3
