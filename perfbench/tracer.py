"""In-process tracer for the traced benchmark run.

The tracer wraps public driftstream functions and methods from the outside,
at the name where each is looked up (``driftstream.cli.load_csv``,
``driftstream.streams.validate``, ``LogisticRegression.score_one`` ...). It
never edits the package. Three kinds of wrapper keep the overhead readable:

* spans, for coarse boundaries called a few times per command: name, start,
  end, parent span and run id, kept in memory and written when the run ends;
* timers, for per-event calls whose cost is itself a metric (model
  ``score_one``/``learn_one``, ``validate``, ``RollingMetrics.update``):
  calls and nanoseconds are summed, no span record is kept;
* counters, for calls made many times per event (``to_features``,
  ``check_sample``, tree ``score_one``/``learn_one``, ``RunningStats.update``,
  ``PageHinkley.update``): a count keyed by the tag of the innermost open
  span or timer, so ratios such as tree calls per forest ``learn_one`` are
  counted where the work happens.

A span's self time is its length minus the time its child spans and timers
cover; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

_clock = time.perf_counter_ns

MODEL_KINDS = ("lr", "nb", "arf")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span_id, name, start_ns, end_ns, parent_id, covered_ns)
        self.spans: list[tuple] = []
        # name -> [calls, total_ns]
        self.timers: dict[str, list[int]] = {}
        # (name, tag of the innermost open frame) -> calls
        self.counts: Counter = Counter()
        # named quantities read from arguments and results (rows, bytes ...)
        self.values: Counter = Counter()
        self.skipped: list[str] = []
        # open spans and timers, innermost last: [covered_ns, span_id, tag]
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._scored: dict[int, object] = {}
        self._kinds: dict[type, str] = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a recorded span; ``after(args, result, dur_ns)`` reads sizes."""
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0, span_id, name]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans.append((span_id, name, start, end, parent, frame[0]))
            if after is not None:
                after(args, result, end - start)
            return result

        return wrapper

    def _timed_call(self, name: str, tag: str, fn, args, kwargs):
        stack = self._stack
        stack.append([0, None, tag])
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            timer = self.timers.get(name)
            if timer is None:
                timer = self.timers[name] = [0, 0]
            timer[0] += 1
            timer[1] += end - start

    def timed(self, name: str, tag: str, fn):
        def wrapper(*args, **kwargs):
            return self._timed_call(name, tag, fn, args, kwargs)

        return wrapper

    def counted(self, name: str, fn):
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name, stack[-1][2] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def model_score(self, kind: str, fn):
        scored = self._scored

        def wrapper(model, x):
            scored[id(model)] = model  # the reference keeps the id unique
            return self._timed_call(f"models.{kind}.score_one", f"{kind}.score", fn, (model, x), {})

        return wrapper

    def model_learn(self, kind: str, fn):
        """Learning before a model's first score is pretraining; after it, streaming."""
        scored, values = self._scored, self.values

        def wrapper(model, x, y):
            phase = "learn_one" if id(model) in scored else "pretrain"
            if kind != "arf":
                return self._timed_call(f"models.{kind}.{phase}", f"{kind}.learn", fn, (model, x, y), {})
            warnings, replacements = model.n_warnings, model.n_replacements
            try:
                return self._timed_call(f"models.arf.{phase}", "arf.learn", fn, (model, x, y), {})
            finally:
                values["models.arf.n_warnings"] += model.n_warnings - warnings
                values["models.arf.n_replacements"] += model.n_replacements - replacements

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap the layer boundaries of an imported driftstream package."""
        from driftstream import cli, drift, evaluation, stats, streams
        from driftstream.models import bayes, forest, linear, tree

        values = self.values

        def add(key, amount):
            values[key] += amount

        coarse = {
            "generate_synthetic_segments": ("streams.generate", None),
            "load_csv": ("streams.load_csv", lambda a, r, d: add("streams.load_csv.rows", len(r))),
            "write_csv": ("streams.write_csv", lambda a, r, d: add("streams.write_csv.rows", len(a[0]))),
            "merge_sfd_hfd": ("streams.merge", lambda a, r, d: add("events", len(r))),
            "random_oversample": (
                "streams.oversample",
                lambda a, r, d: add("streams.oversample.copies", len(r) - len(a[0])),
            ),
            "detect_drifts_per_class": ("drift.detect_per_class", self._after_detect),
            "write_drift_csv": ("drift.write_csv", None),
            "prequential_run": ("evaluation.prequential", None),
            "export_report": ("evaluation.export", None),
            "save_model": ("models.snapshot", self._after_snapshot),
            "latency_benchmark": ("evaluation.latency_benchmark", None),
            "write_latency_table": ("evaluation.export", None),
            "write_latency_raw": ("evaluation.export", None),
        }
        for attr, (name, after) in coarse.items():
            self.patch(cli, attr, lambda fn, name=name, after=after: self.span(name, fn, after))

        self.patch(streams, "validate", lambda fn: self.timed("telemetry.validate", "validate", fn))
        self.patch(
            evaluation.RollingMetrics,
            "update",
            lambda fn: self.timed("evaluation.rolling_update", "rolling", fn),
        )
        self._kinds = {
            linear.LogisticRegression: "lr",
            bayes.GaussianNB: "nb",
            forest.AdaptiveRandomForest: "arf",
        }
        for cls, kind in self._kinds.items():
            self.patch(cls, "score_one", lambda fn, kind=kind: self.model_score(kind, fn))
            self.patch(cls, "learn_one", lambda fn, kind=kind: self.model_learn(kind, fn))

        for module in (cli, evaluation, drift):
            self.patch(module, "to_features", lambda fn: self.counted("telemetry.to_features", fn))
        for module in (forest, tree, linear, bayes):
            self.patch(module, "check_sample", lambda fn: self.counted("models.check_sample", fn))
        self.patch(tree.HoeffdingTree, "score_one", lambda fn: self.counted("models.tree.score_one", fn))
        self.patch(tree.HoeffdingTree, "learn_one", lambda fn: self.counted("models.tree.learn_one", fn))
        self.patch(stats.RunningStats, "update", lambda fn: self.counted("stats.running_update", fn))
        self.patch(drift.PageHinkley, "update", lambda fn: self.counted("drift.page_hinkley.update", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_detect(self, args, result, dur_ns):
        self.values["drift.events"] += len(args[0])
        self.values["drift.alarms"] += len(result)

    def _after_snapshot(self, args, result, dur_ns):
        kind = self._kinds.get(type(args[0]), "other")
        self.values[f"models.{kind}.snapshot.ns"] += dur_ns
        self.values[f"models.{kind}.snapshot.bytes"] += os.path.getsize(args[1])

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, covered in self.spans:
                record = {
                    "run": self.run_id,
                    "id": span_id,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "self_ns": end - start - covered,
                }
                fh.write(json.dumps(record) + "\n")

    def span_totals(self) -> tuple[Counter, Counter]:
        """Total and self nanoseconds per span name."""
        total, self_ns = Counter(), Counter()
        for _, name, start, end, _, covered in self.spans:
            total[name] += end - start
            self_ns[name] += end - start - covered
        return total, self_ns

    def count(self, name: str, tag=None) -> int:
        return sum(n for (key, t), n in self.counts.items() if key == name and (tag is None or t == tag))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run; a layer that did not run reads 0."""
        total, self_ns = self.span_totals()
        values = self.values

        def timer(name):
            return self.timers.get(name, [0, 0])

        def ratio(num, den):
            return num / den if den else 0.0

        validate_calls, validate_ns = timer("telemetry.validate")
        arf_learns = timer("models.arf.learn_one")[0] + timer("models.arf.pretrain")[0]
        rolling_calls, rolling_ns = timer("evaluation.rolling_update")
        out = {
            "telemetry.validate.calls": validate_calls,
            "telemetry.validate.us_per_call": ratio(validate_ns, validate_calls) / 1e3,
            "telemetry.to_features.calls_per_event": ratio(self.count("telemetry.to_features"), values["events"]),
            "streams.generate.ms": total["streams.generate"] / 1e6,
            "streams.write_csv.us_per_row": ratio(total["streams.write_csv"], values["streams.write_csv.rows"]) / 1e3,
            "streams.load_csv.us_per_row": ratio(total["streams.load_csv"], values["streams.load_csv.rows"]) / 1e3,
            "streams.merge.ms": total["streams.merge"] / 1e6,
            "streams.oversample.ms": total["streams.oversample"] / 1e6,
            "streams.oversample.copies": values["streams.oversample.copies"],
            "drift.detect_per_class.us_per_event": ratio(total["drift.detect_per_class"], values["drift.events"]) / 1e3,
            "drift.alarms": values["drift.alarms"],
            "drift.page_hinkley.updates_per_learn": ratio(self.count("drift.page_hinkley.update", "arf.learn"), arf_learns),
        }
        for kind in MODEL_KINDS:
            score_calls, score_ns = timer(f"models.{kind}.score_one")
            learn_calls, learn_ns = timer(f"models.{kind}.learn_one")
            out[f"models.{kind}.score_one.us"] = ratio(score_ns, score_calls) / 1e3
            out[f"models.{kind}.score_one.calls"] = score_calls
            out[f"models.{kind}.learn_one.us"] = ratio(learn_ns, learn_calls) / 1e3
            out[f"models.{kind}.learn_one.calls"] = learn_calls
            out[f"models.{kind}.pretrain.ms"] = timer(f"models.{kind}.pretrain")[1] / 1e6
            out[f"models.{kind}.snapshot.ms"] = values[f"models.{kind}.snapshot.ns"] / 1e6
            out[f"models.{kind}.snapshot.bytes"] = values[f"models.{kind}.snapshot.bytes"]
        out.update(
            {
                "models.arf.check_sample.calls_per_learn": ratio(self.count("models.check_sample", "arf.learn"), arf_learns),
                "models.arf.tree_score.calls_per_learn": ratio(self.count("models.tree.score_one", "arf.learn"), arf_learns),
                "models.arf.tree_learn.calls_per_learn": ratio(self.count("models.tree.learn_one", "arf.learn"), arf_learns),
                "stats.running_update.calls_per_learn": ratio(self.count("stats.running_update", "arf.learn"), arf_learns),
                "models.arf.n_warnings": values["models.arf.n_warnings"],
                "models.arf.n_replacements": values["models.arf.n_replacements"],
                "evaluation.rolling_update.us": ratio(rolling_ns, rolling_calls) / 1e3,
                "evaluation.rolling_update.calls": rolling_calls,
                "evaluation.prequential.self_ms": self_ns["evaluation.prequential"] / 1e6,
                "evaluation.export.ms": total["evaluation.export"] / 1e6,
                "evaluation.latency_benchmark.self_ms": self_ns["evaluation.latency_benchmark"] / 1e6,
                "cli.self_ms": sum(ns for name, ns in self_ns.items() if name.startswith("cli.")) / 1e6,
            }
        )
        return out

    def layer_ms(self) -> dict[str, float]:
        """Milliseconds per layer below the CLI: spans including their children, and timers."""
        total, _ = self.span_totals()
        out = {name: ns / 1e6 for name, ns in total.items() if not name.startswith("cli.")}
        out.update({name: ns / 1e6 for name, (_, ns) in self.timers.items()})
        return out
