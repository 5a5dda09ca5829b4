"""Output checks for the three benchmark workloads.

Each check reads one repeat's output directory and returns
``(problems, info)``: a list of readable failures (empty when the outputs
are correct) and the figures the benchmark reports from the outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

# A drift alarm must fire within this many streamed events of the boundary.
ALARM_REACH = 50


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(out_dir: str) -> tuple[str, dict[str, str]]:
    """sha256 of every file in ``out_dir``, and one digest over all of them."""
    files = {name: sha256_file(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}
    combined = hashlib.sha256("".join(f"{h}  {n}\n" for n, h in files.items()).encode()).hexdigest()
    return combined, files


def check_paper_run(out_dir: str, models: list[str], n_stream: int, expected_digest=None):
    problems: list[str] = []
    required = ["drift_events.csv", "summary.json", "manifest.json"]
    for m in models:
        required += [f"{m}_metrics.csv", f"{m}_static.model.json", f"{m}_online.model.json"]
    missing = [name for name in required if not os.path.isfile(os.path.join(out_dir, name))]
    if missing:
        return [f"missing outputs: {missing}"], {}

    digest, files = tree_digest(out_dir)
    info = {"digest": digest, "arf_online_sha256": files.get("arf_online.model.json")}
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"output digest {digest[:12]} differs from this seed's first repeat {expected_digest[:12]}")

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    boundary = summary["drift_boundary_index"]
    for m in models:
        model = summary["models"].get(m)
        if model is None:
            problems.append(f"summary.json has no model {m}")
            continue
        if model["stream_length"] != n_stream:
            problems.append(f"{m}: stream_length {model['stream_length']} != {n_stream}")
        online = model["arms"]["online"]["final_rolling_accuracy"]
        static = model["arms"]["static"]["final_rolling_accuracy"]
        info[f"{m}.accuracy"] = {"online": online, "static": static}
        if not (online is not None and static is not None and online > static):
            problems.append(f"{m}: online accuracy {online} is not above static {static}")

    with open(os.path.join(out_dir, "drift_events.csv"), newline="", encoding="utf-8") as fh:
        alarms = [(int(row["index"]), row["class_context"]) for row in csv.DictReader(fh)]
    after = [(i - boundary, ctx) for i, ctx in alarms if 0 <= i - boundary <= ALARM_REACH]
    info["alarm_offsets"] = after
    if not after:
        problems.append(f"no drift alarm within {ALARM_REACH} events after index {boundary}")

    degenerate = 0
    for m in models:
        with open(os.path.join(out_dir, f"{m}_metrics.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 2 * n_stream:
            problems.append(f"{m}_metrics.csv has {len(rows)} rows, expected {2 * n_stream}")
        degenerate += sum(1 for row in rows if row["auc_degenerate"] == "1")
    info["degenerate_auc_windows"] = degenerate

    for m in models:
        for arm in ("static", "online"):
            with open(os.path.join(out_dir, f"{m}_{arm}.model.json"), encoding="utf-8") as fh:
                snapshot = json.load(fh)
            if snapshot.get("format") != "driftstream-model" or snapshot.get("kind") != m:
                problems.append(f"{m}_{arm}.model.json is not a {m} model snapshot")
    return problems, info


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def check_serve_latency(out_dir: str, models: list[str], trials: int, events: int, stdout: str):
    problems: list[str] = []
    try:
        printed = json.loads(stdout.strip().splitlines()[-1])
        medians = printed["medians"]
    except (ValueError, IndexError, KeyError, TypeError):
        return [f"bench printed no medians: {stdout[-200:]!r}"], {}
    if printed.get("trials") != trials:
        problems.append(f"bench printed trials={printed.get('trials')}, expected {trials}")
    if sorted(medians) != sorted(models):
        return problems + [f"bench printed medians for {sorted(medians)}, expected {sorted(models)}"], {}

    table_path = os.path.join(out_dir, "latency.csv")
    raw_path = os.path.join(out_dir, "latency_raw.csv")
    if not (os.path.isfile(table_path) and os.path.isfile(raw_path)):
        return problems + ["latency.csv or latency_raw.csv missing"], {}

    with open(table_path, newline="", encoding="utf-8") as fh:
        table = {row["model"]: row for row in csv.DictReader(fh)}
    if sorted(table) != sorted(models):
        problems.append(f"latency.csv rows {sorted(table)}, expected {sorted(models)}")
    for m, row in table.items():
        if m not in medians:
            continue
        for col in ("static_ms", "online_ms", "overhead_ms"):
            if row[col] != format(medians[m][col], ".4g"):
                problems.append(f"latency.csv {m}.{col}={row[col]} does not match printed {medians[m][col]!r}")

    # raw[(model, mode)][trial] -> per-event milliseconds, in event order
    raw: dict[tuple[str, str], list[list[float]]] = {}
    with open(raw_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            series = raw.setdefault((row["model"], row["mode"]), [])
            trial, event = int(row["trial"]), int(row["event_index"])
            if trial == len(series):
                series.append([])
            ms = float(row["latency_ms"])
            if trial != len(series) - 1 or event != len(series[-1]) or not ms > 0.0:
                problems.append(f"latency_raw.csv row out of order or not positive: {row}")
                return problems, {}
            series[-1].append(ms)

    info: dict[str, float] = {}
    for m in models:
        for mode in ("static", "online"):
            series = raw.get((m, mode), [])
            rows = sum(len(t) for t in series)
            if len(series) != trials or rows != trials * events:
                problems.append(f"latency_raw.csv {m}/{mode}: {rows} rows in {len(series)} trials, "
                                f"expected {trials} x {events}")
                continue
            recomputed = statistics.median([statistics.median(t) for t in series])
            if recomputed != medians[m][f"{mode}_ms"]:
                problems.append(f"{m}/{mode}: raw median of trial medians {recomputed!r} "
                                f"!= printed {medians[m][f'{mode}_ms']!r}")
            info[f"{m}.{mode}_p50_us"] = medians[m][f"{mode}_ms"] * 1e3
    arf_online = raw.get(("arf", "online"))
    if "arf" in models and arf_online:
        info["arf.online_p99_us"] = _percentile(sorted(ms for t in arf_online for ms in t), 0.99) * 1e3
    return problems, info


def count_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check_ingest_drift(data_dir: str, out_dir: str, n_sfd: int, n_hfd: int, reference=None):
    """``reference`` is the synth-mode ``drift_events.csv`` for the same seed and config."""
    problems: list[str] = []
    for name, expected in (("sfd.csv", n_sfd), ("hfd.csv", n_hfd)):
        path = os.path.join(data_dir, name)
        if not os.path.isfile(path):
            problems.append(f"gen wrote no {name}")
        elif count_rows(path) != expected:
            problems.append(f"{name} has {count_rows(path)} rows, expected {expected}")
    events_path = os.path.join(out_dir, "drift_events.csv")
    if not os.path.isfile(events_path):
        return problems + ["drift wrote no drift_events.csv"], {}
    alarms = count_rows(events_path)
    if alarms < 1:
        problems.append("file-mode drift raised no alarm")
    if reference is not None:
        if not os.path.isfile(reference):
            problems.append("synth-mode reference drift_events.csv is missing")
        elif sha256_file(reference) != sha256_file(events_path):
            problems.append("file-mode drift_events.csv differs from the synth-mode run (gen + file-mode "
                            "drift should reproduce synth-mode drift)")
    return problems, {"alarms": alarms}
