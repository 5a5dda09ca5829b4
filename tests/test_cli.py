import csv
import json
import os
import pathlib
import statistics
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import cli
from driftstream.cli import main
from driftstream.evaluation import latency_benchmark, prequential_run
from driftstream.streams import load_csv

SMALL_SYNTH = {
    "mode": "synth",
    "synth": {"n_sfd": 1500, "n_hfd": 800, "sfd_episodes": 2, "hfd_episodes": 2},
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    data = {"seed": 5, "models": ["lr", "nb"], "stream": SMALL_SYNTH}
    data.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_bytes_tree(directory):
    out = {}
    for root, _, files in os.walk(directory):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def test_run_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, {"models": ["lr", "nb", "arf"]})
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for name in ("lr", "nb", "arf"):
        rows = list(csv.DictReader(open(os.path.join(out, f"{name}_metrics.csv"))))
        assert {r["arm"] for r in rows} == {"static", "online"}
        assert len(rows) == 2 * 800
    assert os.path.exists(os.path.join(out, "summary.json"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "drift_events.csv"))
    stdout = capsys.readouterr().out
    assert "final_rolling_accuracy" in stdout or "arf" in stdout


def test_run_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_unknown_model_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--models", "svm", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "models" in err and "svm" in err


def test_runtime_failure_has_distinct_exit_code(tmp_path, capsys):
    # oversampling an all-normal stream fails at run time, not config time
    cfg = write_config(
        tmp_path,
        {
            "oversample": {"target_failure_ratio": 0.4},
            "stream": {
                "mode": "synth",
                "synth": {"n_sfd": 600, "n_hfd": 300, "sfd_episodes": 0, "hfd_episodes": 0},
            },
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "failure" in capsys.readouterr().err.lower()


def test_missing_input_file_is_io_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"stream": {"mode": "file", "sfd_path": str(tmp_path / "nope.csv"), "hfd_path": str(tmp_path / "nah.csv")}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    first = read_bytes_tree(out)
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    second = read_bytes_tree(out)
    assert first == second


def test_seed_changes_reports(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", cfg, "--out", out_a, "--quiet"])
    main(["run", "--config", cfg, "--out", out_b, "--quiet", "--seed", "6"])
    a = open(os.path.join(out_a, "lr_metrics.csv"), "rb").read()
    b = open(os.path.join(out_b, "lr_metrics.csv"), "rb").read()
    assert a != b


def test_gen_then_run_file_mode_equals_synth_mode(tmp_path):
    cfg = write_config(tmp_path)
    gen_out = str(tmp_path / "gen")
    assert main(["gen", "--config", cfg, "--out", gen_out, "--quiet"]) == 0
    cfg_file = write_config(
        tmp_path,
        {
            "stream": {
                "mode": "file",
                "sfd_path": os.path.join(gen_out, "sfd.csv"),
                "hfd_path": os.path.join(gen_out, "hfd.csv"),
            }
        },
        name="cfg_file.json",
    )
    out_synth, out_file = str(tmp_path / "synth"), str(tmp_path / "file")
    assert main(["run", "--config", cfg, "--out", out_synth, "--quiet"]) == 0
    assert main(["run", "--config", cfg_file, "--out", out_file, "--quiet"]) == 0
    for fname in ("lr_metrics.csv", "nb_metrics.csv", "summary.json", "drift_events.csv"):
        a = open(os.path.join(out_synth, fname), "rb").read()
        b = open(os.path.join(out_file, fname), "rb").read()
        assert a == b, fname


def test_gen_rejects_empty_sfd(tmp_path, capsys):
    cfg = write_config(tmp_path, {"stream": {"mode": "synth", "synth": {"n_sfd": 0}}})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == 2


# event-count field -> (command, lowest valid count, config holding a count)
COUNT_FIELDS = {
    "stream.synth.n_sfd": ("gen", 1, lambda n: {"stream": {"synth": {**SMALL_SYNTH["synth"], "n_sfd": n}}}),
    "stream.synth.n_hfd": ("run", 0, lambda n: {"stream": {"synth": {**SMALL_SYNTH["synth"], "n_hfd": n}}}),
    "oversample.target_failure_count": (
        "drift", 0, lambda n: {"oversample": {"target_failure_ratio": None, "target_failure_count": n}}
    ),
}


@pytest.mark.parametrize("count", [2**60, sys.maxsize])
@pytest.mark.parametrize("field", list(COUNT_FIELDS))
def test_a_count_numpy_cannot_size_exits_2_naming_the_field(tmp_path, capsys, field, count):
    # numpy raises ValueError, not MemoryError, for an array of 2**60 8-byte items
    command, lowest, config = COUNT_FIELDS[field]
    cfg = write_config(tmp_path, config(count))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config field '{field}': must be in [{lowest}, sys.maxsize // 8]\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", list(COUNT_FIELDS))
def test_the_largest_count_exits_4_as_out_of_memory(tmp_path, capsys, field):
    command, _, config = COUNT_FIELDS[field]
    cfg = write_config(tmp_path, config(sys.maxsize // 8))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("models", ["arf", "lr,arf"])
@pytest.mark.parametrize("n_trees", [sys.maxsize, 10**20])
def test_a_forest_too_large_to_seed_exits_2_naming_the_field(tmp_path, capsys, models, n_trees):
    # the forest would spawn n_trees + 1 seed sequences; numpy takes that count as a C ssize_t
    cfg = write_config(tmp_path, {"arf": {"n_trees": n_trees}})
    assert main(["run", "--config", cfg, "--models", models, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: config field 'arf.n_trees': must be in [1, sys.maxsize - 1]\n"
    assert not (tmp_path / "o").exists()


def test_stream_too_large_to_allocate_exits_4_without_a_traceback(tmp_path, capsys):
    # numpy refuses the 7 PiB array at once, so nothing is allocated
    cfg = write_config(tmp_path, {"stream": {"synth": {"n_sfd": 10**15}}})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_output_loads_cleanly(tmp_path):
    cfg = write_config(tmp_path)
    gen_out = str(tmp_path / "gen")
    main(["gen", "--config", cfg, "--out", gen_out, "--quiet"])
    sfd = load_csv(os.path.join(gen_out, "sfd.csv"))
    hfd = load_csv(os.path.join(gen_out, "hfd.csv"))
    assert len(sfd) == 1500 and len(hfd) == 800


def test_drift_stationary_stream_header_only(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "stream": {
                "mode": "synth",
                "synth": {"n_sfd": 1200, "n_hfd": 600, "sfd_episodes": 0, "hfd_episodes": 0, "hfd_baseline_shift": 0.0},
            }
        },
    )
    out = str(tmp_path / "d")
    assert main(["drift", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = open(os.path.join(out, "drift_events.csv")).read().strip().splitlines()
    assert lines == ["index,class_context,feature"]


def test_drift_default_stream_flags_failure_drift_in_hfd(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "d")
    assert main(["drift", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "drift_events.csv"))))
    indices = [int(r["index"]) for r in rows]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)
    assert any(r["class_context"] == "Failure" and int(r["index"]) >= 1500 for r in rows)


def test_bench_rows_and_overhead(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "models": ["lr", "nb", "arf"],
            "bench": {"trials": 3, "events_per_trial": 40, "warmup_trials": 1},
        },
    )
    out = str(tmp_path / "bench")
    assert main(["bench", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = list(csv.DictReader(open(os.path.join(out, "latency.csv"))))
    assert [r["model"] for r in rows] == ["lr", "nb", "arf"]
    raw = list(csv.DictReader(open(os.path.join(out, "latency_raw.csv"))))
    assert len(raw) == 3 * 2 * 3 * 40  # models x modes x trials x events
    # the table is the median of per-trial medians of the full-precision dump
    ticks = {}
    for r in raw:
        ticks.setdefault((r["model"], r["mode"], r["trial"]), []).append(float(r["latency_ms"]))
    for r in rows:
        medians = {
            mode: statistics.median(
                statistics.median(t) for (m, md, _), t in ticks.items() if (m, md) == (r["model"], mode)
            )
            for mode in ("static", "online")
        }
        assert r["static_ms"] == format(medians["static"], ".4g")
        assert r["online_ms"] == format(medians["online"], ".4g")
        assert r["overhead_ms"] == format(medians["online"] - medians["static"], ".4g")


def test_save_models_writes_loadable_snapshots(tmp_path):
    from driftstream.models import load_model

    cfg = write_config(tmp_path, {"models": ["lr"]})
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet", "--save-models"]) == 0
    static = load_model(os.path.join(out, "lr_static.model.json"))
    online = load_model(os.path.join(out, "lr_online.model.json"))
    x = (1e-6, 32.0, 1e-4, 17.0)
    assert 0.0 <= static.score_one(x) <= 1.0
    assert online.n_seen > static.n_seen  # the online arm kept learning


def test_manifest_records_config_and_seed(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out, "--quiet"])
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "run"
    assert manifest["seed"] == 5
    assert manifest["config"]["stream"]["synth"]["n_sfd"] == 1500
    assert "version" in manifest


@pytest.mark.parametrize(
    "config, code",
    [
        ({"stream": "x"}, 2),
        ({"pht": 5}, 2),
        ({"oversample": 3}, 2),
        ({"stream": {"synth": 7}}, 2),
        ({"validate": 1}, 2),
        ({"stream": {"validate": 1}}, 2),
        ({"oversample": None}, 0),
    ],
)
def test_config_section_shape_exit_codes(tmp_path, config, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stream": SMALL_SYNTH, **config}))
    assert main(["drift", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == code


@pytest.mark.parametrize(
    "config, field",
    [
        ({"window": "500"}, "window"),
        ({"seed": 1.5}, "seed"),
        ({"arf": {"n_trees": "3"}}, "arf.n_trees"),
        ({"pht": {"delta": float("nan")}}, "pht.delta"),
        ({"pht": {"threshold": float("inf")}}, "pht.threshold"),
        ({"arf": {"lambda_bag": float("nan")}}, "arf.lambda_bag"),
        ({"arf": {"lambda_bag": float("-inf")}}, "arf.lambda_bag"),
        ({"oversample": {"target_failure_ratio": float("nan")}}, "oversample.target_failure_ratio"),
        ({"lr": {"learning_rate": 10**400}}, "lr.learning_rate"),
        ({"stream": {"column_map": {"OSNR_SPO2": ["osnr_rx"]}}}, "stream.column_map"),
        ({"stream": {"column_map": {"OSNR_SPO2": None}}}, "stream.column_map"),
        ({"stream": {"column_map": {"OSNR_SPO2": 3}}}, "stream.column_map"),
        # values in range for their type that used to end in a traceback
        ({"arf": {"n_trees": 0}}, "arf.n_trees"),
        ({"arf": {"n_trees": -1}}, "arf.n_trees"),
        ({"arf": {"max_features": -3}}, "arf.max_features"),
        ({"arf": {"lambda_bag": -1}}, "arf.lambda_bag"),
        ({"arf": {"lambda_bag": 1e19}}, "arf.lambda_bag"),
        ({"arf": {"split_confidence": 0}}, "arf.split_confidence"),
        ({"arf": {"split_confidence": 2.0}}, "arf.split_confidence"),
        ({"arf": {"n_split_candidates": -1}}, "arf.n_split_candidates"),
        ({"arf": {"warn_threshold": 0}}, "arf.warn_threshold"),
        ({"arf": {"drift_threshold": -1.0}}, "arf.drift_threshold"),
        ({"pht": {"threshold": 0}}, "pht.threshold"),
        ({"pht": {"delta": -0.1}}, "pht.delta"),
        ({"nb": {"min_variance": 0}}, "nb.min_variance"),
        ({"lr": {"learning_rate": -1.0}}, "lr.learning_rate"),
        ({"lr": {"learning_rate": 0.0}}, "lr.learning_rate"),
        ({"arf": {"grace_period": 0}}, "arf.grace_period"),
        ({"arf": {"grace_period": -3}}, "arf.grace_period"),
        ({"pht": {"min_instances": -1}}, "pht.min_instances"),
        ({"window": 10**30}, "window"),
        ({"stream": {"synth": {"n_sfd": 10**30}}}, "stream.synth.n_sfd"),
        ({"stream": {"synth": {"n_hfd": 10**30}}}, "stream.synth.n_hfd"),
        ({"oversample": {"target_failure_count": 10**30}}, "oversample.target_failure_count"),
        ({"stream": {"synth": {"prefix_ramp_len": -100}}}, "stream.synth.prefix_ramp_len"),
        ({"stream": {"synth": {"hfd_baseline_std": 10**29}}}, "stream.synth.hfd_baseline_std"),
        ({"stream": {"mode": "file", "sfd_path": "a\0b", "hfd_path": "b"}}, "stream.sfd_path"),
        # spreads that made the generator overflow to inf
        ({"stream": {"synth": {"osnr_normal_std": 1e308}}}, "stream.synth.osnr_normal_std"),
        ({"stream": {"synth": {"osnr_tx_std": 1e308}}}, "stream.synth.osnr_tx_std"),
        ({"stream": {"synth": {"ber_jitter_db": 1e308}}}, "stream.synth.ber_jitter_db"),
        ({"stream": {"synth": {"osnr_normal_mean": 1e308}}}, "stream.synth.osnr_normal_mean"),
        # a field of a nested section used to be reported as 'stream'
        ({"oversample": {"target_failure_ratio": 0.9}}, "oversample.target_failure_ratio"),
        ({"stream": {"synth": {"n_sfd": 0}}}, "stream.synth.n_sfd"),
        ({"stream": {"mode": "tape"}}, "stream.mode"),
    ],
)
def test_config_leaf_of_wrong_type_exits_2_naming_the_field(tmp_path, capsys, config, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stream": SMALL_SYNTH, **config}))
    assert main(["drift", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["drift", "--format", "json"],
        ["drift", "--models", "lr"],
        ["drift", "--window", "5"],
        ["drift", "--trials", "3"],
        ["gen", "--format", "json"],
        ["gen", "--models", "lr"],
        ["gen", "--window", "5"],
        ["gen", "--trials", "3"],
        ["bench", "--format", "json"],
        ["bench", "--window", "5"],
        ["run", "--trials", "3"],
    ],
)
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_drift_help_lists_only_the_common_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["drift", "--help"])
    assert exc.value.code == 0
    flags = {word.strip("[],") for word in capsys.readouterr().out.split() if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--config", "--seed", "--out", "--quiet"}


def test_bench_pretrains_like_run(tmp_path, monkeypatch):
    from driftstream import cli
    from driftstream.models.snapshot import snapshot_json

    cfg = write_config(
        tmp_path,
        {"models": ["lr", "nb", "arf"], "epochs": 2, "bench": {"trials": 1, "events_per_trial": 5, "warmup_trials": 0}},
    )
    pretrained = {"run": {}, "bench": {}}
    # run's and bench's models may train in child processes, so the recorders write files
    recorded = {command: tmp_path / f"pretrained_{command}" for command in pretrained}
    for path in recorded.values():
        path.mkdir()

    def record_static_arm(static_model, online_model, *args, **kwargs):
        report = prequential_run(static_model, online_model, *args, **kwargs)
        (recorded["run"] / type(static_model).__name__).write_text(snapshot_json(static_model))
        return report

    def record_timed_models(models, *args, **kwargs):
        for m in models.values():
            (recorded["bench"] / type(m).__name__).write_text(snapshot_json(m))
        return latency_benchmark(models, *args, **kwargs)

    monkeypatch.setattr(cli, "prequential_run", record_static_arm)
    monkeypatch.setattr(cli, "latency_benchmark", record_timed_models)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 0
    pretrained["run"] = {path.name: path.read_text() for path in recorded["run"].iterdir()}
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    pretrained["bench"] = {path.name: path.read_text() for path in recorded["bench"].iterdir()}
    assert set(pretrained["bench"]) == {"LogisticRegression", "GaussianNB", "AdaptiveRandomForest"}
    for name, state in pretrained["bench"].items():
        assert state == pretrained["run"][name], name


@pytest.mark.parametrize("column, value", [("label", "inf"), ("label", "0.9"), ("timestamp", "inf")])
def test_file_mode_drift_rejects_bad_label_or_timestamp(tmp_path, capsys, column, value):
    cfg = write_config(tmp_path)
    gen_out = str(tmp_path / "gen")
    assert main(["gen", "--config", cfg, "--out", gen_out, "--quiet"]) == 0
    hfd_path = os.path.join(gen_out, "hfd.csv")
    with open(hfd_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[3][column] = value
    with open(hfd_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    file_cfg = write_config(
        tmp_path,
        {"stream": {"mode": "file", "sfd_path": os.path.join(gen_out, "sfd.csv"), "hfd_path": hfd_path}},
        name="cfg_file.json",
    )
    assert main(["drift", "--config", file_cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "malformed row 4" in err and column in err


# -- any JSON object as a config file ----------------------------------------------

# Size caps keep one example well under a second. A capped leaf is never dropped, a
# section holding one is replaced only by a non-object, and an int drawn for a capped
# leaf stays in [-3, cap]: the streams hold at most 300 + 150 events (and at most 300
# failures after oversampling), pretraining runs at most 2 epochs, the forest has at
# most 3 trees with at most 4 split candidates, and bench times at most 1 + 2 trials
# of 20 events.
SIZE_CAPS = {
    ("stream", "synth", "n_sfd"): 300,
    ("stream", "synth", "n_hfd"): 150,
    ("oversample", "target_failure_count"): 300,
    ("epochs",): 2,
    ("arf", "n_trees"): 3,
    ("arf", "n_split_candidates"): 4,
    ("bench", "trials"): 2,
    ("bench", "events_per_trial"): 20,
    ("bench", "warmup_trials"): 1,
}

# a small valid config that sets every leaf, so that each one can be dropped or replaced
SMALL_BASE = {
    "seed": 7,
    "models": ["lr", "nb", "arf"],
    "window": 50,
    "epochs": 1,
    "out_dir": "out",
    "format": "csv",
    "stream": {
        "mode": "synth",
        "sfd_path": None,
        "hfd_path": None,
        "column_map": {},
        "synth": {
            "n_sfd": 300, "n_hfd": 150, "sfd_episodes": 1, "hfd_episodes": 1, "failure_burst_len": 40,
            "warning_prefix": True, "prefix_ramp_len": 20, "prefix_dwell_len": 10,
            "osnr_normal_mean": 30.0, "osnr_normal_std": 0.4, "osnr_soft_drop": 6.0, "osnr_hard_drop": 16.0,
            "plateau_std": 0.15, "prefix_overshoot_db": 3.0, "prefix_dwell_std": 0.3, "hfd_baseline_shift": 13.0,
            "hfd_baseline_std": 0.5, "ber_cap": 0.5, "waterfall_center_db": 13.0, "waterfall_scale_db": 0.5,
            "ber_jitter_db": 0.2, "osnr_tx_mean": 32.0, "osnr_tx_std": 0.3,
        },
    },
    "oversample": {"target_failure_ratio": None, "target_failure_count": 120},
    "pht": {"delta": 0.005, "threshold": 50.0, "min_instances": 30, "direction": "two_sided", "feature_index": 3},
    "lr": {"learning_rate": 0.01, "standardize": True},
    "nb": {"min_variance": 1e-10},
    "arf": {
        "n_trees": 2, "max_features": 2, "lambda_bag": 6.0, "grace_period": 50, "split_confidence": 1e-7,
        "tie_threshold": 0.05, "n_split_candidates": 4, "min_split_gain": 1e-3, "warn_threshold": 20.0,
        "drift_threshold": 50.0,
    },
    "bench": {"trials": 1, "events_per_trial": 20, "warmup_trials": 0},
}


def _paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict) and key != "column_map":
            yield from _paths(value, prefix + (key,))


CONFIG_PATHS = list(_paths(SMALL_BASE))
_WORDS = ["synth", "file", "csv", "json", "lr", "nb", "arf", "increase", "decrease", "two_sided", ""]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# numbers of every size, so that range checks, not only type checks, get exercised
leaf_values = st.integers() | st.floats() | st.sampled_from([0, -1, 2.0, 10**30, 1e300, -1e300]) | json_values


@st.composite
def any_config(draw):
    """SMALL_BASE with up to three leaves or sections dropped or replaced by any JSON value."""
    config = json.loads(json.dumps(SMALL_BASE))
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), max_size=3)):
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):  # an earlier draw replaced the section
            continue
        if path in SIZE_CAPS:
            value = draw(st.integers(-3, SIZE_CAPS[path]) | leaf_values.filter(lambda v: type(v) is not int))
        elif any(cap[: len(path)] == path for cap in SIZE_CAPS):
            value = draw(leaf_values.filter(lambda v: not isinstance(v, dict)))
        else:
            value = draw(st.just(None) | leaf_values)
            if value is None and draw(st.booleans()):
                parent.pop(path[-1], None)
                continue
        parent[path[-1]] = value
    return config


@settings(max_examples=150, deadline=None)
@given(config=any_config(), command=st.sampled_from(["run", "drift", "bench", "gen"]))
def test_any_json_config_object_exits_with_a_known_code(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert main([command, "--config", path, "--out", os.path.join(tmp, "o"), "--quiet"]) in (0, 2, 3, 4)


# -- bytes a CSV or config file cannot be read as ----------------------------------


def file_mode_config(tmp_path, sfd, hfd):
    """A file-mode config over two CSVs with the given bytes."""
    (tmp_path / "sfd.csv").write_bytes(sfd)
    (tmp_path / "hfd.csv").write_bytes(hfd)
    stream = {"mode": "file", "sfd_path": str(tmp_path / "sfd.csv"), "hfd_path": str(tmp_path / "hfd.csv")}
    return write_config(tmp_path, {"stream": stream}, name="cfg_file.json")


def event_rows(timestamps, label=0):
    return [f"{ts},1e-9,32.0,1e-6,25.0,{label},SFD".encode() for ts in timestamps]


HEADER = b"timestamp,ber_tx,osnr_tx,ber_rx,osnr_rx,label,segment"
VALID_CSV = b"\n".join([HEADER, *event_rows(range(50)), *event_rows(range(50, 60), label=1)]) + b"\n"


@pytest.mark.parametrize(
    "hfd, message",
    [
        (b"\n".join([HEADER, *event_rows(range(3)), b"4,1e-9,32.0,1e-6,2\xff,0,SFD"]), "malformed row 4: bytes that are not UTF-8"),
        # a byte-order mark leaves the timestamp column readable, so equal ones are caught
        (b"\xef\xbb\xbf" + b"\n".join([HEADER, *event_rows([1, 1])]), "malformed row 2: value out of range for timestamp: 1"),
        (b"\n".join([HEADER, *event_rows([1]), b'"' + event_rows([2])[0], *event_rows(range(3, 5000))]),
         "malformed row 2: unreadable CSV: field larger than field limit (131072)"),
    ],
    ids=["not-utf8", "byte-order-mark", "field-limit"],
)
def test_unreadable_csv_bytes_exit_4_naming_the_row(tmp_path, capsys, hfd, message):
    cfg = file_mode_config(tmp_path, VALID_CSV, hfd)
    assert main(["drift", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits")
@pytest.mark.parametrize("name", ["timestamp", "label"])
def test_an_integral_cell_past_the_int_digit_limit_exits_4_quoting_the_cell(tmp_path, capsys, name):
    """int() refuses the 5,000 digits, and float() reads them as inf, which the line used to quote."""
    cells = event_rows([3])[0].split(b",")
    cells[0 if name == "timestamp" else 5] = b"9" * 5000
    cfg = file_mode_config(tmp_path, VALID_CSV, b"\n".join([HEADER, *event_rows(range(3)), b",".join(cells)]))
    assert main(["drift", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    quoted = "'" + "9" * 99 + "…"  # shortened's first 100 characters of the cell's repr
    assert capsys.readouterr().err == f"error: malformed row 4: value out of range for {name}: {quoted}\n"


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": 5, "out_dir": "\xff"}')
    assert main(["drift", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'config': not UTF-8 text") and err.count("\n") == 1


# before Python's integer digit limit, the 5,001-digit seed parses and fails the seed's own rule
DIGIT_LIMIT = "'config': not valid JSON: Exceeds the limit" if hasattr(sys, "get_int_max_str_digits") else "'seed'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "'config': not valid JSON: maximum recursion depth exceeded"),
        ('{"seed": 1' + "0" * 5000 + "}", DIGIT_LIMIT),
        ('{"stream": {"synth": {"n_sfd": 400, "n_hfd": 300, "sfd_episodes": 1, "hfd_episodes": 1}}, '
         '"stream": {"mode": "synth"}}', "'config': key 'stream' appears twice in one object"),
        ('{"stream": {"mode": "synth", "mode": "file"}}', "'config': key 'mode' appears twice in one object"),
    ],
    ids=["nested-100000-deep", "5001-digit-int", "repeated-section", "repeated-leaf"],
)
def test_a_config_file_json_reads_badly_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["drift", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field {message}") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", ["run", "drift", "bench", "gen"])
@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize(
    "out, rule", [("a\0b", "must not contain a NUL character"), ("", "must not be empty")], ids=["nul", "empty"]
)
def test_a_nul_in_the_output_directory_exits_2_naming_the_field(tmp_path, monkeypatch, capsys, command, source, out, rule):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"out_dir": out} if source == "config" else {})
    argv = [command, "--config", cfg, "--quiet"] + (["--out", out] if source == "flag" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: config field 'out_dir': {rule}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


LONG = "x" * 10_000


@pytest.mark.parametrize(
    "config, flags, hfd, code, start",
    [
        ({LONG: 1}, [], None, 2, "config error: config field 'xxxx"),
        ({"pht": {LONG: 1}}, [], None, 2, "config error: config field 'pht.xxxx"),
        ({"seed": LONG}, [], None, 2, "config error: config field 'seed': must be of type int, got 'xxxx"),
        ({"models": [LONG]}, [], None, 2, "config error: config field 'models': unknown model name 'xxxx"),
        ({}, ["--models", LONG], None, 2, "config error: config field 'models': unknown model name 'xxxx"),
        ({"pht": {"direction": LONG}}, [], None, 2, "config error: config field 'pht.direction': unknown direction 'xxxx"),
        ({"stream": {"mode": LONG}}, [], None, 2, "config error: config field 'stream.mode': unknown stream mode: 'xxxx"),
        (f'{{"{LONG}": 1, "{LONG}": 1}}', [], None, 2, "config error: config field 'config': key 'xxxx"),
        (None, [], f"3,1e-9,32.0,1e-6,{LONG},0,SFD", 4, "error: malformed row 4: cannot parse number for osnr_rx: 'xxxx"),
        (None, [], f"3,1e-9,32.0,1e-6,25.0,0,{LONG}", 4, "error: malformed row 4: value out of range for segment: 'xxxx"),
    ],
    ids=["unknown-key", "unknown-nested-key", "wrong-type", "model-name", "models-flag", "direction", "stream-mode",
         "repeated-key", "unparsable-cell", "segment-cell"],
)
def test_an_error_line_quotes_at_most_100_characters_of_long_input(tmp_path, capsys, config, flags, hfd, code, start):
    if hfd is not None:
        cfg = file_mode_config(tmp_path, VALID_CSV, b"\n".join([HEADER, *event_rows(range(3)), hfd.encode()]))
    elif isinstance(config, str):
        cfg = str(tmp_path / "cfg.json")
        (tmp_path / "cfg.json").write_text(config)
    else:
        cfg = write_config(tmp_path, config)
    assert main(["run", "--config", cfg, *flags, "--out", str(tmp_path / "o"), "--quiet"]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and "xxxx…" in err
    assert err.count("\n") == 1 and len(err) <= 300


@pytest.mark.parametrize(
    "command, config, synthesizes",
    [
        ("drift", {"stream": {"mode": "file", "sfd_path": LONG, "hfd_path": LONG}}, False),
        ("drift", {"out_dir": LONG}, True),
        ("run", {"out_dir": LONG}, True),
        ("gen", {"out_dir": LONG}, False),  # gen makes its output directory before it synthesizes
    ],
    ids=["drift-input", "drift-output", "run-output", "gen-output"],
)
def test_an_io_error_line_quotes_at_most_100_characters_of_a_long_path(tmp_path, monkeypatch, capsys, command, config,
                                                                       synthesizes):
    synthesized = []

    def recorded(synthesize):
        def call(*args):
            synthesized.append(command)
            return synthesize(*args)

        return call

    monkeypatch.setattr(cli, "synthetic_columns", recorded(cli.synthetic_columns))  # run, drift
    monkeypatch.setattr(cli, "synthetic_arrays", recorded(cli.synthetic_arrays))  # gen
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", write_config(tmp_path, config), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: [Errno 36] File name too long: 'xxxx") and "xxxx…" in err
    assert err.count("\n") == 1 and len(err) <= 300
    assert synthesized == ([command] if synthesizes else [])
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("field", ["osnr_normal_std", "osnr_tx_std", "ber_jitter_db"])
@pytest.mark.parametrize("command", ["gen", "drift", "run"])
def test_a_spread_that_would_synthesize_inf_exits_2_with_one_line(tmp_path, capfd, command, field):
    synth = {**SMALL_SYNTH["synth"], field: 1e308}
    cfg = write_config(tmp_path, {"stream": {"mode": "synth", "synth": synth}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capfd.readouterr().err == f"config error: config field 'stream.synth.{field}': must be in [0, 1e6]\n"
    assert not os.path.exists(tmp_path / "o")


# Size caps: the edited file starts from VALID_CSV, 60 rows of about 30 bytes, and at
# most three edits apply, the largest a 200,000-character field, so one example reads
# under a megabyte.


@st.composite
def edited_csv(draw):
    """VALID_CSV with up to three byte-level edits of the kinds spreadsheets and truncated copies make."""
    data = VALID_CSV
    for edit in draw(st.lists(st.sampled_from(["truncate", "bom", "insert", "field", "cr"]), max_size=3)):
        at = draw(st.integers(0, len(data)))
        if edit == "truncate":
            data = data[:at]
        elif edit == "bom":
            data = b"\xef\xbb\xbf" + data
        elif edit == "insert":
            data = data[:at] + draw(st.sampled_from([b"\xff", b"\x00", b'"', b"\xc3", b"\r"])) + data[at:]
        elif edit == "field":
            data = data[:at] + b"9" * 200_000 + data[at:]
        else:
            data = data.replace(b"\n", b"\r")
    return data


@settings(max_examples=100, deadline=None)
@given(hfd=edited_csv())
def test_any_edited_csv_exits_with_a_known_code(hfd):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = file_mode_config(pathlib.Path(tmp), VALID_CSV, hfd)
        assert main(["drift", "--config", cfg, "--out", os.path.join(tmp, "o"), "--quiet"]) in (0, 2, 3, 4)
