import csv
import json
import os
import statistics

import pytest

from driftstream.cli import main
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
    ],
)
def test_config_leaf_of_wrong_type_exits_2_naming_the_field(tmp_path, capsys, config, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stream": SMALL_SYNTH, **config}))
    assert main(["drift", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


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
