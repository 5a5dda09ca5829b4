"""Golden bytes: every report of a small oversampled config is pinned by sha256.

A change that moves any output byte of ``run --save-models``, ``drift`` or
``gen`` fails here. ``manifest.json`` is hashed with its ``out_dir`` removed,
because that is the only field that depends on where the test runs. The
file-mode case runs ``gen``, renames a column in the files it wrote and runs
``drift`` over them with a ``column_map``; it works in the test's directory
with relative paths, so the input paths in its manifest are fixed too.
"""

import hashlib
import json
import os

import pytest

from driftstream.cli import main

GOLDEN_CONFIG = {
    "seed": 7,
    "stream": {"mode": "synth", "synth": {"n_sfd": 3000, "n_hfd": 1500, "sfd_episodes": 3, "hfd_episodes": 3}},
    "oversample": {"target_failure_ratio": 0.5},
    "pht": {"direction": "decrease"},
}

GOLDEN = {
    "run": {
        "arf_metrics.csv": "3ba28fd995130ae3b3aca76928df2b815959721c809da8642f9637fbfeb59dc9",
        "arf_online.model.json": "821f425d481aee3f5ae2fd8f108abbffbe7c3339ad2f6e87c13bac65ab25a26c",
        "arf_static.model.json": "16e0e57b17fc31480c2b145fcf0e45f29c0d2644809cdfbe7198c2365e731575",
        "drift_events.csv": "313ac95d1da087f0e12d577cfeebd4ac2314ccab94dba8aa3daa7cc486171a98",
        "lr_metrics.csv": "c79e42fd7c10428380ffc1fa3ee6efdddeebaa44d5718f7e45c9f1bff453459c",
        "lr_online.model.json": "c273048e232436d715d72eb15b80710aa498fb28af28c1ca2e3157abe51f8c82",
        "lr_static.model.json": "446178b70ae533ea2b8ed72486d86f4b7b256fe1417357276a7cd502032b6999",
        "manifest.json": "3345ab99d77c2b1ab060ecbb1208734aa6c61a43b0f6f023becf4681495355c8",
        "nb_metrics.csv": "033a71186a3fa7b8130f02bb003339f4c4be67a5716e7acafade1519ec19636a",
        "nb_online.model.json": "e214d8ae0bf737738ba60864c0f74efb3e983e2827ee33f46a86e0834eb24339",
        "nb_static.model.json": "876b6041ae3c34afdb523a7648ba27e0a1587272f1a0015bc9f597a148b18ff2",
        "summary.json": "86cf0feefb3a46379a4c4574bbecdf34b1d14343a63420a233108bb44376b43f",
    },
    "drift": {
        "drift_events.csv": "313ac95d1da087f0e12d577cfeebd4ac2314ccab94dba8aa3daa7cc486171a98",
        "manifest.json": "abaeb445ca5c234609a1c82d12080c729957065942ad1a99b6b79d14c7c054f0",
    },
    "gen": {
        "hfd.csv": "a1411311f6054ea13878ed1df21d4861da92dd0e7e1f277c2cb0af79965864f7",
        "manifest.json": "82c82e541b0cfaf43faf17284af68eff5710798b5a985b4454ca9d26a1a0122c",
        "sfd.csv": "025515047457c96484b1cab613a65e7adf85ffa061aa2e796c24a3e6a085ea97",
    },
}


def _digests(directory):
    out = {}
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), "rb") as fh:
            data = fh.read()
        if fname == "manifest.json":
            manifest = json.loads(data)
            del manifest["config"]["out_dir"]
            data = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
        out[fname] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_reports_match_golden_bytes(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    out = str(tmp_path / "out")
    argv = [command, "--config", str(cfg), "--out", out, "--quiet"]
    if command == "run":
        argv.append("--save-models")
    assert main(argv) == 0
    assert _digests(out) == GOLDEN[command]


GOLDEN_FILE_DRIFT = {
    "drift_events.csv": GOLDEN["drift"]["drift_events.csv"],  # file mode reproduces synth mode
    "manifest.json": "40effdced64de322f60da3765a4360eddd01db534b90b9b87e1fbf049859a356",
}


def test_file_mode_drift_matches_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("gen.json", "w", encoding="utf-8") as fh:
        json.dump(GOLDEN_CONFIG, fh)
    assert main(["gen", "--config", "gen.json", "--out", "data", "--quiet"]) == 0
    for name in ("sfd.csv", "hfd.csv"):
        path = os.path.join("data", name)
        with open(path, encoding="utf-8", newline="") as fh:
            header, body = fh.read().split("\r\n", 1)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header.replace("osnr_rx", "OSNR_SPO2") + "\r\n" + body)
    file_stream = {
        "mode": "file",
        "sfd_path": "data/sfd.csv",
        "hfd_path": "data/hfd.csv",
        "column_map": {"OSNR_SPO2": "osnr_rx"},
    }
    with open("drift.json", "w", encoding="utf-8") as fh:
        json.dump({**GOLDEN_CONFIG, "stream": file_stream}, fh)
    assert main(["drift", "--config", "drift.json", "--out", "out", "--quiet"]) == 0
    assert _digests("out") == GOLDEN_FILE_DRIFT
