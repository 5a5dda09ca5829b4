"""Versioned model snapshots (JSON text, self-describing)."""

from __future__ import annotations

import json

from ..errors import SnapshotError
from .bayes import GaussianNB
from .forest import AdaptiveRandomForest
from .linear import LogisticRegression
from .tree import HoeffdingTree

FORMAT_NAME = "driftstream-model"
FORMAT_VERSION = 1

_KINDS = {
    "lr": LogisticRegression,
    "nb": GaussianNB,
    "ht": HoeffdingTree,
    "arf": AdaptiveRandomForest,
}


def snapshot_dict(model) -> dict:
    state = model.to_state()
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": state["kind"], "state": state}


def snapshot_json(model) -> str:
    """Canonical JSON string of the model's full state (useful for hashing)."""
    return json.dumps(snapshot_dict(model), sort_keys=True)


def save_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot_json(model))  # json.dumps encodes in C, json.dump in pure Python


def restore_model(data: dict):
    if data.get("format") != FORMAT_NAME:
        raise SnapshotError("format", f"not a {FORMAT_NAME} snapshot")
    if data.get("version") != FORMAT_VERSION:
        raise SnapshotError("version", f"unsupported snapshot version: {data.get('version')}")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise SnapshotError("kind", f"unknown model kind: {kind}")
    return _KINDS[kind].from_state(data["state"])


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return restore_model(json.load(fh))
