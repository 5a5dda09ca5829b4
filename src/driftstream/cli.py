"""Command-line front end: run | drift | bench | gen.

Every command resolves one ExperimentConfig (JSON file plus flag overrides),
derives all randomness from the root seed, and writes a manifest next to its
outputs so a run can be reproduced from the manifest alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .config import ExperimentConfig, load_config, named_seed
from .drift import Direction, detect_drifts_per_class, write_drift_csv
from .errors import ConfigError, DriftStreamError
from .models import save_model
from .evaluation import (
    _pretrain,
    export_report,
    latency_benchmark,
    prequential_run,
    write_latency_raw,
    write_latency_table,
)
from .streams import (
    generate_synthetic_segments,
    load_csv,
    merge_sfd_hfd,
    random_oversample,
    write_csv,
)
from .telemetry import Segment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


# flag -> add_argument keywords; every command takes the first four
_FLAGS = {
    "--config": {"help": "JSON config file (flags override individual keys)"},
    "--seed": {"type": int, "help": "root RNG seed (unsigned 64-bit)"},
    "--out": {"help": "output directory"},
    "--quiet": {"action": "store_true", "help": "suppress the stdout summary"},
    "--format": {"choices": ("csv", "json"), "help": "metric series format"},
    "--models": {"help": "comma-separated subset of lr,nb,arf"},
    "--window": {"type": int, "help": "rolling metric window size"},
    "--save-models": {"action": "store_true", "help": "write versioned model snapshots next to the reports"},
    "--trials": {"type": int, "help": "latency benchmark trials"},
}
_COMMON_FLAGS = ("--config", "--seed", "--out", "--quiet")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Streaming failure detection under concept drift: "
        "prequential experiments, drift localization, latency benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"driftstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extra_flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in _COMMON_FLAGS + extra_flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    flags = vars(args)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if flags.get("format") is not None:
        cfg.format = args.format
    if flags.get("models") is not None:
        cfg.models = [m.strip() for m in args.models.split(",") if m.strip()]
    if flags.get("window") is not None:
        cfg.window = args.window
    if flags.get("trials") is not None:
        cfg.bench.trials = args.trials
    cfg.validate()
    return cfg


def _write_manifest(cfg: ExperimentConfig, command: str) -> None:
    manifest = {
        "tool": "driftstream",
        "version": __version__,
        "command": command,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
    }
    path = os.path.join(cfg.out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _load_segments(cfg: ExperimentConfig):
    """Produce the two segments from files or the seeded generator."""
    if cfg.stream.mode == "synth":
        return generate_synthetic_segments(cfg.stream.synth, named_seed(cfg.seed, "generator"))
    sfd = load_csv(cfg.stream.sfd_path, column_map=cfg.stream.column_map, default_segment=Segment.SFD)
    hfd = load_csv(cfg.stream.hfd_path, column_map=cfg.stream.column_map, default_segment=Segment.HFD)
    return sfd, hfd


def _assemble(cfg: ExperimentConfig):
    """Segments -> (pretrain, stream, merged, boundary index).

    Oversampled failure copies are appended to the hard-failure segment
    before merging, so they arrive after all organic events.
    """
    sfd, hfd = _load_segments(cfg)
    if len(hfd) == 0:
        field = "stream.synth.n_hfd" if cfg.stream.mode == "synth" else "stream.hfd_path"
        raise ConfigError(field, "the streamed segment is empty")
    if cfg.oversample is not None:
        hfd = random_oversample(
            hfd,
            cfg.oversample.target_failure_ratio,
            seed=named_seed(cfg.seed, "oversample"),
            target_failure_count=cfg.oversample.target_failure_count,
        )
    merged = merge_sfd_hfd(sfd, hfd)
    boundary = len(sfd)
    return merged[:boundary], merged[boundary:], merged, boundary


def _detect_drifts(cfg: ExperimentConfig, merged):
    return detect_drifts_per_class(
        merged,
        cfg.pht.feature_index,
        delta=cfg.pht.delta,
        threshold=cfg.pht.threshold,
        min_instances=cfg.pht.min_instances,
        direction=Direction(cfg.pht.direction),
    )


def _emit_summary(cfg: ExperimentConfig, summary: dict) -> None:
    if cfg.format == "json":
        print(json.dumps(summary, sort_keys=True))
        return
    print("model,arm,sfd_end_accuracy,final_rolling_accuracy,final_rolling_auc,max_gap_points")
    for model, model_summary in summary["models"].items():
        for arm, arm_summary in model_summary["arms"].items():
            print(
                ",".join(
                    [
                        model,
                        arm,
                        repr(arm_summary["sfd_end_accuracy"]),
                        repr(arm_summary["final_rolling_accuracy"]),
                        repr(arm_summary["final_rolling_auc"]),
                        repr(model_summary["max_accuracy_gap_points"]),
                    ]
                )
            )


def cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    pretrain, stream, merged, boundary = _assemble(cfg)
    drift_events = _detect_drifts(cfg, merged)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_drift_csv(drift_events, os.path.join(cfg.out_dir, "drift_events.csv"))

    summary = {
        "window": cfg.window,
        "seed": cfg.seed,
        "drift_boundary_index": boundary,
        "models": {},
    }
    for name in cfg.models:
        static_model = cfg.build_model(name)
        online_model = cfg.build_model(name)
        report = prequential_run(
            static_model,
            online_model,
            pretrain,
            stream,
            cfg.window,
            shuffle_seed=named_seed(cfg.seed, "pretrain-shuffle"),
            epochs=cfg.epochs,
        )
        export_report(report, os.path.join(cfg.out_dir, f"{name}_metrics.{cfg.format}"), cfg.format)
        if args.save_models:
            save_model(static_model, os.path.join(cfg.out_dir, f"{name}_static.model.json"))
            save_model(online_model, os.path.join(cfg.out_dir, f"{name}_online.model.json"))
        summary["models"][name] = {k: v for k, v in report.summary.items() if k != "window"}
    with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    if not args.quiet:
        _emit_summary(cfg, summary)


def cmd_drift(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    _, _, merged, boundary = _assemble(cfg)
    drift_events = _detect_drifts(cfg, merged)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "drift_events.csv")
    write_drift_csv(drift_events, path)
    if not args.quiet:
        payload = {
            "drift_events": len(drift_events),
            "drift_boundary_index": boundary,
            "path": path,
        }
        print(json.dumps(payload, sort_keys=True))


def cmd_bench(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    pretrain, stream, _, _ = _assemble(cfg)
    sample_stream = stream[: cfg.bench.events_per_trial]
    models = {}
    for name in cfg.models:
        models[name] = cfg.build_model(name)
        _pretrain(models[name], pretrain, named_seed(cfg.seed, "pretrain-shuffle"), cfg.epochs)
    report = latency_benchmark(
        models,
        sample_stream,
        trials=cfg.bench.trials,
        warmup_trials=cfg.bench.warmup_trials,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_latency_table(report, os.path.join(cfg.out_dir, "latency.csv"))
    write_latency_raw(report, os.path.join(cfg.out_dir, "latency_raw.csv"))
    if not args.quiet:
        print(json.dumps({"trials": report.trials, "medians": report.medians}, sort_keys=True))


def cmd_gen(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    if cfg.stream.mode != "synth":
        raise ConfigError("stream.mode", "gen requires synth mode")
    sfd, hfd = _load_segments(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    sfd_path = os.path.join(cfg.out_dir, "sfd.csv")
    hfd_path = os.path.join(cfg.out_dir, "hfd.csv")
    write_csv(sfd, sfd_path)
    write_csv(hfd, hfd_path)
    if not args.quiet:
        payload = {
            "sfd_path": sfd_path,
            "sfd_events": len(sfd),
            "hfd_path": hfd_path,
            "hfd_events": len(hfd),
        }
        print(json.dumps(payload, sort_keys=True))


# command -> (handler, help, flags beyond the common ones)
_COMMANDS = {
    "run": (cmd_run, "prequential static-vs-online experiment, one report per model",
            ("--format", "--models", "--window", "--save-models")),
    "drift": (cmd_drift, "per-class drift localization on the configured stream", ()),
    "bench": (cmd_bench, "per-event latency benchmark, one table row per model", ("--models", "--trials")),
    "gen": (cmd_gen, "materialize the synthetic stream to CSV files", ()),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _COMMANDS[args.command][0](cfg, args)
        _write_manifest(cfg, args.command)
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except DriftStreamError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as err:  # a size the config allows but the host cannot hold
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
