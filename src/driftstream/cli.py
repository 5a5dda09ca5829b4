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

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, named_seed
from .drift import Direction, detect_drifts_per_class, write_drift_csv
from .errors import ConfigError, DriftStreamError, InvalidConfig
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Streaming failure detection under concept drift: "
        "prequential experiments, drift localization, latency benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"driftstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "prequential static-vs-online experiment, one report per model"),
        ("drift", "per-class drift localization on the configured stream"),
        ("bench", "per-event latency benchmark, one table row per model"),
        ("gen", "materialize the synthetic stream to CSV files"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file (flags override individual keys)")
        cmd.add_argument("--seed", type=int, help="root RNG seed (unsigned 64-bit)")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--format", choices=("csv", "json"), help="metric series format")
        cmd.add_argument("--models", help="comma-separated subset of lr,nb,arf")
        cmd.add_argument("--window", type=int, help="rolling metric window size")
        cmd.add_argument("--trials", type=int, help="latency benchmark trials")
        cmd.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
        if name == "run":
            cmd.add_argument(
                "--save-models",
                action="store_true",
                help="write versioned model snapshots next to the reports",
            )
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.format is not None:
        cfg.format = args.format
    if args.models is not None:
        cfg.models = [m.strip() for m in args.models.split(",") if m.strip()]
    if args.window is not None:
        cfg.window = args.window
    if args.trials is not None:
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
        raise ConfigError("stream", "the streamed segment is empty (n_hfd=0?)")
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


def _emit_summary(cfg: ExperimentConfig, summary: dict, quiet: bool) -> None:
    if quiet:
        return
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


def cmd_run(cfg: ExperimentConfig, quiet: bool, save_models: bool = False) -> int:
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
        if save_models:
            save_model(static_model, os.path.join(cfg.out_dir, f"{name}_static.model.json"))
            save_model(online_model, os.path.join(cfg.out_dir, f"{name}_online.model.json"))
        summary["models"][name] = {k: v for k, v in report.summary.items() if k != "window"}
    with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    _write_manifest(cfg, "run")
    _emit_summary(cfg, summary, quiet)
    return EXIT_OK


def cmd_drift(cfg: ExperimentConfig, quiet: bool) -> int:
    _, _, merged, boundary = _assemble(cfg)
    drift_events = _detect_drifts(cfg, merged)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "drift_events.csv")
    write_drift_csv(drift_events, path)
    _write_manifest(cfg, "drift")
    if not quiet:
        payload = {
            "drift_events": len(drift_events),
            "drift_boundary_index": boundary,
            "path": path,
        }
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_bench(cfg: ExperimentConfig, quiet: bool) -> int:
    pretrain, stream, _, _ = _assemble(cfg)
    sample_stream = stream[: cfg.bench.events_per_trial]
    order = np.random.default_rng(named_seed(cfg.seed, "pretrain-shuffle")).permutation(len(pretrain))
    models = {}
    for name in cfg.models:
        models[name] = cfg.build_model(name)
        _pretrain(models[name], pretrain, order, 1)
    report = latency_benchmark(
        models,
        sample_stream,
        trials=cfg.bench.trials,
        warmup_trials=cfg.bench.warmup_trials,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_latency_table(report, os.path.join(cfg.out_dir, "latency.csv"))
    write_latency_raw(report, os.path.join(cfg.out_dir, "latency_raw.csv"))
    _write_manifest(cfg, "bench")
    if not quiet:
        print(json.dumps({"trials": report.trials, "medians": report.medians}, sort_keys=True))
    return EXIT_OK


def cmd_gen(cfg: ExperimentConfig, quiet: bool) -> int:
    if cfg.stream.mode != "synth":
        raise ConfigError("stream.mode", "gen requires synth mode")
    sfd, hfd = _load_segments(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    sfd_path = os.path.join(cfg.out_dir, "sfd.csv")
    hfd_path = os.path.join(cfg.out_dir, "hfd.csv")
    write_csv(sfd, sfd_path)
    write_csv(hfd, hfd_path)
    _write_manifest(cfg, "gen")
    if not quiet:
        payload = {
            "sfd_path": sfd_path,
            "sfd_events": len(sfd),
            "hfd_path": hfd_path,
            "hfd_events": len(hfd),
        }
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


_COMMANDS = {"run": cmd_run, "drift": cmd_drift, "bench": cmd_bench, "gen": cmd_gen}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "run":
            return cmd_run(cfg, args.quiet, save_models=args.save_models)
        return _COMMANDS[args.command](cfg, args.quiet)
    except (ConfigError, InvalidConfig) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except DriftStreamError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
