"""Command-line front end: run | drift | bench | gen.

Every command resolves one ExperimentConfig (JSON file plus flag overrides),
derives all randomness from the root seed, and writes a manifest next to its
outputs so a run can be reproduced from the manifest alone. ``run``,
``bench``, ``gen`` and the file-mode load split their work by one rule,
``_run_forked``: on a host with ``os.fork`` and two usable CPUs, every model
but the last goes to one forked child (for ``gen`` and the file-mode load,
the first rows of sfd.csv, about half of both files' rows), the last stays
in this process, and one pipe carries the child's messages, its result
last. When arf is that last model, the child first pretrains its last tree
slots (two fifths to the nearest in ``run``, half rounded down in
``bench``) and hands them over on the same pipe.
``run``, ``bench`` and ``drift`` merge the stream as columns in
``_assemble``, and each segment arrives from ``_load_segments`` as only the
columns the command reads, dropped in the process that loaded it: ``drift``
takes the labels and one feature and builds no event, ``run`` and ``bench``
build each event once. ``run`` and ``drift`` detect drift through
``_localize``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import pickle
import shutil
import signal
import sys
import tempfile
import traceback

from . import __version__
from .config import VALID_FORMATS, VALID_MODELS, ExperimentConfig, load_config, named_seed
from .drift import detect_drifts_in_columns, write_drift_csv
from .errors import ConfigError, DriftStreamError, shortened
from .models import save_model
from .evaluation import (
    _pretrain,
    export_report,
    latency_benchmark,
    prequential_run,
    write_latency_raw,
    write_latency_table,
)
from .streams import (array_rows, encode_rows, joined, line_start, oversample_sources, read_part, synthetic_arrays,
                      synthetic_columns, write_rows)
from .telemetry import CSV_COLUMNS, FEATURE_NAMES, Segment, TelemetryEvent

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
    "--format": {"choices": VALID_FORMATS, "help": "metric series format"},
    "--models": {"help": f"comma-separated subset of {','.join(VALID_MODELS)}"},
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


def _load_segments(cfg: ExperimentConfig, names: tuple) -> tuple[tuple, tuple]:
    """The two segments' columns ``names`` (of ``CSV_COLUMNS``): the generator's, or the files' through ``_run_forked``.

    In file mode the two processes share the rows. sfd.csv, the first and
    the larger file on the benchmark's stream, is split at its first
    ``line_start`` past half the two files' bytes: a forked child reads
    its head, and this process reads its tail, then hfd.csv. An sfd.csv
    with no split point (it has a ``"`` or only CR line ends, or it is not
    a regular file) is read whole by the child, so pipes and FIFOs work.
    ``joined`` reads the tail again after the head's rows where that could
    change a value, an error or a row number, and sfd.csv's error comes
    before hfd.csv's, so the columns and every error are those of a serial
    read. Each read passes ``names`` to ``read_part``, so a chunk keeps
    only the named columns once it is validated, and only those cross the
    pipe.
    """
    stream = cfg.stream
    if stream.mode == "synth":
        positions = list(map(CSV_COLUMNS.index, names))
        segments = synthetic_columns(stream.synth, named_seed(cfg.seed, "generator"))
        return tuple(tuple(map(columns.__getitem__, positions)) for columns in segments)
    read = functools.partial(read_part, column_map=stream.column_map, names=names)
    sfd = functools.partial(read, stream.sfd_path, default_segment=Segment.SFD)
    try:
        split = line_start(stream.sfd_path, (os.path.getsize(stream.sfd_path) + os.path.getsize(stream.hfd_path)) // 2)
    except OSError:  # the reads report it
        split = None

    def read_parts(name, _):
        if name == "sfd":
            return sfd(0, split)
        tail = None
        if split is not None:
            with contextlib.suppress(DriftStreamError):  # its row numbers start at 0: joined reads it again
                tail = sfd(split)
        try:
            return tail, read(stream.hfd_path, default_segment=Segment.HFD).columns
        except Exception as err:  # raised below, once sfd.csv, whose error comes first, is read without one
            return tail, err

    segments = _run_forked("segment", ["sfd", "hfd"], read_parts)
    tail, hfd = segments["hfd"]
    columns = segments["sfd"].columns if split is None else joined(sfd, split, segments["sfd"], tail)
    if isinstance(hfd, Exception):
        raise hfd
    return columns, hfd


@contextlib.contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off, and back to the caller's state on leaving.

    Building or writing a stream allocates a few objects per event, and
    none of them forms a reference cycle, so the collections their
    allocations trigger find nothing to free; reference counting frees
    them. Only that work is paused: model code and the timed latency
    trials run with the collector as the caller left it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _assemble(cfg: ExperimentConfig, names: tuple) -> tuple[tuple, int]:
    """The merged stream's columns ``names`` (of ``CSV_COLUMNS``, never the timestamps) and the boundary index.

    An empty segment is a ConfigError before anything is oversampled. The
    rows at the positions ``oversample_sources`` draws are copied to the end
    of the hard-failure segment, tagged ``Segment.OVERSAMPLED``, so they
    arrive after all organic events. The merged timestamps are the positions.
    """
    with _collector_paused():
        sfd, hfd = _load_segments(cfg, names)
        boundary, n_hfd = len(sfd[0]), len(hfd[0])
        if boundary == 0:  # only a file can be empty: n_sfd is at least 1
            raise ConfigError("stream.sfd_path", "the pretraining segment is empty")
        if n_hfd == 0:
            field = "stream.synth.n_hfd" if cfg.stream.mode == "synth" else "stream.hfd_path"
            raise ConfigError(field, "the streamed segment is empty")
        if cfg.oversample is not None:
            labels, seed = hfd[names.index("label")], named_seed(cfg.seed, "oversample")
            sources = oversample_sources(labels, seed=seed, **dataclasses.asdict(cfg.oversample))
            for name, column in zip(names, hfd):
                copies = [Segment.OVERSAMPLED] * len(sources) if name == "segment" else map(column.__getitem__, sources)
                column.extend(copies)
        for column, tail in zip(sfd, hfd):
            column += tail
    return sfd, boundary


# every field of an event but its timestamp, which is its position in the merged stream
_EVENT_FIELDS = CSV_COLUMNS[1:]


def _events(columns: tuple, boundary: int) -> tuple[list, list]:
    """(pretrain, stream): the events of ``_assemble``'s merged ``_EVENT_FIELDS`` columns, split at the boundary.

    Each event is built once, with its merged position as its timestamp.
    The columns are emptied once the events hold their values, so their
    arrays (0.7 MB on the default config) are freed before the two slices
    are made, which reuse that space, and the heap can give pages back.
    """
    with _collector_paused():
        events = list(map(TelemetryEvent, range(len(columns[0])), *columns))
        for column in columns:
            column.clear()
    return events[:boundary], events[boundary:]


def _localize(cfg: ExperimentConfig, names: tuple, columns: tuple) -> tuple[list, str]:
    """Per-class drift alarms over the merged ``columns`` (named ``names``), written to drift_events.csv.

    The detectors see the labels and ``cfg.pht``'s feature. Returns the alarms and the file's path.
    """
    labels, values = (columns[names.index(name)] for name in ("label", FEATURE_NAMES[cfg.pht.feature_index]))
    drift_events = detect_drifts_in_columns(labels, values, **dataclasses.asdict(cfg.pht))
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "drift_events.csv")
    write_drift_csv(drift_events, path)
    return drift_events, path


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


def _run_model(cfg: ExperimentConfig, name: str, pretrain, stream, save_models: bool, slots=None, share=None) -> dict:
    """One model's static/online pair: write its report (and snapshots), return its summary entry.

    ``slots`` and ``share``, if given, are arf's split from ``_run_models``.
    """
    static_model = _build(cfg, name, slots)
    online_model = _build(cfg, name, slots)
    report = prequential_run(
        static_model,
        online_model,
        pretrain,
        stream,
        cfg.window,
        shuffle_seed=named_seed(cfg.seed, "pretrain-shuffle"),
        epochs=cfg.epochs,
        share=share,
    )
    export_report(report, os.path.join(cfg.out_dir, f"{name}_metrics.{cfg.format}"), cfg.format)
    if save_models:
        save_model(static_model, os.path.join(cfg.out_dir, f"{name}_static.model.json"))
        save_model(online_model, os.path.join(cfg.out_dir, f"{name}_online.model.json"))
    return {k: v for k, v in report.summary.items() if k != "window"}


def _build(cfg: ExperimentConfig, name: str, slots=None):
    """``cfg.build_model(name)``; a forest that learns only ``slots``, if given."""
    model = cfg.build_model(name)
    if slots is not None:
        model.learning = slots
    return model


def _pretrained(cfg: ExperimentConfig, name: str, pretrain, slots=None, share=None):
    model = _build(cfg, name, slots)
    _pretrain(model, pretrain, named_seed(cfg.seed, "pretrain-shuffle"), cfg.epochs, share)
    return model


class _ForkedFailure(DriftStreamError):
    """A failure that a forked process already mapped to main's exit code and stderr line."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code
        self.line = line


def _exit_status(err: BaseException):
    """(exit code, stderr line) for an error that main maps, else None."""
    if isinstance(err, _ForkedFailure):
        return err.code, err.line
    if isinstance(err, ConfigError):
        return EXIT_CONFIG, f"config error: {err}"
    if isinstance(err, OSError):
        if err.filename is None:
            return EXIT_IO, f"i/o error: {err}"
        # str(err) with each file name quoted through shortened, so that a long path prints bounded
        names = " -> ".join(shortened(name) for name in (err.filename, err.filename2) if name is not None)
        return EXIT_IO, f"i/o error: [Errno {err.errno}] {err.strerror}: {names}"
    if isinstance(err, DriftStreamError):
        return EXIT_RUNTIME, f"error: {err}"
    if isinstance(err, MemoryError):  # a size the config allows but the host cannot hold
        return EXIT_RUNTIME, f"error: out of memory: {err}"
    return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _outcome(work) -> tuple:
    """``("ok", work())``, or ``("failed", exit code, stderr line)``, since not every exception survives pickling.

    An interrupt propagates silently: the parent is interrupted too and
    prints the one traceback. Any other error that main would not map prints
    its traceback and propagates.
    """
    try:
        return ("ok", work())
    except KeyboardInterrupt:
        raise
    except BaseException as err:
        status = _exit_status(err)
        if status is None:
            traceback.print_exc()
            sys.stderr.flush()
            raise
        return ("failed", *status)


def _run_forked(kind: str, names: list, work, first=None) -> dict:
    """``{name: work(name, None) for name in names}``; with ``os.fork`` and two usable CPUs, in two processes.

    Then a forked child makes the calls for ``names[:-1]`` while the parent
    calls ``work(names[-1], receive)``, so no more processes than cores do
    the work. ``first``, if given, is a part of the last name's work that the
    child does before its own (arf's pretrained last slots, in ``run`` and
    ``bench``). One pipe carries ``first``'s ``_outcome``, then the child's
    names' ``_outcome``, and the parent reads it as one stream of messages:
    ``receive()`` opens the next one, and once the parent's own work ends,
    whether or not it called ``receive()``, the last one left is the result.
    arf's share pickles to 23 KB on the default config, 30 KB at the ingest
    sizes and 50 KB with 30 trees, inside a Linux pipe's 64 KiB buffer; a
    larger share only makes the child wait for the parent to read it. The
    child exits 0 after its result, and always through ``os._exit``, so it
    never returns into the caller's stack. A child that ends without a
    result is a DriftStreamError naming the ``kind`` of work and its names;
    its error wins over the parent's, since its names come first. A fork
    inherits the built streams without a copy; the package starts no
    threads, and numpy's BLAS pool shuts down across a fork through its own
    fork handler.
    """
    if len(names) < 2 or not hasattr(os, "fork") or _usable_cpus() < 2:
        return {name: work(name, None) for name in names}
    forked, last = names[:-1], names[-1]
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as result, os.fdopen(write_fd, "wb") as sink:
        sys.stdout.flush()  # so that the child holds no copy of unwritten output
        sys.stderr.flush()
        pid = os.fork()
        if not pid:
            code = 1
            try:
                if first is not None:
                    pickle.dump(_outcome(first), sink)
                    sink.flush()
                pickle.dump(_outcome(lambda: {name: work(name, None) for name in forked}), sink)
                sink.flush()
                code = 0
            finally:
                os._exit(code)
        sink.close()

        def read():
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # cut short: the exit status says why
                while True:
                    yield pickle.load(result)

        messages = read()
        try:
            try:
                entries, error = {last: work(last, first and (lambda: _opened(next(messages, None))))}, None
            except Exception as err:
                entries, error = {}, err
            message = None
            for message in messages:  # the last one left is the child's result
                pass
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
        finally:
            if pid is not None:  # the parent itself was interrupted
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        group = f"{kind} {forked[0]!r}" if len(forked) == 1 else f"{kind}s {','.join(forked)!r}"
        raise DriftStreamError(f"{group}: its process {how} without a result")
    child_entries = _opened(message)
    if error is not None:
        raise error
    return {**child_entries, **entries}


def _opened(message):
    """What an ``_outcome`` message from the child carries, or its failure raised."""
    if message is None:  # the child ended first: its exit status is reported
        raise DriftStreamError("no message arrived")
    if message[0] != "ok":
        raise _ForkedFailure(*message[1:])
    return message[1]


def _run_models(cfg: ExperimentConfig, pretrain, work, forked_slots: int) -> dict:
    """``work(name, slots, share)`` per model through ``_run_forked``, with ``(None, None)`` unless arf splits.

    When arf is the last of several models and they fork, the child first
    pretrains arf's last ``forked_slots`` slots, if any, and this process's
    arf gets the others and the ``share``.
    """
    split = cfg.arf.n_trees - forked_slots
    head, tail = range(split), range(split, cfg.arf.n_trees)
    first = (lambda: _pretrained(cfg, "arf", pretrain, tail)) if cfg.models[-1] == "arf" and tail else None
    return _run_forked("model", cfg.models, lambda name, share: work(name, share and head, share), first)


def cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    """Run each model's static/online pair; through ``_run_models``, all but the last in one child process.

    The pairs share nothing once the streams are built, so on a host with
    two usable CPUs they run side by side; a split arf is joined and
    streamed whole in this process. The outputs, stderr line and exit code
    are those of a serial run. Drift is localized first, on the merged
    columns the events are built from, as ``drift`` localizes it.
    """
    columns, boundary = _assemble(cfg, _EVENT_FIELDS)
    _localize(cfg, _EVENT_FIELDS, columns)
    pretrain, stream = _events(columns, boundary)
    # Two fifths of the slots, to the nearest, go to the child: its share of the pretrain plus lr and nb about
    # matches this process's share plus arf's streamed arms, both block passes.
    entries = _run_models(
        cfg,
        pretrain,
        lambda n, slots, share: _run_model(cfg, n, pretrain, stream, args.save_models, slots, share),
        (2 * cfg.arf.n_trees + 1) // 5,
    )
    summary = {
        "window": cfg.window,
        "seed": cfg.seed,
        "drift_boundary_index": boundary,
        "models": {name: entries[name] for name in cfg.models},
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    if not args.quiet:
        _emit_summary(cfg, summary)


def cmd_drift(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    """Localize drift per class over the merged stream's labels and ``cfg.pht``'s feature, building no event.

    ``_assemble`` keeps only those two columns, and ``_localize`` detects
    and writes the alarms as it does for ``run``.
    """
    names = ("label", FEATURE_NAMES[cfg.pht.feature_index])
    columns, boundary = _assemble(cfg, names)
    drift_events, path = _localize(cfg, names, columns)
    if not args.quiet:
        payload = {
            "drift_events": len(drift_events),
            "drift_boundary_index": boundary,
            "path": path,
        }
        print(json.dumps(payload, sort_keys=True))


def cmd_bench(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    """Time each model; through ``_run_models``, all but the last in one child process.

    At most one timed process runs per core, since a third runnable process
    on two cores puts time-slicing inside timed events; a split arf is
    joined and timed whole in this process, since a timed event cannot span
    two processes. Each model is pretrained and timed on its own copies, so
    the outputs, stderr line and exit code are those of a serial run.
    """
    pretrain, stream = _events(*_assemble(cfg, _EVENT_FIELDS))
    sample_stream = stream[: cfg.bench.events_per_trial]
    report_of = _run_models(
        cfg,
        pretrain,
        lambda name, slots, share: latency_benchmark(
            {name: _pretrained(cfg, name, pretrain, slots, share)},
            sample_stream,
            trials=cfg.bench.trials,
            warmup_trials=cfg.bench.warmup_trials,
        ),
        # half the slots, rounded down, go to the child: this process waits for them before it times anything
        cfg.arf.n_trees // 2,
    )
    report = dataclasses.replace(
        report_of[cfg.models[-1]],
        medians={name: report_of[name].medians[name] for name in cfg.models},
        raw_ms={name: report_of[name].raw_ms[name] for name in cfg.models},
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_latency_table(report, os.path.join(cfg.out_dir, "latency.csv"))
    write_latency_raw(report, os.path.join(cfg.out_dir, "latency_raw.csv"))
    if not args.quiet:
        print(json.dumps({"trials": report.trials, "medians": report.medians}, sort_keys=True))


def cmd_gen(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    """Write the two synthetic segments, their rows split evenly between two processes through ``_run_forked``.

    The rows are rendered from the generator's arrays by ``array_rows``, a
    chunk at a time, so no event and no list of a whole segment is built,
    in either process. A forked child writes the header and the first
    ⌈(n_sfd + n_hfd) / 2⌉ rows of sfd.csv (all of it, if it is shorter),
    while this process writes hfd.csv and renders the rest of sfd.csv into
    an unnamed temporary file in the output directory, which it appends
    once the child is done. The output directory is made before anything
    is synthesized. The bytes, stderr line and exit code are those of a
    serial write; when both processes fail, the child's (sfd.csv's) error
    is reported.
    """
    if cfg.stream.mode != "synth":
        raise ConfigError("stream.mode", "gen requires synth mode")
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = {name: os.path.join(cfg.out_dir, f"{name}.csv") for name in ("sfd", "hfd")}
    with _collector_paused(), contextlib.ExitStack() as files:
        sfd, hfd = synthetic_arrays(cfg.stream.synth, named_seed(cfg.seed, "generator"))
        n_sfd, n_hfd = len(sfd[0]), len(hfd[0])
        head = min(n_sfd, (n_sfd + n_hfd + 1) // 2)

        def write_hfd_and_render_tail():
            write_rows(array_rows(hfd, Segment.HFD, 0, n_hfd), paths["hfd"])
            tail = files.enter_context(tempfile.TemporaryFile(dir=cfg.out_dir))
            encode_rows(array_rows(sfd, Segment.SFD, head, n_sfd), tail)
            return tail

        writes = {
            "sfd": lambda: write_rows(array_rows(sfd, Segment.SFD, 0, head), paths["sfd"]),
            "hfd": write_hfd_and_render_tail,
        }
        tail = _run_forked("segment", list(writes), lambda name, _: writes[name]())["hfd"]
        tail.seek(0)
        with open(paths["sfd"], "ab") as fh:
            shutil.copyfileobj(tail, fh)
    if not args.quiet:
        payload = {"sfd_path": paths["sfd"], "sfd_events": n_sfd, "hfd_path": paths["hfd"], "hfd_events": n_hfd}
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
    except (DriftStreamError, OSError, MemoryError) as err:
        code, line = _exit_status(err)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
