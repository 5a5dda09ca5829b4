"""driftstream benchmark: three workloads driven through the CLI.

Usage, from the root of a driftstream source checkout::

    python3 perfbench/run.py --workload paper-run --seed 7 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``paper-run``     ``driftstream run --save-models`` on the default config;
* ``serve-latency`` ``driftstream bench`` for lr, nb and arf, 10 trials;
* ``ingest-drift``  ``driftstream gen`` on a 6x scaled synthetic config, then
                    ``driftstream drift`` in file mode over the CSVs it wrote.

Every repeat is a fresh single-threaded Python process (``workload.py``)
that imports the package from ``src/`` of the checkout; repeats run one
after another for about ``--seconds``. Timer probes (``hostspeed.py``)
measure how fast the shared host runs during every process, and ``wall_s``
and ``setup_s`` are reported at the host's uncontended speed; the raw times
are in the ``# meta`` record. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics. Every repeat's outputs are checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Without a ``src/driftstream`` package next to
``perfbench/`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import hostspeed

WORKLOADS = ("paper-run", "serve-latency", "ingest-drift")
DEFAULT_SEED = 7
HELD_OUT_SEED = 11  # never used while tuning a change

MODELS = ["lr", "nb", "arf"]
DEADLINE_S = 165.0  # one invocation must end within 180 s
SETUP_PROBES = 5  # setup-only processes per untraced run, on top of the repeats
MIN_REPEATS = 3  # timed repeats per run, however long one takes
# Input seeds per untraced run. Repeats cycle through them, so a run's figure
# averages over inputs whose cost differs: forest learning grows different
# trees on different inputs. Seed s gives s, s + SEED_STRIDE, ... paper-run
# takes two, so that its first seed runs twice in three repeats and its
# output digest is compared in every run.
INPUT_SEEDS = {"paper-run": 2, "serve-latency": 3, "ingest-drift": 1}
SEED_STRIDE = 1000

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SERVE_UNITS = {f"{m}.{mode}_p50_us": "us" for mode in ("static", "online") for m in MODELS}
SERVE_UNITS["arf.online_p99_us"] = "us"
LAYER_UNITS = {
    "telemetry.validate.calls": "count",
    "telemetry.validate.us_per_call": "us",
    "telemetry.to_features.calls_per_event": "ratio",
    "streams.generate.ms": "ms",
    "streams.write_csv.us_per_row": "us",
    "streams.load_csv.us_per_row": "us",
    "streams.merge.ms": "ms",
    "streams.oversample.ms": "ms",
    "streams.oversample.copies": "count",
    "drift.detect_per_class.us_per_event": "us",
    "drift.alarms": "count",
    "drift.page_hinkley.updates_per_learn": "ratio",
    **{
        f"models.{m}.{name}": unit
        for m in MODELS
        for name, unit in (
            ("score_one.us", "us"),
            ("score_one.calls", "count"),
            ("learn_one.us", "us"),
            ("learn_one.calls", "count"),
            ("pretrain.ms", "ms"),
            ("snapshot.ms", "ms"),
            ("snapshot.bytes", "bytes"),
        )
    },
    "models.arf.check_sample.calls_per_learn": "ratio",
    "models.arf.tree_score.calls_per_learn": "ratio",
    "models.arf.tree_learn.calls_per_learn": "ratio",
    "stats.running_update.calls_per_learn": "ratio",
    "models.arf.n_warnings": "count",
    "models.arf.n_replacements": "count",
    "evaluation.rolling_update.us": "us",
    "evaluation.rolling_update.calls": "count",
    "evaluation.prequential.self_ms": "ms",
    "evaluation.export.ms": "ms",
    "evaluation.latency_benchmark.self_ms": "ms",
    "evaluation.degenerate_auc_windows": "count",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **SERVE_UNITS,
}

# Stream sizes per scale. "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests fast and still passes every output check.
SCALES = {
    "full": {
        "paper": {},
        "serve": {"bench": {"trials": 10}},
        "ingest_synth": {"n_sfd": 60000, "n_hfd": 30000, "sfd_episodes": 30, "hfd_episodes": 54},
    },
    "tiny": {
        "paper": {"window": 100, "stream": {"synth": {"n_sfd": 2000, "n_hfd": 1000, "hfd_episodes": 4}}},
        "serve": {
            "bench": {"trials": 2, "events_per_trial": 200},
            "stream": {"synth": {"n_sfd": 2000, "n_hfd": 1000, "hfd_episodes": 2}},
        },
        "ingest_synth": {"n_sfd": 2000, "n_hfd": 1000, "hfd_episodes": 2},
    },
}


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


class Workload:
    """Configs, CLI steps per input seed and output check of one workload.

    Paths are relative to the checkout root, so outputs (the manifest holds
    the output directory) are byte-identical from one repeat to the next.
    """

    def __init__(self, name: str, seed: int, scale: str, work: str):
        self.name, self.seed, self.work = name, seed, work
        sizes = SCALES[scale]
        self.out = f"{work}/out"
        self.data = None
        self.reference = None
        self.reference_steps: list[dict] = []
        self.seeds = [seed + SEED_STRIDE * j for j in range(INPUT_SEEDS[name])]
        if name == "paper-run":
            self.configs = {f"{work}/paper.json": sizes["paper"]}
            self.steps = {s: [{"cli": ["run", "--config", f"{work}/paper.json", "--seed", str(s), "--out", self.out,
                                       "--save-models"]}] for s in self.seeds}
            self.n_stream = sizes["paper"].get("stream", {}).get("synth", {}).get("n_hfd", 5000)
            self.expected_digest: dict[int, str] = {}
        elif name == "serve-latency":
            self.configs = {f"{work}/serve.json": sizes["serve"]}
            self.steps = {s: [{"cli": ["bench", "--config", f"{work}/serve.json", "--seed", str(s), "--out", self.out]}]
                          for s in self.seeds}
            self.trials = sizes["serve"]["bench"]["trials"]
            self.events = sizes["serve"]["bench"].get("events_per_trial", 1000)
        elif name == "ingest-drift":
            synth = sizes["ingest_synth"]
            self.data = f"{work}/data"
            oversample = {"target_failure_ratio": 0.5}
            file_stream = {
                "mode": "file",
                "sfd_path": f"{self.data}/sfd.csv",
                "hfd_path": f"{self.data}/hfd.csv",
                "column_map": {"OSNR_SPO2": "osnr_rx"},
            }
            self.configs = {
                f"{work}/gen.json": {"stream": {"synth": synth}},
                f"{work}/drift.json": {"stream": file_stream, "oversample": oversample},
                f"{work}/synth_drift.json": {"stream": {"synth": synth}, "oversample": oversample},
            }
            s = str(seed)  # its one input seed, which the reference below matches
            self.steps = {seed: [
                {"cli": ["gen", "--config", f"{work}/gen.json", "--seed", s, "--out", self.data]},
                {"rename_header": {"files": [f"{self.data}/sfd.csv", f"{self.data}/hfd.csv"],
                                   "from": "osnr_rx", "to": "OSNR_SPO2"}},
                {"cli": ["drift", "--config", f"{work}/drift.json", "--seed", s, "--out", self.out]},
            ]}
            self.reference_steps = [
                {"cli": ["drift", "--config", f"{work}/synth_drift.json", "--seed", s, "--out", f"{work}/reference"]}
            ]
            self.reference = f"{work}/reference/drift_events.csv"
            self.n_sfd, self.n_hfd = synth["n_sfd"], synth["n_hfd"]
        else:
            raise ValueError(name)

    def write_configs(self) -> None:
        for path, config in self.configs.items():
            _write_json(path, config)

    def clear_outputs(self) -> None:
        for path in (self.out, self.data):
            if path:
                shutil.rmtree(path, ignore_errors=True)

    def check(self, stdout: str, seed: int):
        try:
            return self._check(stdout, seed)
        except (ValueError, KeyError, TypeError, OSError) as err:  # unparsable output fails the check
            return [f"unreadable output: {err!r}"], {}

    def _check(self, stdout: str, seed: int):
        if self.name == "paper-run":
            expected = self.expected_digest.get(seed)
            problems, info = checks.check_paper_run(self.out, MODELS, self.n_stream, expected)
            if not problems and expected is None:
                self.expected_digest[seed] = info["digest"]
            return problems, info
        if self.name == "serve-latency":
            return checks.check_serve_latency(self.out, MODELS, self.trials, self.events, stdout)
        return checks.check_ingest_drift(self.data, self.out, self.n_sfd, self.n_hfd, self.reference)


class Runner:
    """Starts workload processes one at a time and keeps the tally."""

    def __init__(self, root: str, workload: Workload, deadline: float):
        self.root, self.workload, self.deadline = root, workload, deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.src = src
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def spawn(self, steps, *, setup_only=False, trace=False) -> dict:
        """Run one workload process; returns its result plus ``setup_s``."""
        self.count += 1
        work = self.workload.work
        spec_path, result_path = f"{work}/spec.json", f"{work}/result-{self.count}.json"
        spec = {
            "src": self.src,
            "configs": list(self.workload.configs),
            "steps": steps,
            "setup_only": setup_only,
            "trace": trace,
            "run_id": f"{self.workload.name}-{self.workload.seed}-{self.count}",
            "spans_path": f"{work}/spans-{self.count}.jsonl",
        }
        _write_json(spec_path, spec)
        timeout = max(1.0, self.deadline - time.perf_counter())
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "workload.py"), spec_path, result_path],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        result["spawned"] = start
        result["setup_s"] = result["ready"] - start
        return result

    def run_steps(self, steps, seed: int, *, trace=False, check=True) -> dict:
        """One timed repeat: every CLI step is an attempted operation."""
        self.workload.clear_outputs()
        result = self.spawn(steps, trace=trace)
        result["seed"] = seed
        step_failures = 0
        stdout = ""
        for step in result["steps"]:
            self.attempted += 1
            stdout = step["stdout"]
            if step["exit"] != 0 or step["error"]:
                step_failures += 1
                detail = step["error"] or step["stderr"]
                self.problems.append(f"{' '.join(step['argv'][:1])} exited {step['exit']}: {detail[-300:]}")
        result["info"] = {}
        if check and step_failures == 0:
            problems, result["info"] = self.workload.check(stdout, seed)
            if problems:
                step_failures = 1
                self.problems.extend(problems)
        self.failed += step_failures
        return result


def _median_dict(dicts: list[dict]) -> dict:
    keys = dicts[0].keys() if dicts else []
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def _git_commit(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "driftstream")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(root: str, name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    began = time.perf_counter()
    work = os.path.join(".perfbench", name)
    shutil.rmtree(os.path.join(root, work), ignore_errors=True)
    os.makedirs(os.path.join(root, work))
    os.chdir(root)
    workload = Workload(name, seed, scale, work)
    workload.write_configs()
    runner = Runner(root, workload, began + DEADLINE_S)

    # a discarded first process fills the bytecode cache
    versions = runner.spawn([], setup_only=True)
    setups = [] if trace else [runner.spawn([], setup_only=True) for _ in range(SETUP_PROBES)]
    if workload.reference:
        runner.run_steps(workload.reference_steps, seed, check=False)
    # a traced run keeps to one input seed, so its counts repeat exactly
    seeds = workload.seeds[:1] if trace else workload.seeds

    # Repeat while the next repeat is expected to end within ``seconds``, so a
    # run never measures for longer than asked; MIN_REPEATS bounds it below.
    plain, traced, durations = [], [], []
    measure_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        input_seed = seeds[len(plain) % len(seeds)]
        plain.append(runner.run_steps(workload.steps[input_seed], input_seed))
        if trace:
            traced.append(runner.run_steps(workload.steps[input_seed], input_seed, trace=True))
        now = time.perf_counter()
        durations.append(now - t0)
        expected = statistics.median(durations)
        if runner.deadline - now < 2.0 * expected:
            break
        if len(durations) >= MIN_REPEATS and now - measure_start + expected > seconds:
            break

    # Times at the development host's uncontended speed, from the probes.
    def wall(r):
        return sum(hostspeed.corrected(s["start"], s["end"], r["probes"]) for s in r["steps"])

    def setup(r):
        return hostspeed.corrected(r["spawned"], r["ready"], r["probes"])

    metrics: dict[str, float] = {}
    if trace:
        layers = _median_dict([r["layers"] for r in traced])
        metrics.update({k: v for k, v in layers.items() if k in LAYER_UNITS})
        metrics["trace.overhead_ratio"] = statistics.median(map(wall, traced)) / statistics.median(map(wall, plain))
        infos = [r["info"] for r in plain if r["info"]]
        metrics["evaluation.degenerate_auc_windows"] = infos[0].get("degenerate_auc_windows", 0) if infos else 0
        for key in SERVE_UNITS:
            values = [i[key] for i in infos if key in i]
            metrics[key] = statistics.median(values) if values else 0.0
        units = LAYER_UNITS
    else:
        setups += plain
        metrics["setup_s"] = statistics.median(map(setup, setups))
        # the mean over input seeds of each seed's median repeat
        by_seed: dict[int, list[float]] = {}
        for r in plain:
            by_seed.setdefault(r["seed"], []).append(wall(r))
        metrics["wall_s"] = statistics.fmean(statistics.median(times) for times in by_seed.values())
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] / 1024.0 for r in plain)
        units = END_TO_END_UNITS

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    infos = [r["info"] for r in plain + traced if r["info"]]
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "input_seeds": seeds,
        "repeat_seeds": [r["seed"] for r in plain],
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "setup_samples": len(setups),
        "probe_ms_median": statistics.median(1e3 * took for r in plain for _, took in r["probes"]),
        "raw_setup_s": statistics.median(r["setup_s"] for r in setups) if setups else None,
        "raw_wall_s": statistics.median(r["wall_s"] for r in plain),
        "wall_s_samples": [wall(r) for r in plain],
        "raw_wall_s_samples": [r["wall_s"] for r in plain],
        "traced_wall_s_samples": [wall(r) for r in traced],
        "peak_rss_mb_samples": [r["peak_rss_kb"] / 1024.0 for r in plain],
        "failed_ops_ratio": runner.failed / max(1, runner.attempted),
        "problems": runner.problems[:20],
        "python": versions["python"],
        "numpy": versions["numpy"],
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(root),
        "outputs": infos[-1] if infos else {},
        "digests": workload.expected_digest if name == "paper-run" else {},
    }
    if trace:
        meta["layer_ms"] = _median_dict([r["layer_ms"] for r in traced]) if traced else {}
        meta["skipped_patches"] = traced[0]["skipped_patches"] if traced else []
    if name == "serve-latency" and not trace:
        meta["serve_latency_us"] = _median_dict([r["info"] for r in plain if r["info"]]) if runner.failed == 0 else {}
    return {
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "meta": meta,
    }


def _print_report(report: dict) -> None:
    meta, result = report["meta"], report["result"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  repeats {meta['repeats']}"
          f"  traced {meta['traced_repeats']}  python {meta['python']}  numpy {meta['numpy']}"
          f"  nproc {meta['nproc']}  src_lines {meta['src_lines']}  commit {meta['git_commit']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_ops_ratio':42s} {meta['failed_ops_ratio']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} CLI calls)")
    for key, value in sorted(meta.get("serve_latency_us", {}).items()):
        print(f"  {key:42s} {value:>14.6g} us")
    if meta["workload"] == "paper-run" and meta["outputs"]:
        print(f"  output digest {meta['outputs'].get('digest')}  arf_online.model.json "
              f"{meta['outputs'].get('arf_online_sha256')}")
    if meta.get("layer_ms"):
        ranked = sorted(meta["layer_ms"].items(), key=lambda kv: -kv[1])
        print("  traced time by layer, children included (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in ranked[:10]))
    for problem in meta["problems"]:
        print(f"  FAILED: {problem}")
    print("# meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"root seed of the inputs; performance claims are confirmed on seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    # Exit through SystemExit on SIGTERM, so subprocess.run kills and waits
    # for the workload process it is running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "driftstream", "__init__.py")):
        print("perfbench: no src/driftstream package in the current directory; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        report = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    with open(os.path.join(root, ".perfbench", args.workload, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
