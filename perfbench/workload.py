"""One benchmark repeat, run in a fresh single-threaded Python process.

Usage (started by ``perfbench/run.py``, from the root of a source checkout)::

    python3 perfbench/workload.py SPEC.json RESULT.json

SPEC names the config files to resolve during setup and the steps to run:
``{"cli": [...argv...]}`` calls ``driftstream.cli.main`` and is timed;
``{"rename_header": {...}}`` rewrites a CSV header and is not timed. With
``"setup_only"`` the process stops once the CLI entry point can be called.
With ``"trace"`` every CLI call runs under the tracer in ``tracer.py``.

RESULT receives the setup end time on the shared monotonic clock, every
step's exit code, captured output, start and end, the peak resident memory,
the host-speed probes of ``hostspeed.py`` (they run all through the process)
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from hostspeed import Probes


def _rename_header(spec: dict) -> None:
    """Rename one CSV column in place, streaming the body so memory stays flat."""
    for path in spec["files"]:
        with open(path, encoding="utf-8", newline="") as src, open(path + ".tmp", "w", encoding="utf-8",
                                                                   newline="") as dst:
            header = src.readline()
            columns = header.rstrip("\r\n").split(",")
            if spec["from"] not in columns:
                raise ValueError(f"{path}: no {spec['from']!r} column to rename")
            columns = [spec["to"] if c == spec["from"] else c for c in columns]
            dst.write(",".join(columns) + header[len(header.rstrip("\r\n")):])
            shutil.copyfileobj(src, dst)
        os.replace(path + ".tmp", path)


def _call_cli(main, argv: list[str], tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    run = main if tracer is None else tracer.span(f"cli.{argv[0]}", main)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash of the benchmark
        error = traceback.format_exc()
    end = time.perf_counter()
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "start": start,
        "end": end,
        "seconds": end - start,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main(spec_path: str, result_path: str) -> int:
    probes = Probes()
    probes.start()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    # -- setup: imports and config resolution ---------------------------------
    import driftstream
    from driftstream.cli import main as cli_main
    from driftstream.config import load_config

    expected_src = os.path.realpath(spec["src"])
    if not os.path.realpath(driftstream.__file__).startswith(expected_src + os.sep):
        raise RuntimeError(f"driftstream imported from {driftstream.__file__}, not {expected_src}")
    for path in spec["configs"]:
        load_config(path).validate()
    ready = time.perf_counter()

    result: dict = {"ready": ready, "steps": []}
    if not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        wall = 0.0
        for step in spec["steps"]:
            if "rename_header" in step:
                try:
                    _rename_header(step["rename_header"])
                except (OSError, ValueError):  # the previous call wrote no usable CSV
                    result["steps"][-1]["error"] = traceback.format_exc()
                    break
                continue
            record = _call_cli(cli_main, step["cli"], tracer)
            wall += record["seconds"]
            result["steps"].append(record)
        result["wall_s"] = wall
        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(spec["spans_path"])
            result["layers"] = tracer.layer_metrics()
            result["layer_ms"] = tracer.layer_ms()
            result["skipped_patches"] = tracer.skipped

    import numpy

    probes.stop()
    result["probes"] = probes.marks
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
