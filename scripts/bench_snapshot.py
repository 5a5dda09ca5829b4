"""Write BENCH_<n>.json at the repository root from the latest benchmark reports.

Run the three workloads first, then this script, from the root of a source
checkout:

    python3 perfbench/run.py --workload paper-run     --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-latency --seconds 30 --trace 0
    python3 perfbench/run.py --workload ingest-drift  --seconds 30 --trace 0
    python3 scripts/bench_snapshot.py 8

It reads ``.perfbench/<workload>/report.json`` for each workload, keeps the
end-to-end metrics and the run's provenance, runs the Tier-1 suite once for
its pass count and wall time, and writes ``BENCH_8.json``.

    python3 scripts/bench_snapshot.py --trajectory

prints one row per committed ``BENCH_<n>.json`` instead, oldest measured
commit first: each workload's ``wall_s`` and ``peak_rss_mb``, the Tier-1
time and the line count of ``src/``, so that speed, memory and size read
side by side. A commit printed as
``<sha7>+`` means that ``src/`` held uncommitted changes on top of it when the
snapshot was taken (the file's ``src_uncommitted`` field).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-run", "serve-latency", "ingest-drift")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
META_KEYS = (
    "seed", "input_seeds", "seconds", "trace", "repeats", "wall_s_samples", "peak_rss_mb_samples",
    "failed_ops_ratio", "python", "numpy", "nproc", "git_commit", "src_lines",
)


def workload_entry(report: dict) -> dict:
    """The end-to-end metrics, outcome and provenance of one report.json."""
    result, meta = report["result"], report["meta"]
    if meta["scale"] != "full":  # perfbench's own tests leave tiny-scale reports in the same place
        raise ValueError(f"{meta['workload']}: report is at scale {meta['scale']!r}, not 'full'; rerun the workload")
    return {
        "metrics": {name: result["metrics"][name]["value"] for name in END_TO_END},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{key: meta[key] for key in META_KEYS},
    }


def parse_pytest_summary(output: str) -> dict:
    """Pass count and wall time from pytest's last summary line."""
    lines = [line for line in output.strip().splitlines() if re.search(r" in [\d.]+s", line)]
    if not lines:
        raise ValueError("no pytest summary line found")
    summary = lines[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "seconds": float(re.search(r" in ([\d.]+)s", summary).group(1)),
    }


def run_tier1(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    return parse_pytest_summary(proc.stdout)


def src_sha256(root: str) -> str:
    """One digest of every .py file under src/driftstream, to name the measured code."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "driftstream")
    for dirpath, dirnames, files in os.walk(base):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def src_uncommitted(root: str) -> bool:
    """True when ``git status`` lists a change under src/: the reports' ``git_commit`` is then the parent
    of the measured tree, not the tree itself. False outside a git checkout."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root, capture_output=True, text=True)
    return proc.returncode == 0 and proc.stdout.strip() != ""


def snapshot(root: str, tier1: dict) -> dict:
    workloads = {}
    for name in WORKLOADS:
        with open(os.path.join(root, ".perfbench", name, "report.json"), encoding="utf-8") as fh:
            workloads[name] = workload_entry(json.load(fh))
    return {"src_sha256": src_sha256(root), "src_uncommitted": src_uncommitted(root), "tier1": tier1,
            "workloads": workloads}


def commit_order(root: str) -> dict:
    """Commit -> its position in the history of HEAD, oldest first; empty outside a git checkout."""
    proc = subprocess.run(["git", "rev-list", "--reverse", "HEAD"], cwd=root, capture_output=True, text=True)
    return {sha: i for i, sha in enumerate(proc.stdout.split())} if proc.returncode == 0 else {}


def trajectory(root: str, order: dict) -> list[dict]:
    """One row per BENCH_<n>.json at ``root``, ordered by the commit it measured, then by n."""
    rows = []
    for name in os.listdir(root):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if not match:
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            data = json.load(fh)
        workloads = data["workloads"]
        first = next(iter(workloads.values()))
        row = {
            "n": int(match.group(1)),
            "commit": first["git_commit"],
            "wall_s": {w: workloads[w]["metrics"]["wall_s"] for w in WORKLOADS if w in workloads},
            "peak_rss_mb": {w: workloads[w]["metrics"]["peak_rss_mb"] for w in WORKLOADS if w in workloads},
            "tier1_s": data["tier1"]["seconds"],
            "src_lines": first["src_lines"],
        }
        if data.get("src_uncommitted"):  # files written before the field existed leave it out
            row["uncommitted"] = True
        rows.append(row)
    rows.sort(key=lambda row: (order.get(row["commit"], float("inf")), row["n"]))
    return rows


def workload_cells(row: dict, workload: str) -> list[str]:
    """A trajectory row's ``wall_s`` and ``peak_rss_mb`` of one workload, or dashes if it was not measured."""
    if workload not in row["wall_s"]:
        return ["-", "-"]
    return [f"{row['wall_s'][workload]:.3f}", f"{row['peak_rss_mb'][workload]:.1f}"]


def format_trajectory(rows: list[dict]) -> str:
    header = ["bench", "commit", *(f"{w} {unit}" for w in WORKLOADS for unit in ("s", "MB")), "tier1 s", "src lines"]
    table = [header] + [
        [f"BENCH_{row['n']}", row["commit"][:7] + ("+" if row.get("uncommitted") else ""),
         *(cell for w in WORKLOADS for cell in workload_cells(row, w)),
         f"{row['tier1_s']:.1f}", str(row["src_lines"])]
        for row in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.rjust(width) for cell, width in zip(line, widths)) for line in table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, nargs="?", help="the n of BENCH_<n>.json")
    parser.add_argument("--trajectory", action="store_true", help="print the committed BENCH files as one table")
    args = parser.parse_args(argv)
    if args.trajectory:
        print(format_trajectory(trajectory(ROOT, commit_order(ROOT))))
        return 0
    if args.number is None:
        parser.error("give the n of BENCH_<n>.json, or --trajectory")
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    data = snapshot(ROOT, run_tier1(ROOT))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
