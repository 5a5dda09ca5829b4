"""Memory bounds of the ingest edge, traced by ``tracemalloc``, which counts numpy's array buffers too.

``gen`` renders its rows from the generator's arrays a chunk at a time, so
its traced peak grows by about the arrays' bytes per row, not by a Python
object per cell. ``read_part`` with ``names`` keeps only those columns,
so what it holds grows by their bytes per row, whatever else the file has.
Those bounds are slopes between two sizes, so the chunk-sized buffers and
the interpreter's own allocations cancel out. The chunk-sized buffers are
bounded on their own, as the traced peak less what the read keeps.
"""

import gc
import os
import tracemalloc

import numpy as np

from driftstream import streams
from driftstream.cli import main
from driftstream.streams import SynthConfig, generate_synthetic_segments, write_csv

from test_cli import write_config


def traced_peak(work) -> int:
    """The peak of the memory traced while ``work()`` runs, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_trace_counts_numpy_buffers():
    assert traced_peak(lambda: np.ones(1 << 20)) >= 8 << 20


def test_inline_gen_peak_grows_by_less_than_100_bytes_a_row(tmp_path, monkeypatch):
    """The parent held every cell of both segments as a Python object, about 155 bytes a row."""
    monkeypatch.delattr(os, "fork")  # so that both files are written, and traced, in this process
    peaks = {}
    for n_rows in (9000, 36000):
        n_sfd, n_hfd = 2 * n_rows // 3, n_rows // 3  # the ingest benchmark's proportions
        synth = {"n_sfd": n_sfd, "n_hfd": n_hfd, "sfd_episodes": n_sfd // 2000, "hfd_episodes": n_hfd // 555}
        cfg = write_config(tmp_path, {"stream": {"mode": "synth", "synth": synth}}, name=f"{n_rows}.json")
        argv = ["gen", "--config", cfg, "--seed", "7", "--out", str(tmp_path / str(n_rows)), "--quiet"]
        peaks[n_rows] = traced_peak(lambda: main(argv))
        assert (tmp_path / str(n_rows) / "sfd.csv").read_bytes().count(b"\n") == n_sfd + 1
    assert (peaks[36000] - peaks[9000]) / 27000 < 100


def test_read_columns_of_two_names_holds_only_their_bytes_a_row(tmp_path, monkeypatch):
    """A float and a shared label are 40 bytes a row; every field of a row takes about 180."""
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 256)
    paths = {}
    for n_rows in (2000, 10000):
        sfd, _ = generate_synthetic_segments(SynthConfig(n_sfd=n_rows, n_hfd=0, sfd_episodes=1), 3)
        paths[n_rows] = str(tmp_path / f"{n_rows}.csv")
        write_csv(sfd, paths[n_rows])
        del sfd

    def per_row(**kwargs) -> float:
        small, large = (traced_peak(lambda: streams.read_part(paths[n], **kwargs).columns) for n in (2000, 10000))
        return (large - small) / 8000

    assert per_row(names=("label", "osnr_rx")) < 80 < per_row()
    label, osnr_rx = streams.read_part(paths[2000], names=("label", "osnr_rx")).columns
    assert len(label) == len(osnr_rx) == 2000


def test_the_parents_file_mode_read_holds_one_chunk_of_transients(tmp_path):
    """The tail of sfd.csv, then hfd.csv: about 1.1 KB a chunk row, 1.2 MB at 1,024 rows and 4.5 MB at 4,096."""
    paths = [str(tmp_path / f"{name}.csv") for name in ("sfd", "hfd")]
    for events, path in zip(generate_synthetic_segments(SynthConfig(12000, 6000, sfd_episodes=4, hfd_episodes=6), 3),
                            paths):
        write_csv(events, path)
    split = streams.line_start(paths[0], (os.path.getsize(paths[0]) + os.path.getsize(paths[1])) // 2)
    names = ("label", "osnr_rx")
    kept = []

    def read():
        kept.append(streams.read_part(paths[0], split, names=names))
        kept.append(streams.read_part(paths[1], names=names).columns)
        kept.append(tracemalloc.get_traced_memory()[0])

    peak = traced_peak(read)
    tail, hfd, held = kept
    assert tail.rows > 2000 and len(hfd[0]) == 6000
    assert peak - held < 1_500_000
