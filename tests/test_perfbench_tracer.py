"""The benchmark's tracer installs on the package and uninstalls, and misses no name it does not already miss.

``perfbench/tracer.py`` wraps names in ``driftstream``'s modules from
outside, and dereferences some directly (``stats.RunningStats.update``), so
a refactor that moves or removes such a name breaks the benchmark's traced
run. This guard runs with the package's own tests.
"""

import importlib.util
import pathlib

from driftstream import cli, stats, streams

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# names the tracer patches that ``cli`` no longer looks up: their layers read 0 (ROADMAP item 2)
KNOWN_SKIPPED = {
    f"driftstream.cli.{name}"
    for name in (
        "generate_synthetic_segments",
        "load_csv",
        "write_csv",
        "merge_sfd_hfd",
        "random_oversample",
        "detect_drifts_per_class",
        "to_features",
    )
}


def test_the_tracer_installs_and_uninstalls_skipping_only_the_known_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (cli.write_drift_csv, streams.validate, stats.RunningStats.update)
    tracer = module.Tracer("t")
    tracer.install()
    try:
        assert cli.write_drift_csv is not originals[0]
    finally:
        tracer.uninstall()
    assert (cli.write_drift_csv, streams.validate, stats.RunningStats.update) == originals
    assert set(tracer.skipped) <= KNOWN_SKIPPED
