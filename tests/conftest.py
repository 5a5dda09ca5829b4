import os

import numpy as np
import pytest

from driftstream.config import ExperimentConfig, named_seed
from driftstream.evaluation import prequential_run
from driftstream.streams import generate_synthetic_segments, merge_sfd_hfd
from driftstream.telemetry import CSV_COLUMNS, Label, Segment, TelemetryEvent, serialize_row


def make_event(
    i=0,
    ber_tx=1e-9,
    osnr_tx=32.0,
    ber_rx=1e-6,
    osnr_rx=25.0,
    label=0,
    segment=Segment.SFD,
):
    return TelemetryEvent(
        timestamp=i,
        ber_tx=ber_tx,
        osnr_tx=osnr_tx,
        ber_rx=ber_rx,
        osnr_rx=osnr_rx,
        label=Label(label),
        segment=segment,
    )


def as_record(event):
    """The string record of an event, as one CSV row reads back."""
    return dict(zip(CSV_COLUMNS, serialize_row(event)))


def make_stream(osnr_values, labels, segment=Segment.SFD, seed=0):
    """Events whose osnr_rx follows the given series; other features quiet."""
    rng = np.random.default_rng(seed)
    events = []
    for i, (osnr, label) in enumerate(zip(osnr_values, labels)):
        events.append(
            make_event(
                i,
                ber_tx=float(rng.uniform(0, 1e-9)),
                osnr_tx=float(32.0 + rng.normal(0, 0.1)),
                ber_rx=float(rng.uniform(0, 1e-6)),
                osnr_rx=float(osnr),
                label=int(label),
                segment=segment,
            )
        )
    return events


def one_cpu(monkeypatch):
    """Make this host report a single usable CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The calls to ``os.fork``, on a host made to report two usable CPUs.

    A command forks only where two CPUs are usable, so a test that needs the
    forked path takes this fixture to get it on any host.
    """
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_stream_parts(default_config):
    cfg = default_config
    sfd, hfd = generate_synthetic_segments(
        cfg.stream.synth, named_seed(cfg.seed, "generator")
    )
    merged = merge_sfd_hfd(sfd, hfd)
    return merged[: len(sfd)], merged[len(sfd) :], len(sfd)


@pytest.fixture(scope="session")
def default_experiment(default_config, default_stream_parts):
    """Full default run for all three models; shared across acceptance tests."""
    import time

    cfg = default_config
    pretrain, stream, _ = default_stream_parts
    reports = {}
    t0 = time.perf_counter()
    for name in ("lr", "nb", "arf"):
        static_model = cfg.build_model(name)
        online_model = cfg.build_model(name)
        reports[name] = prequential_run(
            static_model,
            online_model,
            pretrain,
            stream,
            cfg.window,
            shuffle_seed=named_seed(cfg.seed, "pretrain-shuffle"),
            epochs=cfg.epochs,
        )
    return {"reports": reports, "elapsed_s": time.perf_counter() - t0}
