"""Streaming online-learning toolkit for failure detection under concept drift.

The library covers the full desk-scale experiment pipeline: telemetry
validation, stream assembly (CSV ingestion, segment merging, failure
oversampling, seeded synthesis), sequential drift detection, three
incremental classifiers, and a prequential evaluation harness with rolling
metrics and latency benchmarking.
"""

__version__ = "0.1.0"

from .drift import (
    ClassContext,
    Direction,
    DriftEvent,
    PageHinkley,
    correlation_rank,
    detect_drifts_per_class,
)
from .evaluation import (
    ExperimentReport,
    LatencyReport,
    RollingMetrics,
    export_report,
    latency_benchmark,
    prequential_run,
    rolling_auc,
)
from .models import (
    AdaptiveRandomForest,
    GaussianNB,
    HoeffdingTree,
    LogisticRegression,
    load_model,
    save_model,
)
from .streams import (
    OversampleConfig,
    StreamConfig,
    SynthConfig,
    generate_synthetic,
    generate_synthetic_segments,
    load_csv,
    merge_sfd_hfd,
    random_oversample,
    write_csv,
)
from .telemetry import (
    FEATURE_NAMES,
    OSNR_RX_INDEX,
    FeatureVector,
    Label,
    Segment,
    TelemetryEvent,
    to_features,
    validate,
)

__all__ = [
    "__version__",
    "AdaptiveRandomForest",
    "ClassContext",
    "correlation_rank",
    "detect_drifts_per_class",
    "Direction",
    "DriftEvent",
    "ExperimentReport",
    "export_report",
    "FEATURE_NAMES",
    "FeatureVector",
    "GaussianNB",
    "generate_synthetic",
    "generate_synthetic_segments",
    "HoeffdingTree",
    "Label",
    "latency_benchmark",
    "LatencyReport",
    "load_csv",
    "load_model",
    "LogisticRegression",
    "merge_sfd_hfd",
    "OSNR_RX_INDEX",
    "OversampleConfig",
    "PageHinkley",
    "prequential_run",
    "random_oversample",
    "rolling_auc",
    "RollingMetrics",
    "save_model",
    "Segment",
    "StreamConfig",
    "SynthConfig",
    "TelemetryEvent",
    "to_features",
    "validate",
    "write_csv",
]
