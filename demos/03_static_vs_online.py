"""Static vs online models across the drift boundary (test-then-train).

Both arms are pretrained on the soft-failure segment. The hard-failure
segment is then streamed: the static arm only predicts, the online arm
predicts and then learns from each revealed label. Rolling accuracy over a
sliding window shows the static arm collapsing at the regime change while
the online arm adapts within a few hundred events.
"""

from driftstream import SynthConfig, generate_synthetic_segments, merge_sfd_hfd, prequential_run
from driftstream.config import ExperimentConfig

cfg = ExperimentConfig()
cfg.stream.synth = SynthConfig(n_sfd=4000, n_hfd=2500, sfd_episodes=3, hfd_episodes=5)
sfd, hfd = generate_synthetic_segments(cfg.stream.synth, seed=42)
merged = merge_sfd_hfd(sfd, hfd)
pretrain, stream = merged[: len(sfd)], merged[len(sfd):]

window = 250
for name in ("lr", "nb", "arf"):
    static_model = cfg.build_model(name)
    online_model = cfg.build_model(name)
    report = prequential_run(
        static_model, online_model, pretrain, stream, window, shuffle_seed=7
    )
    summary = report.summary
    print(f"\n=== {name} ===")
    print(f"accuracy at the end of pretraining: "
          f"{summary['arms']['static']['sfd_end_accuracy']:.3f}")
    print("rolling accuracy along the stream (static vs online):")
    for t in range(window - 1, len(stream), 500):
        print(f"  event {t:>5}: static {report.arms['static'].accuracy[t]:.3f}   "
              f"online {report.arms['online'].accuracy[t]:.3f}")
    print(f"max online-minus-static gap: {summary['max_accuracy_gap_points']:.3f} "
          f"accuracy points")
    print(f"final rolling AUC: static {report.arms['static'].auc[-1]:.3f}, "
          f"online {report.arms['online'].auc[-1]:.3f}")
