"""Quickstart: train MergeSFL on a synthetic CIFAR-10 analogue.

Drives MergeSFL through the steppable :class:`repro.Session` API: per-round
progress streams through a ``round_end`` event handler, and the run is split in
two halves with a JSON checkpoint round trip in between to demonstrate
bit-exact resume.  Takes well under a minute on a laptop CPU.

Usage::

    python examples/quickstart.py

Set ``QUICKSTART_TINY=1`` (used by the CI smoke job) to shrink the run to a
few seconds.
"""

import os
import tempfile

from repro import ExperimentConfig, Session
from repro.metrics.summary import best_accuracy, final_accuracy, mean_waiting_time
from repro.utils.logging import configure_logging


def main() -> None:
    configure_logging()
    tiny = bool(os.environ.get("QUICKSTART_TINY"))
    config = ExperimentConfig(
        algorithm="mergesfl",
        dataset="cifar10",        # synthetic CIFAR-10 analogue (3x32x32, 10 classes)
        model="alexnet_s",        # scaled-down AlexNet, split after the 5th conv
        num_workers=4 if tiny else 8,
        num_rounds=2 if tiny else 5,
        local_iterations=2 if tiny else 6,     # tau
        non_iid_level=10.0,       # p = 1/delta as in the paper
        max_batch_size=16,        # D, assigned to the fastest worker
        base_batch_size=8,
        learning_rate=0.08,
        model_width=0.25 if tiny else 0.5,
        train_samples=160 if tiny else 640,
        test_samples=80 if tiny else 200,
        seed=42,
    )

    session = Session.from_config(config)

    print(f"MergeSFL on {config.dataset} (non-IID p={config.non_iid_level:g})")
    print(f"{'round':>5} {'sim time (s)':>12} {'waiting (s)':>11} "
          f"{'traffic (MB)':>12} {'accuracy':>9}")

    @session.on("round_end")
    def report(session, event):
        record = event.record
        print(f"{record.round_index:>5} {record.sim_time:>12.1f} "
              f"{record.waiting_time:>11.2f} {record.traffic_mb:>12.1f} "
              f"{record.test_accuracy:>9.3f}")

    # First half of the schedule, then a checkpoint round trip: the resumed
    # session continues bit-exactly where the saved one stopped.
    session.run(config.num_rounds // 2)
    checkpoint = os.path.join(tempfile.mkdtemp(), "quickstart.ckpt.json")
    session.save_checkpoint(checkpoint)

    resumed = Session.load_checkpoint(checkpoint)
    resumed.on("round_end", report)
    history = resumed.run()          # the remaining rounds

    print(f"\nresumed from {checkpoint} after round {config.num_rounds // 2 - 1}")
    print(f"final accuracy : {final_accuracy(history):.3f}")
    print(f"best accuracy  : {best_accuracy(history):.3f}")
    print(f"avg waiting    : {mean_waiting_time(history):.2f} s/round")
    print(f"total traffic  : {history.records[-1].traffic_mb:.1f} MB")


if __name__ == "__main__":
    main()
