"""A custom control policy, hand-wired and as a registered algorithm.

Shows how to build a custom split-federated-learning setup without the
experiment runner: construct a model, split it at a chosen layer, create
workers and a simulated cluster, plug in a custom control policy and drive
the training engine by hand.  This is the path a downstream user would take
to prototype a new selection or batching strategy.  The last step is the
library's one extension route: the same policy registered as an algorithm
(three lines) and run through ``Session`` like any built-in.

Usage::

    python examples/custom_split_learning.py
"""

import numpy as np

from repro import Session, register_algorithm
from repro.config import ExperimentConfig
from repro.core.batching import regulate_batch_sizes
from repro.core.controller import ControlContext, RoundPlan
from repro.core.engine import SplitTrainingEngine
from repro.core.worker import SplitWorker
from repro.data.partition import partition_dataset
from repro.data.synthetic import make_speech
from repro.nn.models import build_cnn_s, default_split_layer
from repro.nn.split import split_model
from repro.simulation.cluster import build_cluster


class TopKFastestPolicy:
    """A custom control policy: merge features of the K fastest workers.

    Demonstrates the policy interface: any object with ``merge_features``,
    ``aggregate_every_iteration`` and ``plan_round`` can drive the engine.
    """

    merge_features = True
    aggregate_every_iteration = False

    def __init__(self, k: int) -> None:
        self.k = k

    def plan_round(self, context: ControlContext) -> RoundPlan:
        order = np.argsort(context.per_sample_durations)
        selected = sorted(int(worker) for worker in order[: self.k])
        batch_sizes = regulate_batch_sizes(
            context.per_sample_durations, context.max_batch_size
        )
        return RoundPlan(
            selected=selected,
            batch_sizes={worker: int(batch_sizes[worker]) for worker in selected},
        )


def main() -> None:
    config = ExperimentConfig(
        dataset="speech",
        model="cnn_s",
        model_width=0.5,
        num_workers=8,
        num_rounds=4,
        local_iterations=6,
        non_iid_level=5.0,
        max_batch_size=16,
        base_batch_size=8,
        learning_rate=0.08,
        train_samples=640,
        test_samples=160,
        seed=3,
    )

    # 1. Data: synthetic Google-Speech analogue, Dirichlet-partitioned.
    data = make_speech(config.train_samples, config.test_samples, seed=config.seed)
    shards = partition_dataset(
        data.train, config.num_workers, config.non_iid_level, seed=config.seed
    )

    # 2. Model: CNN-S split after its 4th conv layer (as in the paper).
    model = build_cnn_s(width=config.model_width, seed=config.seed)
    split = split_model(model, default_split_layer("cnn_s", model))
    print(f"bottom layers: {len(split.bottom)}, top layers: {len(split.top)}")

    # 3. Workers and the simulated Jetson/WiFi cluster.
    workers = [
        SplitWorker(i, data.train.subset(shard), data.num_classes, seed=i)
        for i, shard in enumerate(shards)
    ]
    cluster = build_cluster(config.num_workers, config.bandwidth_budget_mbps,
                            seed=config.seed)

    # 4. A custom policy plugged into the shared training engine.
    engine = SplitTrainingEngine(
        config=config,
        split=split,
        workers=workers,
        cluster=cluster,
        data=data,
        policy=TopKFastestPolicy(k=5),
    )
    report(engine.run())

    # 5. The same policy as a registered algorithm: the session builds the
    #    components and the configured executor and population reach the
    #    engine through ``from_components``.
    @register_algorithm("topk_fastest")
    def build_topk_fastest(components):
        return SplitTrainingEngine.from_components(components, TopKFastestPolicy(k=5))

    with Session.from_config(config.replace(algorithm="topk_fastest")) as session:
        report(session.run())


def report(history) -> None:
    for record in history:
        print(f"round {record.round_index}: "
              f"selected={record.num_selected} "
              f"batch={record.total_batch} "
              f"acc={record.test_accuracy:.3f} "
              f"time={record.sim_time:.1f}s")


if __name__ == "__main__":
    main()
