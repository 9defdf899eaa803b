"""The benchmark's workloads: which experiment each run drives, and why.

Names are fixed; later issues refer to them.  Every workload is a plain
``ExperimentConfig`` (the program sees nothing else) plus the number of
measured rounds after the warm-up round 0 and the accuracy target of the
paper's time/traffic-to-accuracy metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: AlexNet-S @0.4 on the CIFAR-10 analogue, 16 strongly non-IID workers: the
#: ROADMAP profile scenario shared by the three conv workloads.
_CONV = dict(
    dataset="cifar10", model="alexnet_s", model_width=0.4, non_iid_level=10,
    num_workers=16, local_iterations=5, train_samples=1280, test_samples=160,
    learning_rate=0.08, max_batch_size=16, base_batch_size=8,
)

#: What makes ``conv_process`` a different topology from ``conv_serial``.
_PROCESS = dict(
    executor="process", transport="shm", pipeline="pipelined",
    extras={"executor_processes": 2},
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Fixed identifier (also the ``--workload`` value).
        why: One line on which layers it stresses.
        config: ``ExperimentConfig`` keyword arguments, seed excluded.
        rounds: Measured rounds after the warm-up round 0; the simulated
            metrics are taken over exactly these ``1 + rounds`` records.
        target: Test accuracy of the to-target metrics.
        replay_rounds: Leading rounds re-run on a fresh reference session
            and compared record by record (the correctness check).
        reference: Config overrides of that reference session; empty means
            the same config (a determinism check), ``conv_process`` replays
            on the serial/sync topology it must be bit-exact with.
    """

    name: str
    why: str
    config: dict
    rounds: int
    target: float
    replay_rounds: int = 1
    reference: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="conv_serial",
        why="MergeSFL on AlexNet-S, serial executor: nn kernels and "
            "Module.clone() at install/evaluate do the work; selection and "
            "transport do almost none.",
        config=dict(_CONV, algorithm="mergesfl"),
        rounds=9, target=0.6,
    ),
    Workload(
        name="conv_process",
        why="Same arithmetic as conv_serial on 2 child processes over shm, "
            "pipelined: transport, scheduling and parent wait dominate; "
            "records must equal conv_serial's.",
        config=dict(_CONV, algorithm="mergesfl", **_PROCESS),
        rounds=9, target=0.6,
        reference=dict(executor="serial", transport="pipe", pipeline="sync",
                       extras={}),
    ),
    Workload(
        name="fleet_mlp",
        why="1000-worker MLP fleet: per-worker Python dispatch, plan/GA, "
            "merge/dispatch and 500-state aggregation dominate; conv kernels "
            "do nothing, so a kernel change must show no change here.",
        config=dict(
            algorithm="mergesfl", dataset="blobs", model="mlp",
            non_iid_level=5, num_workers=1000, local_iterations=5,
            train_samples=20000, test_samples=200, learning_rate=0.05,
            max_batch_size=16, base_batch_size=8,
        ),
        rounds=56, target=0.99, replay_rounds=2,
    ),
    Workload(
        name="fedavg_conv",
        why="FedAvg on the conv_serial data/model: full-model train_full and "
            "the FL engine, no split/merge; the plain baseline that guards "
            "the FL path against split-path changes.",
        config=dict(_CONV, algorithm="fedavg"),
        rounds=9, target=0.7,
    ),
)}


def smoke(workload: Workload) -> Workload:
    """A seconds-fast variant: 1+2 rounds, 4 workers, width 0.25, tiny data.

    The loose KL threshold skips the SLSQP batch fine-tuning, which would
    otherwise be most of a toy round.
    """
    config = dict(
        workload.config, num_workers=4, train_samples=64, test_samples=16,
        local_iterations=1, kl_threshold=1.0,
    )
    if "model_width" in config:
        config["model_width"] = 0.25
    return replace(workload, config=config, rounds=2, target=0.0,
                   replay_rounds=1)
