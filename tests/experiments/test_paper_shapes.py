"""The paper's evaluation shapes (arXiv 2311.13348, Figs. 2-12).

Each test regenerates one figure (or an extra ablation) at a reduced scale
-- :data:`_BASE_OVERRIDES`: fewer workers, rounds and samples than the
80-Jetson testbed -- prints its table and asserts the shape the paper
reports.  ``pytest -s`` prints the tables EXPERIMENTS.md records.

Figures share trials: Figs. 7(c), 8 and 9 read one 5-approach CIFAR-10 p=10
study, and Fig. 10's grid is Figs. 6(c) and 7(c) again.  The
session-scoped :class:`Sweep` trains each distinct config once and hands
every figure the same histories.  Trials run in-process, one after
another: on 2 cores, two ``StudyRunner`` worker processes did not make the
sweep faster, since each trial's BLAS already uses both cores
(EXPERIMENTS.md, "Trial-level parallelism").
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core.divergence import iid_distribution
from repro.experiments import figures
from repro.experiments.reporting import format_comparison, format_table
from repro.metrics.history import History
from repro.metrics.summary import (
    best_accuracy,
    compare_histories,
    final_accuracy,
    mean_dropout_rate,
    mean_effective_cohort,
    mean_waiting_time,
    time_to_accuracy,
    traffic_to_accuracy,
)
from repro.nn.models import build_mlp
from repro.nn.serialization import average_state_dicts, state_dict_distance
from repro.selection.solvers import SELECTION_SOLVERS, SelectionProblem
from repro.study import Study
from repro.utils.rng import new_rng

#: The scale every figure runs at.
_BASE_OVERRIDES = {
    "num_workers": 6,
    "num_rounds": 4,
    "local_iterations": 6,
    "train_samples": 480,
    "test_samples": 160,
    "max_batch_size": 16,
    "base_batch_size": 8,
    "model_width": 0.4,
    "learning_rate": 0.08,
    "seed": 7,
}


@dataclass(frozen=True)
class Run:
    """One trained config: its history and simulated per-category bytes."""

    history: History
    traffic: dict[str, float]


class Sweep:
    """Trains each distinct config once, keyed on ``config.to_dict()``."""

    def __init__(self) -> None:
        self._runs: dict[str, Run] = {}

    def run(self, config: ExperimentConfig) -> Run:
        key = json.dumps(config.to_dict(), sort_keys=True)
        if key not in self._runs:
            with Session.from_config(config) as session:
                history = session.run()
                self._runs[key] = Run(history, session.algorithm.traffic.breakdown())
        return self._runs[key]

    def histories(self, study: Study) -> dict[str, History]:
        """Each trial's history, by trial name."""
        return {trial.name: self.run(trial.config).history for trial in study}


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    return Sweep()


def _config(dataset: str, **overrides) -> ExperimentConfig:
    """A MergeSFL config at :data:`_BASE_OVERRIDES` scale."""
    return figures.figure_config(dataset, "mergesfl", **{**_BASE_OVERRIDES, **overrides})


def _approaches(sweep: Sweep, dataset: str, non_iid_level: float,
                approaches=figures.FIVE_APPROACHES, **overrides) -> dict[str, History]:
    """The approaches' histories on one dataset, by approach name."""
    return sweep.histories(figures.approaches_study(
        dataset, approaches, non_iid_level, **{**_BASE_OVERRIDES, **overrides}
    ))


def test_fig02_03_motivation_variants(sweep):
    """SFL-BR cuts the average waiting time against SFL-T (paper: ~67 %)."""
    histories = _approaches(sweep, "cifar10", 10.0, figures.MOTIVATION_VARIANTS)
    print()
    print(format_table(
        ["variant", "final_acc", "total_time_s", "avg_wait_s"],
        [[name, final_accuracy(history), history.records[-1].sim_time,
          mean_waiting_time(history)] for name, history in histories.items()],
        title="Fig. 2-3: motivation variants (CIFAR-10 analogue, non-IID p=10)",
    ))
    assert mean_waiting_time(histories["sfl_br"]) < mean_waiting_time(histories["sfl_t"])


def test_fig06_iid_har(sweep):
    print()
    print(format_comparison(compare_histories(_approaches(sweep, "har", 0.0)),
                            title="Fig. 6(a): HAR analogue, IID"))


def test_fig06_iid_cifar10(sweep):
    """MergeSFL converges fastest on IID data (paper: 1.39x-4.14x)."""
    histories = _approaches(sweep, "cifar10", 0.0)
    print()
    print(format_comparison(compare_histories(histories),
                            title="Fig. 6(c): CIFAR-10 analogue, IID"))
    target = min(max(h.accuracies) for h in histories.values())
    merge_time = time_to_accuracy(histories["mergesfl"], target)
    locfedmix_time = time_to_accuracy(histories["locfedmix_sl"], target)
    assert merge_time is not None and locfedmix_time is not None
    assert merge_time <= locfedmix_time * 1.05


def test_fig07_noniid_har(sweep):
    print()
    print(format_comparison(compare_histories(_approaches(sweep, "har", 10.0)),
                            title="Fig. 7(a): HAR analogue, non-IID p=10"))


def test_fig07_noniid_cifar10(sweep):
    """Every approach still trains at p=10, well above 10 % chance."""
    comparison = compare_histories(_approaches(sweep, "cifar10", 10.0))
    print()
    print(format_comparison(comparison, title="Fig. 7(c): CIFAR-10 analogue, non-IID p=10"))
    assert all(m["best_accuracy"] > 0.2 for m in comparison.values())


def test_fig08_network_traffic_cifar10(sweep):
    """Exchanging features instead of models saves traffic against FedAvg."""
    histories = _approaches(sweep, "cifar10", 10.0)
    result = figures.figure8_network_traffic({"cifar10": histories})
    print()
    print(format_table(
        ["dataset", "approach", "target_acc", "traffic_MB"],
        [[row["dataset"], row["approach"], row["target_accuracy"], row["traffic_mb"]]
         for row in result["rows"]],
        title="Fig. 8: traffic to reach target accuracy (CIFAR-10 analogue, non-IID)",
    ))
    target = min(best_accuracy(history) for history in histories.values())
    split_traffic = traffic_to_accuracy(histories["locfedmix_sl"], target)
    fedavg_traffic = traffic_to_accuracy(histories["fedavg"], target)
    assert split_traffic is not None and fedavg_traffic is not None
    assert split_traffic < fedavg_traffic


@pytest.mark.parametrize("split_policy, codecs", [
    ("uniform", ("none", "fp16", "bf16", "int8", "topk")),
    ("profile", ("none", "int8")),
], ids=["uniform", "profile"])
def test_fig08_codec_sweep(sweep, split_policy, codecs):
    """Link-codec extension of the traffic axis: what each codec pays in
    accuracy for its simulated traffic savings (``none`` anchors the exact
    run).  The round applies the codec on every executor."""
    study = Study.grid(
        "fig08-codec",
        _config("cifar10", split_policy=split_policy, extras={"codec_topk_ratio": 0.3}),
        axes={"codec": codecs},
    )
    runs = {trial.name: sweep.run(trial.config) for trial in study}

    def exchange_per_sample(name: str) -> float:
        run = runs[name]
        samples = _BASE_OVERRIDES["local_iterations"] * sum(
            record.total_batch for record in run.history.records
        )
        return (run.traffic["feature"] + run.traffic["gradient"]) / samples

    print()
    print(format_table(
        ["codec", "final_acc", "exchange_B/sample", "traffic_MB"],
        [[name.removeprefix("codec="),
          f"{final_accuracy(run.history):.3f}",
          f"{exchange_per_sample(name):.0f}",
          f"{run.history.records[-1].traffic_mb:.1f}"]
         for name, run in runs.items()],
        title=f"Fig. 8 extension: codec accuracy/traffic trade-off (mergesfl, {split_policy} split)",
    ))
    # Accuracy is reported, not gated: a few-round CNN amplifies any
    # perturbation, so codec accuracy tolerances live in
    # tests/parallel/test_codec_sessions.py.
    ratio = exchange_per_sample("codec=int8") / exchange_per_sample("codec=none")
    if split_policy == "uniform":
        # int8 puts 8 of a float32's 32 bits on the link.
        assert ratio == pytest.approx(0.25)
    else:
        # Per-worker cuts move with the cheaper link (the int8 run assigns
        # two depths), so only the direction is fixed.
        assert ratio < 1.0


def _fig09_waits(sweep: Sweep, codec: str) -> dict[str, float]:
    """Print Fig. 9's table at ``codec``; mean waiting time by approach."""
    result = figures.figure9_waiting_time(
        {"cifar10": _approaches(sweep, "cifar10", 10.0, codec=codec)}
    )
    print()
    print(format_table(
        ["dataset", "approach", "avg_waiting_time_s"],
        [[row["dataset"], row["approach"], row["mean_waiting_time_s"]]
         for row in result["rows"]],
        title=f"Fig. 9: average per-round waiting time (CIFAR-10 analogue, codec={codec})",
    ))
    return {row["approach"]: row["mean_waiting_time_s"] for row in result["rows"]}


def test_fig09_waiting_time_cifar10(sweep):
    """Batch-size regulation (AdaSFL, MergeSFL) waits less than the
    fixed-batch SFL baseline."""
    waits = _fig09_waits(sweep, "none")
    assert waits["adasfl"] < waits["locfedmix_sl"]
    assert waits["mergesfl"] < waits["locfedmix_sl"]


@pytest.mark.xfail(strict=True, reason=(
    "under a compressing codec the bandwidth budget stops binding, Alg. 1 "
    "line 7 scales every MergeSFL batch up to max_batch_size, and MergeSFL "
    "waits longer than LocFedMix-SL (ROADMAP item 2, step 3)"
))
def test_fig09_mergesfl_waits_less_than_locfedmix_under_int8(sweep):
    """Known reversal, kept visible: 0.110 s against 0.086 s."""
    waits = _fig09_waits(sweep, "int8")
    assert waits["mergesfl"] < waits["locfedmix_sl"]


def test_fig10_noniid_levels_cifar10(sweep):
    """Every approach trains above chance at every non-IID level."""
    study = Study.grid(
        "fig10-noniid-levels", _config("cifar10"),
        axes={"non_iid_level": (0.0, 10.0),
              "algorithm": ("mergesfl", "adasfl", "locfedmix_sl", "fedavg")},
    )
    histories = sweep.histories(study)
    print()
    print(format_table(
        ["non_iid_p", "approach", "final_acc", "best_acc"],
        [[trial.tags["non_iid_level"], trial.tags["algorithm"],
          final_accuracy(histories[trial.name]), best_accuracy(histories[trial.name])]
         for trial in study],
        title="Fig. 10: accuracy vs non-IID level (CIFAR-10 analogue)",
    ))
    assert all(best_accuracy(history) > 0.2 for history in histories.values())


def test_fig11_ablation_cifar10(sweep):
    """Without batch-size regulation every worker trains one batch size, so
    fast workers idle and the round clock slows (paper: ~2.2x)."""
    variants = ("mergesfl", "mergesfl_no_fm", "mergesfl_no_br")
    ablation = {label: _approaches(sweep, "cifar10", level, variants)
                for label, level in (("iid", 0.0), ("non_iid", 10.0))}
    print()
    for label, histories in ablation.items():
        print(format_comparison(compare_histories(histories),
                                title=f"Fig. 11 ({label}): MergeSFL ablation"))
        print()
    with_br = ablation["iid"]["mergesfl"].records[-1].sim_time
    without_br = ablation["iid"]["mergesfl_no_br"].records[-1].sim_time
    assert with_br <= without_br * 1.05


def test_fig12_scalability(sweep):
    """Every scale reaches 90 % of the common accuracy ceiling."""
    study = Study.grid("fig12-scalability", _config("cifar10"),
                       axes={"num_workers": (4, 8, 12)})
    histories = {trial.tags["num_workers"]: sweep.run(trial.config).history
                 for trial in study}
    target = 0.9 * min(best_accuracy(history) for history in histories.values())
    times = {scale: time_to_accuracy(history, target)
             for scale, history in histories.items()}
    print()
    print(format_table(
        ["workers", "target_acc", "time_to_target_s", "final_acc"],
        [[scale, target, times[scale], final_accuracy(history)]
         for scale, history in histories.items()],
        title="Fig. 12: MergeSFL at different system scales (CIFAR-10 analogue)",
    ))
    assert all(time is not None for time in times.values())


# -- Elastic rounds under churn --------------------------------------------------------

#: Per-round dropout probabilities of the churn sweep (0 = neutral elasticity).
DROPOUT_RATES = (0.0, 0.1, 0.3)
OVER_SELECT = 1.25


def _churn_config(**overrides) -> ExperimentConfig:
    # Deliberately off the saturation plateau (high skew, small LR, few
    # local steps): at the default scale every run reaches 1.0 accuracy
    # and the dropout cost would be invisible.
    return _config("blobs", non_iid_level=8.0, learning_rate=0.02,
                   local_iterations=2, **overrides)


def test_dropout_sweep(sweep):
    """Over-selection keeps the lossy runs within a learning tolerance of the
    exact (no churn) run even at 30 % per-round dropout."""
    rows = [("exact", sweep.run(_churn_config()).history)]
    for rate in DROPOUT_RATES:
        config = _churn_config(
            dropout_rate=rate,
            over_select_factor=OVER_SELECT if rate else 1.0,
            rejoin_staleness_bound=2 if rate else 0,
        )
        rows.append((f"dropout {rate:.1f}", sweep.run(config).history))
    print()
    print(format_table(
        ["mode", "final_acc", "dropout", "cohort", "sim_time_s"],
        [[mode,
          f"{final_accuracy(history):.3f}",
          f"{mean_dropout_rate(history):.2f}",
          f"{mean_effective_cohort(history):.1f}",
          f"{history.records[-1].sim_time:.3f}"] for mode, history in rows],
        title=f"Dropout sweep at over-selection {OVER_SELECT}",
    ))
    exact = final_accuracy(rows[0][1])
    # Rate 0 without padding is the exact protocol.
    assert final_accuracy(rows[1][1]) == exact
    for __, history in rows[2:]:
        assert final_accuracy(history) >= exact - 0.15


def test_first_k_of_n_beats_wait_for_all(sweep):
    """The straggler deadline caps every round at 1.5x the cohort median, so
    the simulated clock comes in under the wait-for-all run's."""
    wait_all = sweep.run(_churn_config()).history.records[-1].sim_time
    first_k = sweep.run(
        _churn_config(straggler_deadline=1.5)
    ).history.records[-1].sim_time
    print()
    print(format_table(
        ["policy", "total_sim_time_s"],
        [["wait for all", f"{wait_all:.3f}"],
         ["first-k-of-n (deadline 1.5x median)", f"{first_k:.3f}"]],
        title="Simulated run time: straggler deadline vs synchronous",
    ))
    assert first_k < wait_all


# -- Per-worker split points -----------------------------------------------------------

def test_splitpoint_policies(sweep):
    """On the Table II device mix, matching each device class's cut depth to
    its compute/bandwidth profile shrinks the straggler gap the uniform
    global cut leaves open."""
    # 10 workers represent the 30/40/10 TX2/NX/AGX mix; full width gives the
    # depth choice a real model-transfer stake; 2 local iterations keep the
    # model exchange (what a shallow cut shrinks) from being amortised away.
    histories = {
        policy: sweep.run(_config("cifar10", split_policy=policy, num_workers=10,
                                  model_width=1.0, local_iterations=2)).history
        for policy in ("uniform", "profile", "adaptive")
    }
    print()
    print(format_table(
        ["policy", "avg_waiting_time_s", "sim_time_s", "traffic_mb", "final_acc"],
        [[policy,
          f"{mean_waiting_time(history):.3f}",
          f"{history.records[-1].sim_time:.3f}",
          f"{history.records[-1].traffic_mb:.2f}",
          f"{final_accuracy(history):.3f}"] for policy, history in histories.items()],
        title="Split-point policies on the Table-2 device mix (CIFAR-10 / AlexNet-S)",
    ))
    assert mean_waiting_time(histories["profile"]) < mean_waiting_time(histories["uniform"])


# -- Extra ablations: aggregation weights and selection solvers ------------------------

def test_ablation_weighted_vs_uniform_aggregation():
    """Eq. 17's batch-size weights discount the noisiest (smallest-batch)
    workers, so the aggregate lands closer to the reference state."""
    rng = new_rng(0)
    base_state = build_mlp(input_dim=16, num_classes=4, hidden_dims=(8,), seed=0).state_dict()
    batch_sizes = np.array([16, 8, 4, 1], dtype=np.float64)
    # Workers with small batches drift more (noisier local gradients).
    states = [
        {key: value + rng.normal(0.0, 0.5 / np.sqrt(batch), size=value.shape)
         for key, value in base_state.items()}
        for batch in batch_sizes
    ]
    uniform = state_dict_distance(average_state_dicts(states), base_state)
    weighted = state_dict_distance(average_state_dicts(states, list(batch_sizes)), base_state)
    print()
    print(format_table(
        ["aggregation", "distance_to_reference"],
        [["uniform (Eq. 4)", uniform], ["batch-weighted (Eq. 17)", weighted]],
        title="Ablation: bottom-model aggregation weighting",
    ))
    assert weighted < uniform


#: Every registered solver (the brute-force oracle of tests/selection blows
#: up combinatorially at this instance size).
SOLVERS = ("ga", "ga-warm", "local-search", "greedy")


def _selection_problem(seed: int) -> SelectionProblem:
    """24 workers with skewed 10-class label distributions."""
    rng = new_rng(seed)
    dists = rng.dirichlet([0.1] * 10, size=24)
    batch_sizes = rng.integers(2, 17, size=24)
    return SelectionProblem(
        batch_sizes=batch_sizes,
        label_distributions=dists,
        target_distribution=iid_distribution(dists),
        bandwidth_per_sample=1.0,
        bandwidth_budget=0.5 * float(batch_sizes.sum()),
        rng=new_rng(seed),
    )


def test_ablation_selection_solvers():
    """Every registered production solver -- built through the registry, the
    code path ``config.selector`` takes -- on the same skewed population."""
    rows = []
    for seed in (0, 1, 2):
        row = [seed]
        for name in SOLVERS:
            factory = SELECTION_SOLVERS.get(name)
            solver = factory(generations=20) if name in ("ga", "ga-warm") else factory()
            result = solver.solve(_selection_problem(seed))
            row.extend([result.kl, len(result.selected)])
        rows.append(row)
    print()
    print(format_table(
        ["seed", *(f"{name}_{column}" for name in SOLVERS for column in ("kl", "n"))],
        rows,
        title="Ablation: selection solvers (lower KL is better)",
    ))
    for row in rows:
        assert all(np.isfinite(kl) for kl in row[1::2])
