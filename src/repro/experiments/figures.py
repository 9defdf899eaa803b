"""Per-figure reproduction entry points.

Every table and figure of the paper's evaluation has a function here that
runs the corresponding experiment(s) and returns the rows/series the paper
reports.  The default parameters are scaled down (fewer workers, rounds and
samples than the 80-device testbed) so every figure runs on a CPU-only
machine; pass ``overrides`` to scale up.  The paper-shape tests
(``tests/experiments/test_paper_shapes.py``) assert each figure's shape on
the same studies, and EXPERIMENTS.md records the measured numbers next to
the paper's.

Under the hood every multi-run figure is a :class:`repro.study.Study`
(see :func:`approaches_study`): pass ``n_jobs`` to run its trials in
parallel worker processes, and use the study builders directly with a
:class:`repro.study.StudyStore` when a sweep should be resumable.  Both
knobs leave the results bit-identical to the serial path.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExperimentConfig
from repro.data.synthetic import DATASET_SPECS, make_dataset
from repro.experiments.gradients import GradientComparison, compare_gradient_directions
from repro.metrics.history import History
from repro.metrics.summary import (
    best_accuracy,
    compare_histories,
    final_accuracy,
    mean_waiting_time,
    time_to_accuracy,
    traffic_to_accuracy,
)
from repro.nn.models import build_model, default_split_layer
from repro.nn.split import split_model
from repro.simulation.device import DEVICE_PROFILES
from repro.study import Study, StudyRunner, Trial
from repro.utils.rng import new_rng

#: The five approaches compared throughout Section V-B.
FIVE_APPROACHES = ("mergesfl", "pyramidfl", "adasfl", "locfedmix_sl", "fedavg")

#: The three motivation variants of Section II.
MOTIVATION_VARIANTS = ("sfl_br", "sfl_fm", "sfl_t")

#: Scaled-down defaults shared by every figure entry point.
FAST_DEFAULTS = {
    "num_workers": 8,
    "num_rounds": 5,
    "local_iterations": 8,
    "train_samples": 640,
    "test_samples": 200,
    "max_batch_size": 16,
    "base_batch_size": 8,
    "model_width": 0.5,
    "learning_rate": 0.08,
    "seed": 7,
}


def figure_config(dataset: str, algorithm: str, non_iid_level: float = 0.0,
                  **overrides) -> ExperimentConfig:
    """Build a config for one dataset/algorithm pair with fast defaults.

    The shared base of every figure entry point (and of the paper-shape
    tests' configs): the dataset's default model plus
    :data:`FAST_DEFAULTS`, with ``overrides`` applied on top.
    """
    spec = DATASET_SPECS[dataset]
    params = dict(FAST_DEFAULTS)
    params.update(overrides)
    return ExperimentConfig(
        algorithm=algorithm,
        dataset=dataset,
        model=spec.default_model,
        non_iid_level=non_iid_level,
        **params,
    )


def approaches_study(
    dataset: str,
    approaches: tuple[str, ...] = FIVE_APPROACHES,
    non_iid_level: float = 0.0,
    study_name: str | None = None,
    **overrides,
) -> Study:
    """Describe a set of approaches on one dataset as a :class:`Study`.

    One trial per approach, named after it and tagged with the dataset and
    non-IID level; ``overrides`` apply to every trial's config.
    """
    if study_name is None:
        study_name = f"{dataset}-p{non_iid_level:g}-approaches"
    return Study(study_name, [
        Trial(
            approach,
            figure_config(dataset, approach, non_iid_level, **overrides),
            {"dataset": dataset, "algorithm": approach,
             "non_iid_level": non_iid_level},
        )
        for approach in approaches
    ])


def run_approaches(
    dataset: str,
    approaches: tuple[str, ...] = FIVE_APPROACHES,
    non_iid_level: float = 0.0,
    n_jobs: int = 1,
    store=None,
    **overrides,
) -> dict[str, History]:
    """Run a set of approaches on one dataset and return their histories.

    Executes :func:`approaches_study` through a
    :class:`~repro.study.StudyRunner`; ``n_jobs`` parallelises over the
    approaches and ``store`` (a :class:`~repro.study.StudyStore`) makes the
    sweep resumable.  Results are bit-identical to running each config
    through ``run_experiment`` serially.
    """
    study = approaches_study(dataset, approaches, non_iid_level, **overrides)
    results = StudyRunner(study, store=store, n_jobs=n_jobs).run()
    return {approach: results[approach].history for approach in approaches}


# -- Section II motivation -----------------------------------------------------

def figure2_3_motivation(dataset: str = "cifar10", n_jobs: int = 1, **overrides) -> dict:
    """Figs. 2-3: SFL-T vs SFL-FM vs SFL-BR on non-IID data.

    Returns accuracy curves, completion times and average waiting times for
    the three motivation variants.
    """
    histories = run_approaches(
        dataset, approaches=MOTIVATION_VARIANTS, non_iid_level=10.0,
        n_jobs=n_jobs, **overrides
    )
    rows = []
    for name, history in histories.items():
        rows.append({
            "variant": name,
            "final_accuracy": final_accuracy(history),
            "total_time_s": history.records[-1].sim_time,
            "mean_waiting_time_s": mean_waiting_time(history),
        })
    return {"histories": histories, "rows": rows}


def figure4_gradient_directions(
    dataset: str = "cifar10",
    num_workers: int = 4,
    batch_size: int = 16,
    model_width: float = 0.5,
    seed: int = 7,
) -> GradientComparison:
    """Fig. 4: gradient direction of SFL-FM vs SFL-T vs standalone SGD.

    Builds per-worker mini-batches that are individually label-skewed but
    jointly IID, then runs the one-iteration gradient comparison.
    """
    spec = DATASET_SPECS[dataset]
    data = make_dataset(dataset, train_samples=1200, test_samples=100, seed=seed)
    model = build_model(
        spec.default_model,
        num_classes=data.num_classes,
        in_channels=data.feature_shape[0],
        image_size=data.feature_shape[1],
        width=model_width,
        seed=seed,
    )
    split = split_model(model, default_split_layer(spec.default_model, model))

    # Build skewed per-worker mini-batches whose union covers all classes.
    rng = new_rng(seed)
    targets = data.train.targets
    classes = np.arange(data.num_classes)
    shards = np.array_split(rng.permutation(classes), num_workers)
    batches = []
    for shard in shards:
        pool = np.flatnonzero(np.isin(targets, shard))
        picked = rng.choice(pool, size=min(batch_size, pool.size), replace=False)
        batches.append((data.train.gather(picked), targets[picked]))
    return compare_gradient_directions(split, batches)


# -- Table II ---------------------------------------------------------------------

def table2_device_specifications() -> list[dict]:
    """Table II: Jetson device technical specifications used by the simulator."""
    rows = []
    for profile in DEVICE_PROFILES.values():
        rows.append({
            "device": profile.name,
            "ai_performance": profile.ai_performance,
            "gpu": profile.gpu,
            "cpu": profile.cpu,
            "memory_gb": profile.memory_gb,
            "train_gflops": profile.train_gflops,
            "num_modes": profile.num_modes,
        })
    return rows


# -- Section V-B overall performance ------------------------------------------------

def figure6_iid_accuracy(datasets: tuple[str, ...] = ("har", "cifar10"),
                         n_jobs: int = 1, **overrides) -> dict:
    """Fig. 6: time-to-accuracy of the five approaches on IID data."""
    results = {}
    for dataset in datasets:
        histories = run_approaches(dataset, non_iid_level=0.0, n_jobs=n_jobs,
                                   **overrides)
        results[dataset] = {
            "histories": histories,
            "comparison": compare_histories(histories),
        }
    return results


def figure7_noniid_accuracy(datasets: tuple[str, ...] = ("har", "cifar10"),
                            n_jobs: int = 1, **overrides) -> dict:
    """Fig. 7: time-to-accuracy of the five approaches at non-IID level p=10."""
    results = {}
    for dataset in datasets:
        histories = run_approaches(dataset, non_iid_level=10.0, n_jobs=n_jobs,
                                   **overrides)
        results[dataset] = {
            "histories": histories,
            "comparison": compare_histories(histories),
        }
    return results


def figure8_network_traffic(histories_per_dataset: dict[str, dict[str, History]] | None = None,
                            datasets: tuple[str, ...] = ("cifar10",),
                            n_jobs: int = 1, **overrides) -> dict:
    """Fig. 8: network traffic consumed to reach target accuracies.

    Reuses Fig. 7-style runs (non-IID) when none are supplied.
    """
    if histories_per_dataset is None:
        histories_per_dataset = {
            dataset: run_approaches(dataset, non_iid_level=10.0, n_jobs=n_jobs,
                                    **overrides)
            for dataset in datasets
        }
    rows = []
    for dataset, histories in histories_per_dataset.items():
        ceiling = min(best_accuracy(history) for history in histories.values())
        targets = [0.5 * ceiling, 0.75 * ceiling, ceiling]
        for name, history in histories.items():
            for target in targets:
                rows.append({
                    "dataset": dataset,
                    "approach": name,
                    "target_accuracy": target,
                    "traffic_mb": traffic_to_accuracy(history, target),
                })
    return {"histories": histories_per_dataset, "rows": rows}


def figure9_waiting_time(histories_per_dataset: dict[str, dict[str, History]] | None = None,
                         datasets: tuple[str, ...] = ("cifar10",),
                         n_jobs: int = 1, **overrides) -> dict:
    """Fig. 9: average per-round waiting time of the five approaches."""
    if histories_per_dataset is None:
        histories_per_dataset = {
            dataset: run_approaches(dataset, non_iid_level=10.0, n_jobs=n_jobs,
                                    **overrides)
            for dataset in datasets
        }
    rows = []
    for dataset, histories in histories_per_dataset.items():
        for name, history in histories.items():
            rows.append({
                "dataset": dataset,
                "approach": name,
                "mean_waiting_time_s": mean_waiting_time(history),
            })
    return {"histories": histories_per_dataset, "rows": rows}


# -- Section V-C non-IID levels ---------------------------------------------------

def figure10_noniid_levels(
    dataset: str = "cifar10",
    levels: tuple[float, ...] = (0.0, 2.0, 10.0),
    approaches: tuple[str, ...] = FIVE_APPROACHES,
    n_jobs: int = 1,
    **overrides,
) -> dict:
    """Fig. 10: final accuracy of each approach as the non-IID level grows.

    One grid study (levels x approaches); ``n_jobs`` parallelises over the
    whole grid rather than one level at a time.
    """
    study = Study.grid(
        f"{dataset}-fig10-noniid-levels",
        figure_config(dataset, approaches[0], levels[0], **overrides),
        axes={"non_iid_level": levels, "algorithm": approaches},
    )
    results = StudyRunner(study, n_jobs=n_jobs).run()
    rows = []
    histories: dict[float, dict[str, History]] = {level: {} for level in levels}
    for trial in study:
        level = trial.tags["non_iid_level"]
        name = trial.tags["algorithm"]
        history = results[trial.name].history
        histories[level][name] = history
        rows.append({
            "dataset": dataset,
            "non_iid_level": level,
            "approach": name,
            "final_accuracy": final_accuracy(history),
            "best_accuracy": best_accuracy(history),
        })
    return {"histories": histories, "rows": rows}


# -- Section V-D ablation ------------------------------------------------------------

def figure11_ablation(dataset: str = "cifar10", n_jobs: int = 1, **overrides) -> dict:
    """Fig. 11: MergeSFL vs MergeSFL w/o FM vs MergeSFL w/o BR (IID and non-IID)."""
    variants = ("mergesfl", "mergesfl_no_fm", "mergesfl_no_br")
    results = {}
    for label, level in (("iid", 0.0), ("non_iid", 10.0)):
        histories = run_approaches(
            dataset, approaches=variants, non_iid_level=level, n_jobs=n_jobs,
            **overrides
        )
        results[label] = {
            "histories": histories,
            "comparison": compare_histories(histories),
        }
    return results


# -- Section V-E scalability -----------------------------------------------------------

def figure12_scalability(
    dataset: str | None = None,
    scales: tuple[int, ...] | None = None,
    target_fraction: float = 0.9,
    n_jobs: int = 1,
    study: Study | None = None,
    **overrides,
) -> dict:
    """Fig. 12: completion time and training process at different system scales.

    The paper simulates 100/200/300/400 workers; the scaled-down default
    (``cifar10``, scales ``(8, 16, 24)``) sweeps smaller fleets but reports
    the same quantities (time to reach a common target accuracy, plus each
    scale's accuracy trajectory).  Pass ``study`` (e.g. a
    :mod:`repro.study.presets` grid such as ``paper-scalability``) to
    report on a ready-made ``num_workers`` sweep instead of building one;
    its trials must be tagged with ``num_workers``, and the sweep-shaping
    arguments (``dataset``, ``scales``, ``overrides``) must then be left
    unset -- they cannot be retrofitted onto a prebuilt study's trials.
    """
    if study is not None and (dataset is not None or scales is not None or overrides):
        conflicting = [name for name, given in (
            ("dataset", dataset is not None),
            ("scales", scales is not None),
            *((key, True) for key in sorted(overrides)),
        ) if given]
        raise ValueError(
            "figure12_scalability received both a prebuilt study and the "
            f"sweep-shaping arguments {conflicting}; apply them when "
            "building the study instead (e.g. get_preset(name, **overrides))"
        )
    if study is None:
        dataset = "cifar10" if dataset is None else dataset
        scales = (8, 16, 24) if scales is None else scales
        base_overrides = {key: value for key, value in overrides.items()
                          if key != "num_workers"}
        study = Study.grid(
            f"{dataset}-fig12-scalability",
            figure_config(dataset, "mergesfl", non_iid_level=0.0,
                          num_workers=scales[0], **base_overrides),
            axes={"num_workers": scales},
        )
    results = StudyRunner(study, n_jobs=n_jobs).run()
    histories: dict[int, History] = {
        trial.tags["num_workers"]: results[trial.name].history for trial in study
    }
    ceiling = min(best_accuracy(history) for history in histories.values())
    target = target_fraction * ceiling
    rows = []
    for scale, history in histories.items():
        rows.append({
            "num_workers": scale,
            "target_accuracy": target,
            "time_to_target_s": time_to_accuracy(history, target),
            "final_accuracy": final_accuracy(history),
        })
    return {"histories": histories, "rows": rows, "target": target}
