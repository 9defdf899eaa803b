"""Paper-scale sweep presets.

The paper's scalability evaluation (Fig. 12, Section V-E) simulates fleets
of 100/200/400 workers.  The figure entry points default to scaled-down
fleets so the benchmark suite stays CPU-friendly; the presets here describe
the *paper-scale* sweeps as ready-made :class:`~repro.study.study.Study`
grids so a multi-core host (or an overnight run) can reproduce the actual
axis of the paper:

    from repro.study import StudyRunner, StudyStore
    from repro.study.presets import get_preset

    study = get_preset("paper-scalability")
    runner = StudyRunner(study, store=StudyStore("results"),
                         n_jobs=3, max_processes=8)
    histories = runner.histories()

:func:`repro.experiments.figures.figure12_scalability` reports on the
scalability presets directly (``figure12_scalability(study=...)``).
Presets are grid studies, hence resumable through a
:class:`~repro.study.store.StudyStore` and clampable through
``StudyRunner(max_processes=...)``.

The ``*-population`` presets sweep the *registered* population instead of
the participating fleet: trials run over the worker registry
(:mod:`repro.population`) with a fixed candidate pool, extending the
scalability axis to a million registered workers while each round still
materialises only its cohort.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.config import ExperimentConfig
from repro.exceptions import StudyError
from repro.study.study import Study

#: The worker counts of the paper's scalability axis (Fig. 12).
PAPER_WORKER_SCALES = (100, 200, 400)

#: A smaller axis with the same shape, for dry-running the preset plumbing.
SMOKE_WORKER_SCALES = (8, 16, 24)

#: Registered-population axis for the worker registry (three orders of
#: magnitude beyond the paper's fleets; the cohort stays candidate-bounded).
PAPER_POPULATION_SCALES = (1_000, 100_000, 1_000_000)

#: A smaller population axis for dry-running the preset plumbing.
SMOKE_POPULATION_SCALES = (500, 5_000)

#: Per-round dropout axis of the churn sweeps (0 = nobody drops).
PAPER_CHURN_RATES = (0.0, 0.1, 0.3)

#: A shorter axis for dry-running the churn preset plumbing.
SMOKE_CHURN_RATES = (0.0, 0.3)

#: Link-codec axis of the codec sweeps (``none`` is the exact anchor).
PAPER_CODECS = ("none", "fp16", "bf16", "int8", "topk")

#: A shorter codec axis for dry-running the preset plumbing.
SMOKE_CODECS = ("none", "int8")

#: Split algorithms the codec sweeps cross with the codec axis.
PAPER_CODEC_ALGORITHMS = ("mergesfl", "splitfed")

#: Split-point policy axis (``uniform`` is the exact global-cut anchor).
PAPER_SPLIT_POLICIES = ("uniform", "profile", "adaptive")

#: A shorter policy axis for dry-running the preset plumbing.
SMOKE_SPLIT_POLICIES = ("uniform", "profile")


def scalability_study(
    dataset: str = "cifar10",
    scales: tuple[int, ...] = PAPER_WORKER_SCALES,
    algorithm: str = "mergesfl",
    non_iid_level: float = 0.0,
    name: str | None = None,
    **overrides,
) -> Study:
    """A ``num_workers`` grid matching the paper's scalability axis.

    ``overrides`` apply to every trial's config (``num_workers`` itself is
    the swept axis and is stripped from them).
    """
    from repro.experiments.figures import figure_config

    overrides = {k: v for k, v in overrides.items() if k != "num_workers"}
    base = figure_config(
        dataset, algorithm, non_iid_level, num_workers=scales[0], **overrides
    )
    if name is None:
        name = f"{dataset}-scalability-{'-'.join(str(s) for s in scales)}"
    return Study.grid(name, base, axes={"num_workers": scales})


def population_study(
    dataset: str = "blobs",
    scales: tuple[int, ...] = PAPER_POPULATION_SCALES,
    algorithm: str = "mergesfl",
    non_iid_level: float = 0.0,
    name: str | None = None,
    **overrides,
) -> Study:
    """A registered-population grid over the worker registry.

    Sweeps ``num_workers`` far beyond the paper's fleets while holding the
    per-round cohort fixed through a candidate pool, so every trial does
    comparable work and the axis isolates the cost of *registering* workers
    (which the registry keeps flat).  ``overrides`` apply to every
    trial's config; the population knobs themselves may be overridden too.
    """
    from repro.experiments.figures import figure_config

    overrides = {k: v for k, v in overrides.items() if k != "num_workers"}
    extras = dict(overrides.pop("extras", {}) or {})
    # Partitioning a fixed train set over 1e5+ workers yields empty shards;
    # sampled sharding derives shards per worker, O(1) in the population.
    extras.setdefault("population_sharding", "sampled")
    extras.setdefault("population_live_devices", 4096)
    overrides.setdefault("population_candidates", 64)
    base = figure_config(
        dataset, algorithm, non_iid_level,
        num_workers=scales[0], extras=extras, **overrides,
    )
    if name is None:
        name = f"{dataset}-population-{'-'.join(str(s) for s in scales)}"
    return Study.grid(name, base, axes={"num_workers": scales})


def churn_study(
    dataset: str = "cifar10",
    rates: tuple[float, ...] = PAPER_CHURN_RATES,
    algorithm: str = "mergesfl",
    non_iid_level: float = 0.0,
    name: str | None = None,
    **overrides,
) -> Study:
    """A ``dropout_rate`` grid over elastic rounds (:mod:`repro.core.elastic`).

    Every trial runs with over-selection 1.25 and a two-round rejoin
    staleness bound unless overridden, and the axis
    sweeps the per-round dropout probability, so the study measures the
    accuracy cost of churn under the recovery machinery (the rate-0.0 trial
    isolates the over-selection padding with zero churn).
    """
    from repro.experiments.figures import figure_config

    overrides = {k: v for k, v in overrides.items() if k != "dropout_rate"}
    overrides.setdefault("over_select_factor", 1.25)
    overrides.setdefault("rejoin_staleness_bound", 2)
    base = figure_config(
        dataset, algorithm, non_iid_level, dropout_rate=rates[0], **overrides
    )
    if name is None:
        name = f"{dataset}-churn-{'-'.join(str(r) for r in rates)}"
    return Study.grid(name, base, axes={"dropout_rate": rates})


def codec_study(
    dataset: str = "cifar10",
    codecs: tuple[str, ...] = PAPER_CODECS,
    algorithms: tuple[str, ...] = PAPER_CODEC_ALGORITHMS,
    non_iid_level: float = 0.0,
    name: str | None = None,
    **overrides,
) -> Study:
    """A ``codec`` x ``algorithm`` grid over the simulated link.

    Sweeps the link codec (:mod:`repro.parallel.codec`) against the split
    algorithms, measuring accuracy cost versus link compression: the
    ``none`` column is the exact anchor.  The round applies the codec on
    every executor, and the simulated network charges its encoded sizes, so
    each history's ``traffic_mb`` / ``sim_time`` / ``waiting_time`` read the
    trade-off straight off the records.
    """
    from repro.experiments.figures import figure_config

    overrides = {k: v for k, v in overrides.items()
                 if k not in ("codec", "algorithm")}
    base = figure_config(
        dataset, algorithms[0], non_iid_level, codec=codecs[0], **overrides
    )
    if name is None:
        name = f"{dataset}-codec-{'-'.join(codecs)}"
    return Study.grid(
        name, base, axes={"algorithm": algorithms, "codec": codecs}
    )


def splitpoint_study(
    dataset: str = "cifar10",
    policies: tuple[str, ...] = PAPER_SPLIT_POLICIES,
    algorithm: str = "mergesfl",
    non_iid_level: float = 0.0,
    name: str | None = None,
    **overrides,
) -> Study:
    """A ``split_policy`` grid over per-worker split points.

    Sweeps the split-point policy (:mod:`repro.splitpoint`) on the Table-2
    heterogeneous device classes: the ``uniform`` column is the exact
    global-cut anchor, and each history carries per-round simulated time and
    traffic so waiting-time and wire savings are read straight off the
    records (see ``tests/experiments/test_paper_shapes.py::test_splitpoint_policies``).
    """
    from repro.experiments.figures import figure_config

    overrides = {k: v for k, v in overrides.items() if k != "split_policy"}
    base = figure_config(
        dataset, algorithm, non_iid_level, split_policy=policies[0], **overrides
    )
    if name is None:
        name = f"{dataset}-splitpoint-{'-'.join(policies)}"
    return Study.grid(name, base, axes={"split_policy": policies})


def _paper_scalability(**overrides) -> Study:
    return scalability_study(scales=PAPER_WORKER_SCALES,
                             name="paper-scalability", **overrides)


def _paper_scalability_noniid(**overrides) -> Study:
    return scalability_study(scales=PAPER_WORKER_SCALES, non_iid_level=10.0,
                             name="paper-scalability-noniid", **overrides)


def _smoke_scalability(**overrides) -> Study:
    return scalability_study(scales=SMOKE_WORKER_SCALES,
                             name="smoke-scalability", **overrides)


def _paper_population(**overrides) -> Study:
    return population_study(scales=PAPER_POPULATION_SCALES,
                            name="paper-population", **overrides)


def _smoke_population(**overrides) -> Study:
    return population_study(scales=SMOKE_POPULATION_SCALES,
                            name="smoke-population", **overrides)


def _paper_churn(**overrides) -> Study:
    return churn_study(rates=PAPER_CHURN_RATES, non_iid_level=10.0,
                       name="paper-churn", **overrides)


def _smoke_churn(**overrides) -> Study:
    return churn_study(dataset="blobs", rates=SMOKE_CHURN_RATES,
                       name="smoke-churn", **overrides)


def _paper_codec(**overrides) -> Study:
    return codec_study(codecs=PAPER_CODECS, name="paper-codec", **overrides)


def _paper_splitpoint(**overrides) -> Study:
    return splitpoint_study(policies=PAPER_SPLIT_POLICIES,
                            name="paper-splitpoint", **overrides)


def _smoke_splitpoint(**overrides) -> Study:
    return splitpoint_study(dataset="har", policies=SMOKE_SPLIT_POLICIES,
                            name="smoke-splitpoint", **overrides)


def _smoke_codec(**overrides) -> Study:
    return codec_study(dataset="blobs", codecs=SMOKE_CODECS,
                       algorithms=("mergesfl",), name="smoke-codec",
                       **overrides)


#: Name -> study builder; builders accept config overrides.
PRESETS: dict[str, Callable[..., Study]] = {
    "paper-scalability": _paper_scalability,
    "paper-scalability-noniid": _paper_scalability_noniid,
    "smoke-scalability": _smoke_scalability,
    "paper-population": _paper_population,
    "smoke-population": _smoke_population,
    "paper-churn": _paper_churn,
    "smoke-churn": _smoke_churn,
    "paper-codec": _paper_codec,
    "smoke-codec": _smoke_codec,
    "paper-splitpoint": _paper_splitpoint,
    "smoke-splitpoint": _smoke_splitpoint,
}


def get_preset(name: str, **overrides) -> Study:
    """Build a preset study by name, applying config ``overrides``."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise StudyError(
            f"unknown study preset {name!r} "
            f"(available: {', '.join(sorted(PRESETS))})"
        ) from None
    return builder(**overrides)


def preset_scales(name: str) -> tuple[int, ...]:
    """The ``num_workers`` axis a preset sweeps, in definition order."""
    return tuple(trial.tags["num_workers"] for trial in get_preset(name))
