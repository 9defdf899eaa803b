"""Configuration-to-components assembly and registry-driven construction.

:func:`build_components` materialises everything an algorithm needs from an
:class:`~repro.config.ExperimentConfig` -- dataset, partition, workers,
model, split, simulated cluster and bandwidth budget -- and
:func:`build_algorithm` instantiates the configured algorithm through the
:data:`~repro.api.registry.ALGORITHMS` registry.  There is no hard-coded
algorithm/dataset/model dispatch here: adding a component means registering
it (see :mod:`repro.api.registry`), not editing this module.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.base import Executor
    from repro.selection.solvers import SelectionSolver

from repro.api.registry import ALGORITHMS, DATASETS, MODELS
from repro.config import ExperimentConfig
from repro.core.worker import SplitWorker
from repro.data.dataset import TrainTestSplit
from repro.data.partition import partition_dataset
from repro.data.synthetic import make_dataset
from repro.exceptions import ConfigurationError
from repro.nn.models import build_model, default_split_layer, has_default_split
from repro.nn.module import Sequential
from repro.nn.split import SplitModel, split_model
from repro.parallel import build_executor
from repro.population.materializer import Materializer
from repro.population.pool import WorkerPool
from repro.population.registry import (
    PartitionShards,
    SampledShards,
    WorkerRegistry,
)
from repro.simulation.cluster import Cluster
from repro.simulation.traffic import feature_bytes

#: Fraction of the "everyone at full batch" ingress load used as the default
#: bandwidth budget, so worker selection is a real constraint (see the
#: README's "Algorithms" section).
DEFAULT_BUDGET_UTILISATION = 0.6


@dataclass
class ExperimentComponents:
    """Everything needed to instantiate an algorithm.

    A component set is consumed by the one engine built from it: that
    engine advances ``pool``, ``cluster`` and ``workers`` and trains
    ``model``'s layers in place.  A caller that needs an untouched model
    hands over ``model.clone()``.  ``executor`` is the execution backend
    (the :data:`~repro.api.registry.EXECUTORS` entry ``config.executor``
    names or, for ``"auto"``, resolves to -- its ``name`` says which) that
    the engines use for per-worker compute.
    """

    config: ExperimentConfig
    #: The process's shared, read-only data plane for this config's key
    #: (see :func:`build_components`): other sessions may hold the same
    #: arrays, so a write into them raises ``ValueError``.
    data: TrainTestSplit
    model: Sequential
    #: ``model`` cut at the global split layer, as views of its layers;
    #: ``None`` under a full-model (FL) algorithm, or for a model that
    #: declares no split point (no ``split_after_weighted`` metadata).
    split: SplitModel | None
    #: The population the engines plan and train against.
    pool: WorkerPool
    cluster: Cluster
    bandwidth_budget: float
    #: ``None`` (e.g. hand-wired component sets) means the engines fall
    #: back to their default serial executor.
    executor: "Executor | None" = None
    #: Worker-selection solver shared by whichever policy the algorithm
    #: builds.  ``None`` means :meth:`selection_solver` resolves
    #: ``config.selector`` from the registry on first use.
    selection: "SelectionSolver | None" = None

    @property
    def workers(self) -> list[SplitWorker]:
        """Every worker, live; see
        :attr:`~repro.population.pool.WorkerPool.workers`."""
        return self.pool.workers

    def selection_solver(self) -> "SelectionSolver":
        """The worker-selection solver, resolved from ``config.selector``."""
        if self.selection is None:
            from repro.selection.solvers import build_selection_solver

            self.selection = build_selection_solver(self.config)
        return self.selection


def build_model_for(config: ExperimentConfig, data: TrainTestSplit) -> Sequential:
    """Build the configured model with dimensions matching the dataset.

    The keyword contract is selected by the model's ``input_kind`` metadata
    (declared at registration, see :mod:`repro.api.registry`):

    * ``"vector"`` -- builder receives ``input_dim`` (the flattened size).
    * ``"sequence"`` -- expects ``(channels, length)`` data; builder receives
      ``in_channels``, ``sequence_length`` and ``width``.
    * ``"image"`` -- expects square ``(channels, size, size)`` data; builder
      receives ``in_channels``, ``image_size`` and ``width``.
    * ``"raw"`` (default) -- builder receives ``feature_shape`` verbatim,
      for plugins that handle their own shape logic.

    All builders additionally receive ``num_classes`` and ``seed``.
    """
    shape = data.feature_shape
    input_kind = (
        MODELS.metadata(config.model).get("input_kind", "raw")
        if config.model in MODELS else "raw"
    )
    kwargs: dict = {"num_classes": data.num_classes, "seed": config.seed}
    if input_kind == "vector":
        kwargs["input_dim"] = int(np.prod(shape))
    elif input_kind == "sequence":
        if len(shape) != 2:
            raise ConfigurationError(
                f"model {config.model!r} expects (channels, length) data, got {shape}"
            )
        kwargs["in_channels"] = shape[0]
        kwargs["sequence_length"] = shape[1]
        kwargs["width"] = config.model_width
    elif input_kind == "image":
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ConfigurationError(
                f"model {config.model!r} expects square image data, got {shape}"
            )
        kwargs["in_channels"] = shape[0]
        kwargs["image_size"] = shape[1]
        kwargs["width"] = config.model_width
    elif input_kind == "raw":
        kwargs["feature_shape"] = shape
    else:
        raise ConfigurationError(
            f"model {config.model!r} declares unknown input_kind {input_kind!r}"
        )
    return build_model(config.model, **kwargs)


def _default_bandwidth_budget(
    config: ExperimentConfig, split: SplitModel, data: TrainTestSplit
) -> float:
    """Ingress budget B^h that makes the selection constraint bite.

    When ``extras['auto_budget']`` is true (the default), the budget is set
    to ``DEFAULT_BUDGET_UTILISATION`` of the load generated by every worker
    sending a full-size batch, so roughly that fraction of the fleet can be
    selected at full batch.  Setting ``auto_budget`` to ``False`` uses the
    configured ``bandwidth_budget_mbps`` verbatim.
    """
    if not config.extras.get("auto_budget", True):
        return config.bandwidth_budget_mbps
    feature_shape = split.bottom_profile(data.feature_shape)[1]
    per_sample_mbits = 2 * feature_bytes(feature_shape, 1) * 8.0 / 1e6
    return (
        DEFAULT_BUDGET_UTILISATION
        * config.num_workers
        * config.max_batch_size
        * per_sample_mbits
    )


#: The one data plane this process holds (see :func:`_data_plane`):
#: ``"data"`` is ``(key, TrainTestSplit)`` and, under it, ``"shards"`` is
#: ``(key, shard arrays)``.  Set-ups in several threads take turns.
_PLANE: dict = {}
_PLANE_LOCK = threading.Lock()


def _data_plane(
    config: ExperimentConfig, partition: bool
) -> tuple[TrainTestSplit, list[np.ndarray] | None]:
    """The configured dataset and, with ``partition``, its shard arrays,
    shared read-only by every session of one key in this process.

    The data is keyed by the registered generator (a re-registered name
    misses), ``train_samples``, ``test_samples`` and ``seed``; under it,
    the partition by ``num_workers`` and ``non_iid_level``.  A miss drops
    the held entry before generating, so two planes never live here at
    once.  :func:`make_dataset` and :func:`partition_dataset` stay pure.
    """
    data_key = (
        DATASETS.get(config.dataset), config.train_samples,
        config.test_samples, config.seed,
    )
    with _PLANE_LOCK:
        if _PLANE.get("data", (None,))[0] != data_key:
            _PLANE.clear()
            data = make_dataset(
                config.dataset,
                train_samples=config.train_samples,
                test_samples=config.test_samples,
                seed=config.seed,
            )
            for array in (data.train.data, data.train.targets,
                          data.test.data, data.test.targets):
                array.flags.writeable = False
            _PLANE["data"] = (data_key, data)
        data = _PLANE["data"][1]
        if not partition:
            return data, None
        shards_key = (config.num_workers, config.non_iid_level)
        if _PLANE.get("shards", (None,))[0] != shards_key:
            _PLANE.pop("shards", None)
            shards = [
                np.asarray(shard, dtype=np.int64)
                for shard in partition_dataset(
                    data.train, config.num_workers, config.non_iid_level,
                    seed=config.seed,
                )
            ]
            for shard in shards:
                shard.flags.writeable = False
            _PLANE["shards"] = (shards_key, shards)
        return data, _PLANE["shards"][1]


def _build_population(
    config: ExperimentConfig,
    data: TrainTestSplit,
    shards: list[np.ndarray] | None,
) -> WorkerPool:
    """Registry, materializer and pool of the configured population.

    The shards are :func:`partition_dataset`'s (``shards``) unless
    ``extras['population_sharding']`` is ``"sampled"`` (``shards`` is
    ``None``): each shard derived from a per-worker RNG stream, O(1) per
    registration (size ``extras['population_samples_per_worker']``).
    """
    if shards is None:
        default_samples = min(
            len(data.train), max(16, len(data.train) // config.num_workers)
        )
        source = SampledShards(
            train_size=len(data.train),
            samples_per_worker=config.extras.get(
                "population_samples_per_worker", default_samples
            ),
            seed=config.seed,
        )
    else:
        source = PartitionShards(shards)
    registry = WorkerRegistry(
        num_workers=config.num_workers,
        num_classes=data.num_classes,
        targets=data.train.targets,
        source=source,
    )
    materializer = Materializer(
        registry=registry,
        train_dataset=data.train,
        num_classes=data.num_classes,
        seed=config.seed,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        max_grad_norm=config.max_grad_norm,
    )
    return WorkerPool(
        registry=registry,
        materializer=materializer,
        candidates_per_round=config.population_candidates,
        seed=config.seed,
    )


def resolve_split_layer(config: ExperimentConfig, model: Sequential) -> int:
    """The global cut layer, validated against the actual model depth.

    ``extras['split_index']`` overrides the model's registered default cut;
    out-of-range overrides are rejected here with a
    :class:`ConfigurationError` at build time, before any round runs,
    instead of surfacing mid-run as a :class:`~repro.exceptions.SplitError`.
    """
    depth = len(model)
    index = config.extras.get("split_index")
    if index is None:
        index = default_split_layer(config.model, model)
    elif not 0 < index < depth:
        raise ConfigurationError(
            f"extras['split_index'] ({index}) must be in (0, {depth}) for "
            f"model {config.model!r} ({depth} layers): the cut must leave "
            f"at least one layer on each side"
        )
    return index


def build_components(config: ExperimentConfig) -> ExperimentComponents:
    """Materialise dataset, partition, model, split, cluster and workers.

    The dataset and its partition are the process's *data plane*: a
    session whose dataset, sizes and seed (and, for the partition, worker
    count and non-IID level) match the previous set-up's reuses its
    arrays instead of generating them again.  They are read-only, since
    other sessions may hold them; the next set-up with another key frees
    them before it generates.
    """
    sampled = config.extras.get("population_sharding", "partition") == "sampled"
    data, shards = _data_plane(config, partition=not sampled)
    pool = _build_population(config, data, shards)
    cluster = Cluster(
        num_workers=config.num_workers,
        bandwidth_budget_mbps=config.bandwidth_budget_mbps,
        seed=config.seed,
        mode_change_interval=config.mode_change_interval,
        max_live_devices=config.extras.get("population_live_devices", 0),
    )
    model = build_model_for(config, data)
    # Without a split there is no feature traffic to budget against; the
    # configured ingress budget is used verbatim.
    split, budget = None, config.bandwidth_budget_mbps
    full_model = ALGORITHMS.metadata(config.algorithm).get("full_model")
    if has_default_split(config.model) and not full_model:
        split = split_model(model, resolve_split_layer(config, model))
        budget = _default_bandwidth_budget(config, split, data)
    return ExperimentComponents(
        config=config,
        data=data,
        model=model,
        split=split,
        pool=pool,
        cluster=cluster,
        bandwidth_budget=budget,
        executor=build_executor(config, model),
    )


def build_algorithm(components: ExperimentComponents):
    """Instantiate the algorithm named in the configuration via the registry."""
    factory = ALGORITHMS.get(components.config.algorithm)
    return factory(components)
