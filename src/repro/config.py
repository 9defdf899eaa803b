"""Experiment configuration.

A single :class:`ExperimentConfig` drives every algorithm (MergeSFL, the
baselines and the motivation variants) through
:func:`repro.experiments.runner.run_experiment`.
"""

from __future__ import annotations

import difflib
import math
import multiprocessing
import numbers
from dataclasses import InitVar, asdict, dataclass, field, fields

from repro.exceptions import ConfigurationError

#: Every ``extras`` key the code reads.  Other keys are free-form metadata
#: (notes, tags) and pass through untouched -- unless they are a near miss
#: of one of these or of a config field, which :meth:`ExperimentConfig.validate`
#: rejects as a typo instead of silently ignoring the setting.
KNOWN_EXTRAS = (
    "auto_budget",
    "codec_policy",
    "codec_topk_ratio",
    "device_dropout_rates",
    "executor_processes",
    "executor_start_method",
    "population_live_devices",
    "population_samples_per_worker",
    "population_sharding",
    "split_index",
    "transport_capacity",
)

#: Removed ``extras`` keys and the values at which they changed nothing.
#: Like ``staleness`` in :meth:`ExperimentConfig.from_dict`, such a key is
#: dropped at one of those values and fails by name at any other.
RETIRED_EXTRAS = {
    "depth_aware_selection": (False,),
    "split_depth_max": (),
    "split_depth_min": (),
    "top_lr_scale": (1.0,),
}

#: Removed config fields and the values that still load.  The process
#: executor runs the aggregate window over shared-memory rings, and every
#: other executor the blocking order, whatever ``pipeline`` and
#: ``transport`` said; every round runs the churn controller, whatever
#: ``elastic`` said; a materialised worker stays live, whatever
#: ``population`` said, and a registry shard holds 4096 rows.  The records
#: are the same either way, so a value that named a real topology, mode or
#: the shard size every run used is dropped and any other fails by name.
#: :meth:`ExperimentConfig.to_dict` never writes them.
RETIRED_FIELDS = {
    "elastic": (False, True),
    "pipeline": ("sync", "pipelined"),
    "population": ("eager", "lazy"),
    "population_shard_size": (4096,),
    "transport": ("pipe", "shm"),
}


def _loads(value, kept) -> bool:
    """Whether ``value`` is one of the ``kept`` values of a retired name;
    a bool only matches a bool, so ``1`` is not ``True``."""
    return any(isinstance(value, bool) == isinstance(keep, bool)
               and value == keep for keep in kept)


def _check_retired_fields(**given) -> None:
    """Fail on a retired field given at a value that never loaded."""
    for name, value in given.items():
        if value is None or _loads(value, RETIRED_FIELDS[name]):
            continue
        if (name, value) == ("pipeline", "staleness"):
            raise ConfigurationError(
                "pipeline 'staleness' (bounded staleness) was removed; "
                "executor='process' runs the exact schedule 'pipelined' named"
            )
        loads = " or ".join(repr(kept) for kept in RETIRED_FIELDS[name])
        raise ConfigurationError(
            f"{name}={value!r}: the {name!r} field was removed (see "
            f"repro.config.RETIRED_FIELDS); only {loads} still load"
        )


class _ConfigDict(dict):
    """:meth:`ExperimentConfig.to_dict`'s result: a plain dict, except that
    popping a retired field it does not hold returns ``None``, so code that
    strips the execution knobs by name (``perfbench``'s ``task_config``)
    runs unchanged."""

    def pop(self, key, *default):
        if key in RETIRED_FIELDS and key not in self and not default:
            return None
        return super().pop(key, *default)


#: ``executor`` value that leaves the backend to
#: :func:`repro.parallel.resolve_executor`; not a registry entry.
AUTO_EXECUTOR = "auto"

#: ``difflib`` similarity at or above which an unknown ``extras`` key counts
#: as a misspelling: every single-character edit of a known key clears it,
#: the free-form keys in use (``note``, ``tags``, ``telemetry``) score < 0.6.
_TYPO_SIMILARITY = 0.8


@dataclass
class ExperimentConfig:
    """Full description of one training run.

    Attributes mirror the experimental parameters of Section V-A of the
    paper; defaults are scaled down so a run finishes quickly on CPU.
    """

    # Task ----------------------------------------------------------------
    algorithm: str = "mergesfl"
    dataset: str = "cifar10"
    model: str = "alexnet_s"
    model_width: float = 1.0

    # Federation ----------------------------------------------------------
    num_workers: int = 10
    num_rounds: int = 20
    local_iterations: int = 5          # tau in the paper
    non_iid_level: float = 0.0         # p = 1/delta; 0 means IID
    max_batch_size: int = 32           # D, assigned to the fastest worker
    base_batch_size: int = 16          # identical batch size for non-regulating baselines

    # Optimisation ---------------------------------------------------------
    learning_rate: float = 0.1
    lr_decay: float = 0.993
    momentum: float = 0.0
    weight_decay: float = 0.0
    max_grad_norm: float | None = 5.0

    # Data scale -----------------------------------------------------------
    train_samples: int = 2000
    test_samples: int = 400
    eval_batch_size: int = 128

    # Simulation -----------------------------------------------------------
    bandwidth_budget_mbps: float = 120.0   # ingress bandwidth budget B^h of the PS
    mode_change_interval: int = 20         # rounds between device mode re-draws
    estimator_alpha: float = 0.8           # moving-average coefficient (Eq. 5-6)

    # MergeSFL control knobs -------------------------------------------------
    kl_threshold: float = 0.05             # epsilon in Alg. 1
    ga_population: int = 20
    ga_generations: int = 15
    selection_fraction: float = 0.5        # m = N/2 initial population seed

    # Population -------------------------------------------------------------
    #: Every run registers its workers as rows of a
    #: :class:`~repro.population.registry.WorkerRegistry` and materialises
    #: a live :class:`~repro.core.worker.SplitWorker` the first time a round
    #: selects it; it stays live from then on.  ``population`` (the retired
    #: choice to evict the cohort at round end) and ``population_shard_size``
    #: (rows per registry shard, always 4096) only load
    #: (:data:`RETIRED_FIELDS`) and are never stored.
    population: InitVar[str | None] = None
    population_shard_size: InitVar[int | None] = None
    #: Candidate-pool size for per-round planning.  ``0`` plans over the
    #: full population; a positive value plans each round over that many
    #: deterministically sampled candidates, keeping planning cost flat as
    #: registrations grow.
    population_candidates: int = 0

    # Elastic rounds ---------------------------------------------------------
    #: Every round runs the churn controller (:mod:`repro.core.elastic`,
    #: :mod:`repro.simulation.churn`); the knobs below are its parameters.
    #: At their defaults no worker drops, straggles or is over-selected, so
    #: the round is the paper's synchronous aggregate.  ``elastic`` is the
    #: retired switch that once gated them (:data:`RETIRED_FIELDS`): ``True``
    #: and ``False`` still load, and it is never stored.
    elastic: InitVar[bool | None] = None
    #: Per-worker per-round probability of dropping (never replying).
    dropout_rate: float = 0.0
    #: Over-selection factor ``f``: the engines select ``ceil(f * K)``
    #: workers so the round still meets its cohort floor under churn.
    over_select_factor: float = 1.0
    #: Minimum fraction of the selected cohort that must reply for the
    #: round's aggregate to be applied; below it the round yields no update
    #: (the session survives and continues with the next round).  A worker
    #: lost to a dead executor process counts as missing like any other.
    min_cohort_fraction: float = 0.5
    #: Aggregation deadline as a multiple of the cohort's median planned
    #: duration: the server aggregates first-k-of-n at the deadline instead
    #: of waiting for the slowest worker.  ``0`` disables the deadline.
    straggler_deadline: float = 0.0
    #: How many rounds a missing worker's late update may lag before it is
    #: discarded instead of folded back into the aggregate.  ``0`` discards
    #: every late update (missing workers never rejoin).
    rejoin_staleness_bound: int = 0

    # Execution --------------------------------------------------------------
    #: How the per-worker compute of each round is executed.  All backends
    #: are bit-exact with each other, so this is purely a speed knob, and
    #: the default ``"auto"`` lets the code pick: it is resolved once, when
    #: the components are built, to ``"batched"`` (every worker stacked into
    #: one numpy kernel per layer) when every layer of the model has a
    #: stacked kernel (the dense layers), and to ``"serial"`` (the
    #: per-worker reference) otherwise -- exactly where a forced
    #: ``"batched"`` would fall back; see
    #: :func:`repro.parallel.resolve_executor`.  Naming a backend --
    #: ``"serial"``, ``"batched"`` or ``"process"`` (multiprocessing pool) --
    #: forces it and is never re-resolved: force ``"process"`` for conv
    #: models on a multi-core host, ``"serial"`` to run the reference.
    executor: str = AUTO_EXECUTOR
    #: Retired execution spellings (see :data:`RETIRED_FIELDS`): the process
    #: executor always runs the aggregate window over shared-memory rings,
    #: so ``pipeline`` and ``transport`` only load, at the values that
    #: named that topology or the blocking reference, and are never stored.
    pipeline: InitVar[str | None] = None
    transport: InitVar[str | None] = None
    #: Codec of the simulated worker <-> PS link for the feature/gradient
    #: payloads: ``"none"`` (bit-exact passthrough, the default),
    #: ``"fp16"``/``"bf16"`` (half-precision casts), ``"int8"`` (per-tensor
    #: affine quantization) or ``"topk"`` (sparsification with error
    #: feedback); see :mod:`repro.parallel.codec`.
    #: ``extras["codec_policy"]`` assigns codecs per payload class
    #: (``features``/``gradients``/``weights``) and
    #: ``extras["codec_topk_ratio"]`` tunes the top-k kept fraction.  The
    #: round applies it on every executor, and the simulated network
    #: (traffic, Eq. 9 regulation, split policies) charges the encoded
    #: size, so a lossy codec is one deterministic trajectory everywhere.
    codec: str = "none"
    #: How per-worker split points (cut depths into the bottom model) are
    #: chosen each round: ``"uniform"`` (every worker cuts at the global
    #: split layer -- bit-exact with the historical behaviour), ``"profile"``
    #: (a static depth per worker from its device class's compute/bandwidth
    #: profile) or ``"adaptive"`` (depths re-selected every round from
    #: observed durations and wire traffic); see :mod:`repro.splitpoint`.
    #: ``extras["split_index"]`` overrides the global cut layer; a policy
    #: picks among every cut after a weighted layer of the bottom model.
    split_policy: str = "uniform"
    #: Which solver runs the per-round worker selection (Eq. 10-13, Alg. 1
    #: line 5): ``"ga"`` (the paper's genetic algorithm -- bit-exact with the
    #: historical behaviour), ``"ga-warm"`` (GA warm-started from the previous
    #: round's winner, with elite variable-fixing and symmetry breaking),
    #: ``"local-search"`` (greedy construction plus incremental 1-flip/1-swap
    #: refinement) or ``"greedy"`` (the construction alone, the historical
    #: ablation); see :mod:`repro.selection`.  Every solver prices a
    #: candidate's ingress at the one per-sample exchange size of the
    #: global cut (Eq. 10), whatever depth a split policy assigns it.
    selector: str = "ga"

    # Reproducibility --------------------------------------------------------
    seed: int = 0

    # Free-form extras (kept for forward compatibility of saved configs).
    extras: dict = field(default_factory=dict)

    def __post_init__(
        self, population: str | None, population_shard_size: int | None,
        elastic: bool | None, pipeline: str | None, transport: str | None,
    ) -> None:
        _check_retired_fields(
            population=population, population_shard_size=population_shard_size,
            elastic=elastic, pipeline=pipeline, transport=transport,
        )
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` when any field is out of range.

        Component names are checked against the :mod:`repro.api.registry`
        registries (imported lazily to avoid a circular import), so
        third-party algorithms, datasets and models registered with the
        ``@register_*`` decorators validate exactly like built-ins.
        """
        from repro.api.registry import (
            ALGORITHMS,
            CODECS,
            DATASETS,
            EXECUTORS,
            MODELS,
            SELECTION_SOLVERS,
            SPLIT_POLICIES,
        )

        self._check_numeric_types()
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(ALGORITHMS.unknown_message(self.algorithm))
        if self.dataset not in DATASETS:
            raise ConfigurationError(DATASETS.unknown_message(self.dataset))
        if self.model not in MODELS:
            raise ConfigurationError(MODELS.unknown_message(self.model))
        if self.executor != AUTO_EXECUTOR and self.executor not in EXECUTORS:
            raise ConfigurationError(EXECUTORS.unknown_message(self.executor))
        if self.codec not in CODECS:
            raise ConfigurationError(CODECS.unknown_message(self.codec))
        if self.split_policy not in SPLIT_POLICIES:
            raise ConfigurationError(
                SPLIT_POLICIES.unknown_message(self.split_policy)
            )
        if ALGORITHMS.metadata(self.algorithm).get("full_model") and (
                self.split_policy != "uniform" or "split_index" in self.extras):
            raise ConfigurationError(
                f"algorithm {self.algorithm!r} trains the full model on every "
                f"worker and cuts nothing, so it would ignore split_policy="
                f"{self.split_policy!r} and extras['split_index']; use "
                f"split_policy='uniform' and no split_index"
            )
        if self.selector not in SELECTION_SOLVERS:
            raise ConfigurationError(
                SELECTION_SOLVERS.unknown_message(self.selector)
            )
        self._drop_retired_extras()
        self._reject_misspelled_extras()
        self._validate_split_extras()
        policy_overrides = self.extras.get("codec_policy")
        if policy_overrides is not None:
            from repro.parallel.codec import PAYLOAD_CLASSES

            if not isinstance(policy_overrides, dict):
                raise ConfigurationError(
                    f"extras['codec_policy'] must be a dict of payload class "
                    f"-> codec name, got {policy_overrides!r}"
                )
            for klass, name in policy_overrides.items():
                if klass not in PAYLOAD_CLASSES:
                    raise ConfigurationError(
                        f"extras['codec_policy'] has unknown payload class "
                        f"{klass!r} (known: {', '.join(PAYLOAD_CLASSES)})"
                    )
                if name not in CODECS:
                    raise ConfigurationError(CODECS.unknown_message(name))
        positive_fields = {
            "num_workers": self.num_workers,
            "num_rounds": self.num_rounds,
            "local_iterations": self.local_iterations,
            "max_batch_size": self.max_batch_size,
            "base_batch_size": self.base_batch_size,
            "learning_rate": self.learning_rate,
            "train_samples": self.train_samples,
            "test_samples": self.test_samples,
            "eval_batch_size": self.eval_batch_size,
            "bandwidth_budget_mbps": self.bandwidth_budget_mbps,
            "mode_change_interval": self.mode_change_interval,
            "ga_population": self.ga_population,
            "ga_generations": self.ga_generations,
            "model_width": self.model_width,
        }
        for name, value in positive_fields.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.max_batch_size < self.base_batch_size:
            raise ConfigurationError(
                f"max_batch_size ({self.max_batch_size}) must be >= "
                f"base_batch_size ({self.base_batch_size}): the regulated "
                f"range [base, max] would be empty"
            )
        if self.momentum < 0:
            raise ConfigurationError(
                f"momentum must be non-negative, got {self.momentum}"
            )
        if self.weight_decay < 0:
            raise ConfigurationError(
                f"weight_decay must be non-negative, got {self.weight_decay}"
            )
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ConfigurationError(
                f"max_grad_norm must be positive or None, got {self.max_grad_norm}"
            )
        if self.non_iid_level < 0:
            raise ConfigurationError(
                f"non_iid_level must be non-negative, got {self.non_iid_level}"
            )
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError(
                f"lr_decay must be in (0, 1], got {self.lr_decay}"
            )
        if not 0.0 <= self.estimator_alpha <= 1.0:
            raise ConfigurationError(
                f"estimator_alpha must be in [0, 1], got {self.estimator_alpha}"
            )
        if self.kl_threshold < 0:
            raise ConfigurationError(
                f"kl_threshold must be non-negative, got {self.kl_threshold}"
            )
        if not 0.0 < self.selection_fraction <= 1.0:
            raise ConfigurationError(
                f"selection_fraction must be in (0, 1], got {self.selection_fraction}"
            )
        if self.population_candidates < 0:
            raise ConfigurationError(
                f"population_candidates must be non-negative, "
                f"got {self.population_candidates}"
            )
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ConfigurationError(
                f"dropout_rate must be in [0, 1], got {self.dropout_rate}"
            )
        if self.over_select_factor < 1.0:
            raise ConfigurationError(
                f"over_select_factor must be >= 1, got {self.over_select_factor}"
            )
        if not 0.0 < self.min_cohort_fraction <= 1.0:
            raise ConfigurationError(
                f"min_cohort_fraction must be in (0, 1], "
                f"got {self.min_cohort_fraction}"
            )
        if self.straggler_deadline < 0:
            raise ConfigurationError(
                f"straggler_deadline must be non-negative, "
                f"got {self.straggler_deadline}"
            )
        if self.rejoin_staleness_bound < 0:
            raise ConfigurationError(
                f"rejoin_staleness_bound must be non-negative, "
                f"got {self.rejoin_staleness_bound}"
            )
        self._validate_population_extras()
        self._check_int_extras(executor_processes=1, transport_capacity=1)
        start_method = self.extras.get("executor_start_method")
        if (start_method is not None
                and start_method not in multiprocessing.get_all_start_methods()):
            raise ConfigurationError(
                f"extras['executor_start_method'] must be one of "
                f"{multiprocessing.get_all_start_methods()}, got {start_method!r}"
            )
        class_rates = self.extras.get("device_dropout_rates")
        if class_rates is not None:
            if not isinstance(class_rates, dict):
                raise ConfigurationError(
                    f"extras['device_dropout_rates'] must be a dict of device "
                    f"class name -> dropout rate, got {class_rates!r}"
                )
            for name, rate in class_rates.items():
                if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                    raise ConfigurationError(
                        f"extras['device_dropout_rates'][{name!r}] must be a "
                        f"rate in [0, 1], got {rate!r}"
                    )

    def _check_numeric_types(self) -> None:
        """Type every numeric field before a range check compares it.

        An ``int`` field takes any integral number but a bool (numpy ints
        pass); a ``float`` field any real number but a bool or NaN, and a
        finite one, except ``kl_threshold``: at infinity Alg. 1 line 6
        never runs.
        """
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "int":
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ConfigurationError(
                        f"{spec.name} must be an integer, got {value!r}"
                    )
            elif spec.type in ("float", "float | None"):
                if value is None and spec.type != "float":
                    continue
                may_be_infinite = spec.name == "kl_threshold"
                if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                        or value != value
                        or (abs(value) == math.inf and not may_be_infinite)):
                    kind = "not NaN" if may_be_infinite else "finite"
                    raise ConfigurationError(
                        f"{spec.name} must be a real number, {kind}, got {value!r}"
                    )

    def _drop_retired_extras(self) -> None:
        """Drop a removed ``extras`` key at a value that changed nothing;
        fail by name at any other (checked before the typo detector, so a
        removed key is never read as a misspelling of a live one)."""
        retired = [key for key in RETIRED_EXTRAS if key in self.extras]
        for key in retired:
            value, neutral = self.extras[key], RETIRED_EXTRAS[key]
            if not _loads(value, neutral):
                loads = f"; only {neutral[0]!r} still loads" if neutral else ""
                raise ConfigurationError(
                    f"extras[{key!r}]={value!r}: the key was removed{loads}"
                )
        if retired:
            self.extras = {key: value for key, value in self.extras.items()
                           if key not in RETIRED_EXTRAS}

    def _validate_population_extras(self) -> None:
        """The population's extras take valid values."""
        sharding = self.extras.get("population_sharding", "partition")
        if sharding not in ("partition", "sampled"):
            raise ConfigurationError(
                f"extras['population_sharding'] must be 'partition' or "
                f"'sampled', got {sharding!r}"
            )
        self._check_int_extras(
            population_samples_per_worker=1, population_live_devices=0
        )

    def _check_int_extras(self, **lows: int) -> None:
        """Each named ``extras`` key, when given, is an integer (numpy ints
        pass, bools do not) at or above its bound: a bad value fails here by
        name, not when (or whether) the component that reads it is built."""
        for key, low in lows.items():
            value = self.extras.get(key, low)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ConfigurationError(
                    f"extras[{key!r}] must be an int >= {low}, got {value!r}"
                )

    def _reject_misspelled_extras(self) -> None:
        """Fail on an ``extras`` key that nearly spells a known name.

        Covers keys passed in ``extras`` directly and unknown top-level keys
        :meth:`from_dict` swept into it (``num_worker=8``), which would
        otherwise leave the intended setting at its default without a word.
        """
        names = [spec.name for spec in fields(self) if spec.name != "extras"]
        for key in self.extras:
            if key in KNOWN_EXTRAS:
                continue
            closest = difflib.get_close_matches(
                str(key), [*KNOWN_EXTRAS, *names], n=1, cutoff=_TYPO_SIMILARITY
            )
            if closest:
                kind = "extras key" if closest[0] in KNOWN_EXTRAS else "config field"
                raise ConfigurationError(
                    f"unknown extras key {key!r}; did you mean the {kind} "
                    f"{closest[0]!r}? (extras keys the code reads: "
                    f"{', '.join(KNOWN_EXTRAS)})"
                )

    def _validate_split_extras(self) -> None:
        """Config-time checks of the split-point extras.

        Bounds that need the actual model depth (e.g. ``split_index`` vs the
        bottom model's layer count) are enforced at component-build time by
        :mod:`repro.api.components`; here we reject values that can never be
        valid for any model.
        """
        split_index = self.extras.get("split_index")
        if split_index is not None:
            if not isinstance(split_index, int) or isinstance(split_index, bool):
                raise ConfigurationError(
                    f"extras['split_index'] must be an integer cut layer, "
                    f"got {split_index!r}"
                )
            if split_index <= 0:
                raise ConfigurationError(
                    f"extras['split_index'] must be positive (the cut must "
                    f"leave at least one bottom layer), got {split_index}"
                )

    def to_dict(self) -> dict:
        """Plain-dict representation (JSON-serialisable); the retired
        fields are never written."""
        return asdict(self, dict_factory=_ConfigDict)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys go into ``extras``.

        ``staleness``, the bound of the retired bounded-staleness scheduler,
        is dropped at its exact value 0 and fails by name otherwise.
        ``population_cache``, the capacity of the retired delta caches, is
        dropped: the lazy pool's cache was never read, and a pending rejoin
        now carries its own delta.  The :data:`RETIRED_FIELDS` load as the
        constructor takes them.
        """
        payload = dict(payload)
        payload.pop("population_cache", None)
        staleness = payload.pop("staleness", 0)
        if staleness != 0:
            raise ConfigurationError(
                f"staleness={staleness}: bounded staleness was removed, only "
                f"the exact schedule (staleness 0) loads"
            )
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {key: value for key, value in payload.items() if key in known}
        extras = {key: value for key, value in payload.items() if key not in known}
        if extras:
            merged = dict(kwargs.get("extras", {}))
            merged.update(extras)
            kwargs["extras"] = merged
        return cls(**kwargs)

    def replace(self, **changes) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        payload = self.to_dict()
        payload.update(changes)
        return ExperimentConfig.from_dict(payload)
