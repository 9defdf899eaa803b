"""Experiment configuration.

A single :class:`ExperimentConfig` drives every algorithm (MergeSFL, the
baselines and the motivation variants) through
:func:`repro.experiments.runner.run_experiment`.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, asdict

from repro.exceptions import ConfigurationError

#: Every ``extras`` key the code reads.  Other keys are free-form metadata
#: (notes, tags) and pass through untouched -- unless they are a near miss
#: of one of these or of a config field, which :meth:`ExperimentConfig.validate`
#: rejects as a typo instead of silently ignoring the setting.
KNOWN_EXTRAS = (
    "auto_budget",
    "codec_policy",
    "codec_topk_ratio",
    "depth_aware_selection",
    "device_dropout_rates",
    "executor_processes",
    "executor_start_method",
    "population_live_devices",
    "population_samples_per_worker",
    "population_sharding",
    "split_depth_max",
    "split_depth_min",
    "split_index",
    "top_lr_scale",
    "transport_capacity",
)

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
    #: How registered workers are held: ``"eager"`` builds one live
    #: :class:`~repro.core.worker.SplitWorker` per registered worker (the
    #: historical behaviour); ``"lazy"`` keeps compact metadata rows in a
    #: :class:`~repro.population.registry.WorkerRegistry` and materialises
    #: live workers only for each round's selected cohort.  Both modes are
    #: bit-exact with each other; ``"lazy"`` bounds resident worker state by
    #: the cohort instead of the registered population.
    population: str = "eager"
    #: Rows per registry shard -- the granularity at which the lazy
    #: registry materialises its label-distribution column.
    population_shard_size: int = 4096
    #: Candidate-pool size for per-round planning under ``population="lazy"``.
    #: ``0`` plans over the full population (bit-exact with eager); a
    #: positive value plans each round over that many deterministically
    #: sampled candidates, keeping planning cost flat as registrations grow.
    population_candidates: int = 0
    #: Capacity of the lazy pool's per-worker bottom-model
    #: :class:`~repro.population.cache.DeltaCache` (LRU over recent
    #: participants); ``0`` disables delta caching.
    population_cache: int = 64

    # Elastic rounds ---------------------------------------------------------
    #: Master switch for elastic fault-tolerant rounds (see
    #: :mod:`repro.simulation.churn` and :mod:`repro.core.elastic`).  When
    #: ``False`` (the default) every selected worker is assumed to reply and
    #: trajectories are bit-exact with historical runs; the knobs below then
    #: must stay at their neutral defaults.
    elastic: bool = False
    #: Per-worker per-round probability of dropping (never replying).
    dropout_rate: float = 0.0
    #: Over-selection factor ``f``: the engines select ``ceil(f * K)``
    #: workers so the round still meets its cohort floor under churn.
    over_select_factor: float = 1.0
    #: Minimum fraction of the selected cohort that must reply for the
    #: round's aggregate to be applied; below it the round yields no update
    #: (the session survives and continues with the next round).
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
    #: Where the parent waits in each round -- two constructions of the
    #: one scheduler in :mod:`repro.parallel.pipeline`: ``"sync"`` (every
    #: install and backward acknowledged) or ``"pipelined"`` (the aggregate
    #: window on executors that support it: fewer blocking points, and the
    #: round's accounting plus the next round's plan overlap the
    #: executor's tail compute).  The two are bit-exact with each other;
    #: executors without asynchronous dispatch run the blocking order
    #: under both names.
    pipeline: str = "sync"
    #: How feature/gradient/mini-batch arrays cross the process executor's
    #: process boundary: ``"pipe"`` (pickle over a pipe) or ``"shm"``
    #: (shared-memory ring buffers, headers only over the pipe); see
    #: :mod:`repro.parallel.transport`.  Ignored by in-process executors.
    transport: str = "pipe"
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
    #: ``extras["split_index"]`` overrides the global cut layer and
    #: ``extras["split_depth_min"]``/``extras["split_depth_max"]`` bound the
    #: candidate depths a policy may assign.
    split_policy: str = "uniform"
    #: Which solver runs the per-round worker selection (Eq. 10-13, Alg. 1
    #: line 5): ``"ga"`` (the paper's genetic algorithm -- bit-exact with the
    #: historical behaviour), ``"ga-warm"`` (GA warm-started from the previous
    #: round's winner, with elite variable-fixing and symmetry breaking),
    #: ``"local-search"`` (greedy construction plus incremental 1-flip/1-swap
    #: refinement), ``"greedy"`` (the construction alone, the historical
    #: ablation) or ``"exact"`` (brute force, tiny instances only); see
    #: :mod:`repro.selection`.  ``extras["depth_aware_selection"] = True``
    #: additionally prices each candidate's ingress cost at its own split
    #: depth instead of the global scalar (requires a non-uniform
    #: ``split_policy``).
    selector: str = "ga"

    # Reproducibility --------------------------------------------------------
    seed: int = 0

    # Free-form extras (kept for forward compatibility of saved configs).
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
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
            PIPELINES,
            SELECTION_SOLVERS,
            SPLIT_POLICIES,
            TRANSPORTS,
        )

        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(ALGORITHMS.unknown_message(self.algorithm))
        if self.dataset not in DATASETS:
            raise ConfigurationError(DATASETS.unknown_message(self.dataset))
        if self.model not in MODELS:
            raise ConfigurationError(MODELS.unknown_message(self.model))
        if self.executor != AUTO_EXECUTOR and self.executor not in EXECUTORS:
            raise ConfigurationError(EXECUTORS.unknown_message(self.executor))
        if self.pipeline == "staleness":
            raise ConfigurationError(
                "pipeline 'staleness' (bounded staleness) was removed; "
                "'pipelined' runs its exact schedule"
            )
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(PIPELINES.unknown_message(self.pipeline))
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(TRANSPORTS.unknown_message(self.transport))
        if self.codec not in CODECS:
            raise ConfigurationError(CODECS.unknown_message(self.codec))
        if self.split_policy not in SPLIT_POLICIES:
            raise ConfigurationError(
                SPLIT_POLICIES.unknown_message(self.split_policy)
            )
        if self.selector not in SELECTION_SOLVERS:
            raise ConfigurationError(
                SELECTION_SOLVERS.unknown_message(self.selector)
            )
        self._reject_misspelled_extras()
        self._validate_split_extras()
        depth_aware = self.extras.get("depth_aware_selection")
        if depth_aware is not None:
            if not isinstance(depth_aware, bool):
                raise ConfigurationError(
                    f"extras['depth_aware_selection'] must be a bool, "
                    f"got {depth_aware!r}"
                )
            if depth_aware and self.split_policy == "uniform":
                raise ConfigurationError(
                    "extras['depth_aware_selection'] requires a non-uniform "
                    "split_policy; under the uniform global cut every worker "
                    "already shares one exchange size"
                )
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
        if self.population not in ("eager", "lazy"):
            raise ConfigurationError(
                f"population must be 'eager' or 'lazy', got {self.population!r}"
            )
        if self.population_shard_size <= 0:
            raise ConfigurationError(
                f"population_shard_size must be positive, "
                f"got {self.population_shard_size}"
            )
        if self.population_candidates < 0:
            raise ConfigurationError(
                f"population_candidates must be non-negative, "
                f"got {self.population_candidates}"
            )
        if self.population_cache < 0:
            raise ConfigurationError(
                f"population_cache must be non-negative, "
                f"got {self.population_cache}"
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
        if (self.rejoin_staleness_bound < 0
                or self.rejoin_staleness_bound != int(self.rejoin_staleness_bound)):
            raise ConfigurationError(
                f"rejoin_staleness_bound must be a non-negative integer, "
                f"got {self.rejoin_staleness_bound}"
            )
        if not self.elastic and (
            self.dropout_rate > 0
            or self.over_select_factor > 1.0
            or self.straggler_deadline > 0
            or self.rejoin_staleness_bound > 0
        ):
            raise ConfigurationError(
                "dropout_rate/over_select_factor/straggler_deadline/"
                "rejoin_staleness_bound require elastic=True; with "
                "elastic=False they would be silently ignored"
            )
        if self.population == "eager" and self.population_candidates > 0:
            raise ConfigurationError(
                "population_candidates requires population='lazy'; the eager "
                "population always plans over every registered worker"
            )
        class_rates = self.extras.get("device_dropout_rates")
        if class_rates is not None:
            if not self.elastic:
                raise ConfigurationError(
                    "extras['device_dropout_rates'] requires elastic=True; "
                    "with elastic=False it would be silently ignored"
                )
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

    def _reject_misspelled_extras(self) -> None:
        """Fail on an ``extras`` key that nearly spells a known name.

        Covers keys passed in ``extras`` directly and unknown top-level keys
        :meth:`from_dict` swept into it (``num_worker=8``), which would
        otherwise leave the intended setting at its default without a word.
        """
        fields = [name for name in self.__dataclass_fields__ if name != "extras"]
        for key in self.extras:
            if key in KNOWN_EXTRAS:
                continue
            closest = difflib.get_close_matches(
                str(key), [*KNOWN_EXTRAS, *fields], n=1, cutoff=_TYPO_SIMILARITY
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
        bounds = {}
        for key in ("split_depth_min", "split_depth_max"):
            value = self.extras.get(key)
            if value is None:
                continue
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value <= 0):
                raise ConfigurationError(
                    f"extras[{key!r}] must be a positive integer depth, "
                    f"got {value!r}"
                )
            bounds[key] = value
        if ("split_depth_min" in bounds and "split_depth_max" in bounds
                and bounds["split_depth_min"] > bounds["split_depth_max"]):
            raise ConfigurationError(
                f"extras['split_depth_min'] ({bounds['split_depth_min']}) "
                f"must be <= extras['split_depth_max'] "
                f"({bounds['split_depth_max']})"
            )

    def to_dict(self) -> dict:
        """Plain-dict representation (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys go into ``extras``.

        ``staleness``, the bound of the retired bounded-staleness scheduler,
        is dropped at its exact value 0 and fails by name otherwise.
        """
        payload = dict(payload)
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
