"""The split training engine (the paper's training module).

:class:`SplitTrainingEngine` executes communication rounds for every SFL
variant in the repository.  Per-round decisions (worker set, batch sizes)
come from a :class:`ControlPolicy`; the engine handles the mechanics that
all variants share: bottom-model distribution, ``tau`` local iterations of
split forward/backward propagation (with or without feature merging),
weighted bottom-model aggregation, simulated-clock accounting, traffic
accounting and evaluation.

The round lifecycle itself -- steppable rounds with a monotonic index,
checkpoint/resume of the shared state, planning + over-selection, churn,
accounting, executor-death recovery, evaluation and the round record --
lives in :class:`~repro.core.round_engine.RoundEngine`, shared with the
full-model engine (:mod:`repro.baselines.fl_engine`).  This module holds
only what is specific to *split* training: the control-policy context, the
split stage bodies, per-depth cost tables and the split-only checkpoint
keys.

Every worker cuts the bottom model at a depth and a round has one data
path over those depths: bridges -> ``executor.install(..., depths)`` ->
``update_top_*(..., depths)`` -> ``complete_bottom_states`` -> Eq. 17.  The
paper's global cut is the plan without policy-assigned depths, which
:meth:`SplitTrainingEngine._cut_depth` reads as the tail for every worker
-- one merge group, no bridge, the tail row of the cost tables.

A round is an explicit stage sequence (plan -> install -> bottom-forward ->
merge -> top-update -> backward-dispatch -> local-step -> aggregate): the
engine supplies the stage bodies as :class:`~repro.parallel.pipeline.SplitRoundOps`
and the :class:`~repro.parallel.pipeline.PipelineScheduler` decides where
the parent waits.  The engine's parent-side accounting and even the next
round's PLAN are handed to the scheduler as callables it runs inside the
aggregate window (cross-round pipelining) on the process executor, and a plan
prefetched that way is serialised into ``state_dict`` so checkpoint/resume
stays exact whichever order ran.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.config import ExperimentConfig
from repro.core.controller import ControlContext, RoundPlan
from repro.core.elastic import ElasticRound
from repro.core.round_engine import RoundEngine
from repro.core.server import SplitServer
from repro.core.worker import SplitWorker
from repro.data.dataset import TrainTestSplit
from repro.exceptions import ConfigurationError
from repro.nn.models import forward_profile
from repro.nn.module import Sequential
from repro.nn.serialization import model_size_bytes
from repro.nn.split import SplitModel, candidate_split_depths, carve_prefix
from repro.parallel.base import Executor
from repro.parallel.codec import FEATURES, GRADIENTS, WEIGHTS
from repro.parallel.pipeline import SplitRoundOps
from repro.population.pool import WorkerPool
from repro.simulation.cluster import Cluster
from repro.simulation.estimator import BandwidthEstimator, WorkerStateEstimator
from repro.simulation.traffic import feature_bytes
from repro.splitpoint import SplitContext, build_split_policy
from repro.utils.numeric import clamp
from repro.utils.rng import spawned_rng

#: Clip bounds for the batch-size-proportional worker learning-rate scale
#: (Section IV-B): a worker whose regulated batch is much smaller/larger
#: than ``base_batch_size`` still steps within [0.25x, 4x] of the round's
#: learning rate, keeping stragglers and sprinters inside the stable
#: step-size region.
WORKER_LR_SCALE_BOUNDS = (0.25, 4.0)


class ControlPolicy(Protocol):
    """Per-round decision maker plugged into the engine."""

    #: Whether the PS merges features before updating the top model.
    merge_features: bool
    #: Whether bottom models are aggregated after every local iteration
    #: (SplitFed) instead of once per round.
    aggregate_every_iteration: bool

    def plan_round(self, context: ControlContext) -> RoundPlan:
        """Return the worker set and batch sizes for the round."""
        ...  # pragma: no cover - protocol definition


class SplitTrainingEngine(RoundEngine):
    """Runs split federated training under a pluggable control policy."""

    ROUND_SEED_OFFSET = 9173

    def __init__(
        self,
        config: ExperimentConfig,
        split: SplitModel,
        workers: "list[SplitWorker] | WorkerPool",
        cluster: Cluster,
        data: TrainTestSplit,
        policy: ControlPolicy,
        bandwidth_budget_override: float | None = None,
        executor: Executor | None = None,
    ) -> None:
        if split is None:
            raise ConfigurationError(
                f"algorithm {config.algorithm!r} trains a split model, but got "
                f"none: model {config.model!r} declares no split point (register "
                f"it with split_after_weighted metadata), or the components "
                f"were built for a full-model algorithm, which cuts nothing"
            )
        super().__init__(config, workers, cluster, data, executor=executor)
        self.split = split
        self.policy = policy

        self.server = SplitServer(
            bottom_template=split.bottom,
            top_model=split.top,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            max_grad_norm=config.max_grad_norm,
        )
        self.estimator = WorkerStateEstimator(
            num_workers=len(self.pool), alpha=config.estimator_alpha
        )

        #: Per-worker split-point policy; ``None`` for trivial (uniform)
        #: policies, whose plans carry no depths: every worker then cuts at
        #: the tail, the one-group case of every code path below.
        self._split_policy = build_split_policy(config)
        self._build_depth_tables(data.feature_shape)
        #: What the state estimator observes at: one sample's forward FLOPs
        #: and feature-upload plus gradient-download bytes at the tail.
        self.bottom_flops = self._depth_flops[self._tail]
        self.feature_exchange_bytes = self._depth_exchange_bytes[self._tail]

        #: c in Eq. 10, expressed in megabits per sample.
        self.bandwidth_per_sample = self.feature_exchange_bytes * 8.0 / 1e6
        nominal = (
            bandwidth_budget_override
            if bandwidth_budget_override is not None
            else config.bandwidth_budget_mbps
        )
        self.bandwidth_estimator = BandwidthEstimator(initial_mbps=nominal)
        self._budget_scale = nominal / cluster.nominal_budget_mbps

        #: A plan prefetched during the previous round's aggregate window:
        #: ``(round_index, plan)`` or ``None``.
        #: Planning mutates the simulated cluster and the state estimator,
        #: so the prefetched plan is part of the checkpointed state.
        self._pending_plan: tuple[int, RoundPlan] | None = None

    @classmethod
    def from_components(
        cls, components, policy: ControlPolicy
    ) -> "SplitTrainingEngine":
        """The engine over :class:`~repro.api.components.ExperimentComponents`.

        The one place that maps a component set to the constructor's
        arguments: the configured executor and the worker pool always reach
        the engine, whatever the policy.
        """
        return cls(
            config=components.config,
            split=components.split,
            workers=components.pool,
            cluster=components.cluster,
            data=components.data,
            policy=policy,
            bandwidth_budget_override=components.bandwidth_budget,
            executor=components.executor,
        )

    def _build_depth_tables(self, input_shape: tuple[int, ...]) -> None:
        """Static per-depth costs of the split model, ``{depth: cost}``.

        Accounting, planning and the split policy read these tables; without
        a split policy the tail is their only row.  Each row costs one
        forward of one sample: the tail row is the split's
        :meth:`~repro.nn.split.SplitModel.bottom_profile` (which the default
        bandwidth budget has probed already), shallower prefixes probe
        clones.  Neither perturbs the real model -- except that a bottom
        layer with extra state (a Dropout that ``extras["split_index"]``
        leaves in the bottom draws at every training forward) still sees
        the two forwards through the live global bottom that it always has.
        """
        bottom = self.server.global_bottom
        if any(layer.extra_state() for layer in bottom.layers):
            dummy = np.zeros((1, *input_shape), dtype=np.float64)
            bottom.forward(dummy)
            bottom.forward(dummy)
        self._tail = len(bottom)
        self._depth_candidates = [self._tail]
        if self._split_policy is not None:
            self._depth_candidates = candidate_split_depths(bottom)
        self._depth_flops: dict[int, float] = {}
        self._depth_exchange_bytes: dict[int, float] = {}
        self._depth_model_bytes: dict[int, float] = {}
        for depth in sorted({self._tail, *self._depth_candidates}):
            if depth == self._tail:
                prefix = bottom
                flops, sample_shape = self.split.bottom_profile(input_shape)
            else:
                prefix = carve_prefix(bottom, depth)
                flops, sample_shape = forward_profile(prefix, input_shape)
            self._depth_flops[depth] = flops
            # One sample's feature upload plus gradient download, and one
            # move of the prefix model, as the simulated link charges them.
            sample_bytes = feature_bytes(sample_shape, 1)
            self._depth_exchange_bytes[depth] = self._link_bytes(
                FEATURES, sample_bytes
            ) + self._link_bytes(GRADIENTS, sample_bytes)
            self._depth_model_bytes[depth] = self._model_move_bytes(
                model_size_bytes(prefix)
            )

    # -- public API -----------------------------------------------------------
    def global_model(self) -> Sequential:
        """A copy of the current global model (bottom + top), as a single
        Sequential in evaluation mode."""
        layers = [*self.server.global_bottom.layers, *self.server.top.layers]
        return Sequential(layers).clone().eval()

    # -- checkpointing -----------------------------------------------------------
    def _engine_state(self) -> dict:
        """The split-only checkpoint keys.

        Includes the one cross-round in-flight artifact the scheduler's
        aggregate window leaves behind -- the prefetched next-round plan --
        so resume is exact.
        """
        pending_plan = None
        if self._pending_plan is not None:
            pending_plan = {
                "round_index": int(self._pending_plan[0]),
                "plan": self._pending_plan[1].to_dict(),
            }
        state = {
            "pending_plan": pending_plan,
            "server": self.server.state_dict(),
            "estimator": self.estimator.state_dict(),
            "bandwidth_estimator": self.bandwidth_estimator.state_dict(),
        }
        if self._split_policy is not None:
            # Present only under a non-trivial policy, so uniform
            # checkpoints keep their historical format byte for byte.
            state["splitpoint"] = self._split_policy.state_dict()
        solver = getattr(self.policy, "solver", None)
        if solver is not None and getattr(solver, "stateful", False):
            # Same contract as "splitpoint": only stateful solvers add the
            # key, so default (ga) checkpoints keep the historical format.
            state["selection"] = solver.state_dict()
        return state

    def _load_engine_state(self, state: dict) -> None:
        pending_plan = state["pending_plan"]
        self._pending_plan = None
        if pending_plan is not None:
            self._pending_plan = (
                int(pending_plan["round_index"]),
                RoundPlan.from_dict(pending_plan["plan"]),
            )
        self.server.load_state_dict(state["server"])
        self.estimator.load_state_dict(state["estimator"])
        self.bandwidth_estimator.load_state_dict(state["bandwidth_estimator"])
        if self._split_policy is not None and state.get("splitpoint") is not None:
            self._split_policy.load_state_dict(state["splitpoint"])
        solver = getattr(self.policy, "solver", None)
        if solver is not None and state.get("selection") is not None:
            solver.load_state_dict(state["selection"])

    def _stage_state(self, workers: list[SplitWorker]) -> dict:
        """Also the server: its top model steps every iteration, and its
        global bottom at every SplitFed aggregation."""
        return {**super()._stage_state(workers), "server": self.server.state_dict()}

    def _load_stage_state(self, state: dict) -> None:
        super()._load_stage_state(state)
        self.server.load_state_dict(state["server"])

    # -- round mechanics ---------------------------------------------------------
    def _make_context(
        self, round_index: int, candidates: np.ndarray | None = None
    ) -> ControlContext:
        ids = self._planning_ids(candidates)
        return ControlContext(
            round_index=round_index,
            per_sample_durations=self.estimator.per_sample_duration(ids),
            label_distributions=self.pool.label_distributions(candidates),
            participation_counts=self.pool.participation_counts(candidates),
            bandwidth_budget=self.bandwidth_estimator.estimate(),
            bandwidth_per_sample=self.bandwidth_per_sample,
            max_batch_size=self.config.max_batch_size,
            base_batch_size=self.config.base_batch_size,
            rng=spawned_rng(self._round_seed, round_index),
            worker_ids=candidates,
        )

    def _observe_round(
        self, round_index: int, plan: RoundPlan, durations: np.ndarray
    ) -> None:
        """The bandwidth observation and the split policy's duration feed."""
        self.bandwidth_estimator.observe(
            self.cluster.current_budget_mbps * self._budget_scale
        )
        if self._split_policy is not None:
            self._split_policy.observe_durations(
                round_index,
                {
                    int(worker_id): float(worker_duration)
                    for worker_id, worker_duration in zip(plan.selected, durations)
                },
            )

    def _compute_plan(
        self, round_index: int, candidates: np.ndarray | None
    ) -> RoundPlan:
        """Refresh the state estimates and run the control policy.

        Only the round's planning scope is observed -- the moving averages
        of untouched workers simply stay put, so the per-round cost is the
        candidate count, not the population.
        """
        ids = self._planning_ids(candidates)
        mus, betas = self.cluster.per_sample_times(
            ids, self.bottom_flops, self.feature_exchange_bytes
        )
        self.estimator.update_ids(ids, mus, betas)
        return self.policy.plan_round(self._make_context(round_index, candidates))

    def _plan_round(self, round_index: int) -> RoundPlan:
        plan = super()._plan_round(round_index)
        if self._split_policy is not None:
            # Depths are assigned last so over-selected stand-ins get one
            # too, and against the plan's final regulated batch sizes.
            plan = self._assign_depths(round_index, plan)
        return plan

    def _assign_depths(self, round_index: int, plan: RoundPlan) -> RoundPlan:
        """Run the split-point policy over the planned cohort."""
        context = SplitContext(
            depths=list(self._depth_candidates),
            flops=self._depth_flops,
            exchange_bytes=self._depth_exchange_bytes,
            model_bytes=self._depth_model_bytes,
            cluster=self.cluster,
            batch_sizes=plan.batch_sizes,
            base_batch_size=self.config.base_batch_size,
            local_iterations=self.config.local_iterations,
            aggregations=self._aggregations,
        )
        depths = self._split_policy.assign_depths(
            round_index, list(plan.selected), context
        )
        valid = set(self._depth_candidates)
        for worker_id in plan.selected:
            if depths.get(worker_id) not in valid:
                raise ConfigurationError(
                    f"split policy {self._split_policy.name!r} assigned "
                    f"depth {depths.get(worker_id)!r} to worker {worker_id}; "
                    f"candidates are {sorted(valid)}"
                )
        return plan.with_depths(depths)

    def _prefetch_plan(self, round_index: int) -> None:
        """Plan ``round_index`` early, inside the previous aggregate window.

        Called by the scheduler after the previous round's accounting; the
        computed plan (and the cluster/estimator mutations planning
        entails) is exactly what :meth:`_next_plan` would have produced at
        the start of the round, so trajectories are unchanged -- only the
        round-end drain disappears.
        """
        if self._pending_plan is None:
            self._pending_plan = (round_index, self._plan_round(round_index))

    def _next_plan(self, round_index: int) -> RoundPlan:
        """PLAN: take the prefetched plan or compute one, set the top LR."""
        pending, self._pending_plan = self._pending_plan, None
        if pending is not None and pending[0] == round_index:
            plan = pending[1]
        else:
            plan = self._plan_round(round_index)
        self.server.set_learning_rate(self._current_lr)
        return plan

    def _run_stages(
        self,
        plan: RoundPlan,
        selected_workers: list[SplitWorker],
        round_index: int,
        account,
        elastic_state: ElasticRound,
    ) -> list[float]:
        """INSTALL .. AGGREGATE under the configured scheduler.

        Binds the round's stage bodies for the scheduler: ``tau`` local
        iterations of split training; end-of-round aggregation is Eq. 17.
        """
        worker_ids = [worker.worker_id for worker in selected_workers]
        batch_sizes = [plan.batch_sizes[worker_id] for worker_id in worker_ids]
        cuts = [self._cut_depth(plan, worker_id) for worker_id in worker_ids]
        depths = dict(zip(worker_ids, cuts))
        learning_rates = [self._scaled_lr(batch) for batch in batch_sizes]
        loads = [
            batch * self._depth_flops[cut] for batch, cut in zip(batch_sizes, cuts)
        ]
        update = (
            self.server.update_top_merged if self.policy.merge_features
            else self.server.update_top_per_worker
        )

        # SplitFed re-installs after every iteration; the rest once a round.
        forwards_per_install = (
            1 if self.policy.aggregate_every_iteration
            else self.config.local_iterations
        )

        def install(wait):
            # INSTALL: distribute the global bottom, each worker's prefix of
            # it.  Bridges are carved from that same bottom before any
            # worker can step; there is none at the tail.
            self.server.install_bridges(set(cuts))
            self.executor.install(
                selected_workers, self.server.global_bottom, learning_rates,
                cuts, wait, loads=loads, iterations=forwards_per_install,
            )

        def top_update(features, labels):
            # MERGE + TOP_UPDATE: one update over the merged sequence
            # (Eq. 16), or one per worker for the no-merging variants; the
            # dispatched gradient segments are re-aligned with the workers.
            # Features arrive and gradients leave over the simulated link.
            features = self._delivered(FEATURES, worker_ids, features)
            loss, gradients = update(worker_ids, features, labels, depths)
            return loss, self._delivered(
                GRADIENTS, worker_ids, gradients.in_order(worker_ids)
            )

        ops = SplitRoundOps(
            executor=self.executor,
            workers=selected_workers,
            batch_sizes=batch_sizes,
            install=install,
            update_top=top_update,
            aggregate=lambda states: self._aggregate_states(
                depths, batch_sizes, states, elastic_state
            ),
            account=account,
            prefetch_plan=lambda: self._prefetch_plan(round_index + 1),
        )
        return self.pipeline.run_split_round(
            ops, self.config.local_iterations,
            self.policy.aggregate_every_iteration,
        )

    def _cut_depth(self, plan: RoundPlan, worker_id: int) -> int:
        """The worker's cut depth: policy-assigned, else the tail -- the one
        place a plan without depths (the paper's global cut, and how every
        uniform plan is checkpointed) is read as "everyone at the tail"."""
        return self._tail if plan.depths is None else plan.depths[worker_id]

    def _aggregate_states(
        self,
        depths: dict[int, int],
        batch_sizes: list[int],
        states: list[dict[str, np.ndarray]],
        elastic_state: ElasticRound,
    ) -> None:
        """AGGREGATE the collected bottom states, batch-size weighted (Eq. 17)."""
        worker_ids = list(depths)
        weights = [float(batch_size) for batch_size in batch_sizes]
        states = self._delivered(WEIGHTS, worker_ids, states)
        # Complete every prefix state with its bridge's server-trained tail
        # so the states share the full bottom keyset (a state cut at the
        # tail already does); everything downstream (elastic folding,
        # averaging) then runs on full states.
        states = self.server.complete_bottom_states(worker_ids, states, depths)
        resolved = self._elastic.apply_aggregate(
            elastic_state, worker_ids, states, weights,
            self.server.global_bottom.state_dict,
        )
        # ``None``: below the cohort quorum, the round leaves the global
        # bottom model unchanged.
        if resolved is not None:
            self.server.aggregate_bottoms(*resolved)

    def _scaled_lr(self, batch_size: int) -> float:
        """Worker learning rate proportional to its batch size (Section IV-B)."""
        scale = batch_size / self.config.base_batch_size
        scale = clamp(scale, *WORKER_LR_SCALE_BOUNDS)
        return self._current_lr * scale

    @property
    def _aggregations(self) -> int:
        """Bottom-model exchanges per round: every iteration for SplitFed."""
        if self.policy.aggregate_every_iteration:
            return self.config.local_iterations
        return 1

    def _cohort_costs(
        self, plan: RoundPlan
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(forward flops, exchange bytes, model bytes)`` at each worker's cut."""
        cuts = [self._cut_depth(plan, worker_id) for worker_id in plan.selected]
        tables = self._depth_flops, self._depth_exchange_bytes, self._depth_model_bytes
        return tuple(np.asarray([table[cut] for cut in cuts]) for table in tables)

    def _evaluate(self) -> tuple[float, float]:
        return self.server.evaluate(self.data.test, self.config.eval_batch_size)
