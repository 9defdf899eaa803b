"""The shared round driver behind every training engine.

SplitFed frames FedAvg as the degenerate split whose server part is empty,
so the repository's split engine and full-model (FL) engine run *one* round
lifecycle with two sets of stage bodies.  :class:`RoundEngine` owns that
lifecycle in a single copy -- component wiring, the steppable
:class:`~repro.api.algorithm.Algorithm` surface, the shared checkpoint keys
and the round template::

    wire snapshot -> plan (+ over-selection) -> pool.checkout
      -> elastic begin_round -> run stages (with executor-death recovery)
      -> account() -> pool.release -> evaluate -> RoundRecord -> lr decay

Subclasses supply only what differs between split and full-model training:
how a round is planned (:meth:`RoundEngine._compute_plan`), what its stages
compute (:meth:`RoundEngine._run_stages`), what a worker's round costs in
simulated compute and bytes (:meth:`RoundEngine._worker_costs`), how the
global model is evaluated (:meth:`RoundEngine._evaluate`) and which extra
state they checkpoint.

The round also owns the simulated worker <-> PS link.  One
:class:`~repro.parallel.codec.CodecPolicy` (none at ``codec="none"``)
passes the features, gradients and uploaded model states that cross it
through ``decode(encode(.))`` (:meth:`RoundEngine._delivered`), on whatever
executor the workers compute; the installed global model goes down raw.
The cost model charges each payload class its encoded size
(:meth:`RoundEngine._link_bytes`, :meth:`RoundEngine._model_move_bytes`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.api.algorithm import Algorithm
from repro.config import ExperimentConfig
from repro.core.controller import RoundPlan
from repro.core.elastic import (
    ElasticController,
    ElasticRound,
    build_elastic_controller,
)
from repro.core.worker import SplitWorker
from repro.data.dataset import TrainTestSplit
from repro.exceptions import ExecutorDeathError
from repro.metrics.history import History, RoundRecord, wire_round_delta
from repro.parallel.base import Executor
from repro.parallel.codec import WEIGHTS, CodecPolicy, build_codec_policy
from repro.parallel.pipeline import PipelineScheduler, build_pipeline
from repro.parallel.serial import SerialExecutor
from repro.population.pool import WorkerPool, as_worker_pool
from repro.simulation.cluster import Cluster, LazyCluster
from repro.simulation.timing import (
    average_waiting_time,
    elastic_round_duration,
)
from repro.simulation.traffic import BYTES_PER_ELEMENT, TrafficMeter
from repro.utils.logging import get_logger

logger = get_logger("core.round_engine")


class RoundEngine(Algorithm):
    """Round lifecycle shared by the split and full-model engines."""

    #: Added to ``config.seed`` to root the engine's per-round RNG streams;
    #: distinct per engine class so their streams never coincide.
    ROUND_SEED_OFFSET: int

    def __init__(
        self,
        config: ExperimentConfig,
        workers: "list[SplitWorker] | WorkerPool",
        cluster: "Cluster | LazyCluster",
        data: TrainTestSplit,
        executor: Executor | None = None,
        pipeline: PipelineScheduler | None = None,
        elastic: ElasticController | None = None,
    ) -> None:
        self.config = config
        self.pool = as_worker_pool(workers)
        self.cluster = cluster
        self.data = data
        self.executor = executor if executor is not None else SerialExecutor()
        self.pipeline = pipeline if pipeline is not None else build_pipeline(config)
        #: Round elasticity (over-selection, first-k-of-n, rejoin); ``None``
        #: keeps the historical synchronous code paths untouched.
        self._elastic = (
            elastic if elastic is not None
            else build_elastic_controller(config, cluster)
        )
        #: The simulated link's codecs (``None`` at ``codec="none"``): the
        #: round passes what crosses the link through them, on every
        #: executor, and holds every error-feedback residual.
        self.codec: CodecPolicy | None = build_codec_policy(config)
        self.traffic = TrafficMeter()
        self.history = History(algorithm=config.algorithm)
        #: Root seed of the per-round RNG streams; generators are derived
        #: lazily per round index so the round count is unbounded.
        self._round_seed = config.seed + self.ROUND_SEED_OFFSET
        self._round_index = 0
        self._clock = 0.0
        self._current_lr = config.learning_rate

    # -- public API -----------------------------------------------------------
    @property
    def workers(self) -> list[SplitWorker]:
        """The eager worker list (raises for lazily-materialised populations)."""
        return self.pool.eager_workers

    def step_round(self) -> RoundRecord:
        """Execute one communication round and return its record."""
        self._run_round(self._round_index)
        self._round_index += 1
        return self.history.records[-1]

    @property
    def rounds_completed(self) -> int:
        """Number of communication rounds executed so far."""
        return self._round_index

    def drain(self) -> None:
        """Wait for in-flight asynchronous dispatch (aggregate-window rounds)."""
        self.executor.drain()

    def close(self) -> None:
        """Release executor resources (worker processes, pools)."""
        self.executor.close()

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Every mutable piece of training state, for checkpoint/resume.

        Drains the executor first so the capture cannot race an
        asynchronously dispatched round; cross-round artifacts that survive the drain are serialised
        by the subclass through :meth:`_engine_state`.
        """
        self.drain()
        return {
            "round_index": self._round_index,
            "clock": self._clock,
            "current_lr": self._current_lr,
            "history": self.history.to_dict(),
            "traffic": self.traffic.state_dict(),
            "cluster": self.cluster.state_dict(),
            "workers": self.pool.workers_state(),
            "elastic": (
                self._elastic.state_dict() if self._elastic is not None else None
            ),
            "codec": (
                self.codec.state_dict()
                if self.codec is not None and self.codec.stateful else None
            ),
            **self._engine_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore training state captured by :meth:`state_dict`."""
        self.pool.load_workers_state(state["workers"])
        self._round_index = int(state["round_index"])
        self._clock = float(state["clock"])
        self._current_lr = float(state["current_lr"])
        self.history = History.from_dict(state["history"])
        self.traffic.load_state_dict(state["traffic"])
        self.cluster.load_state_dict(state["cluster"])
        # Indexed, not ``.get``: a checkpoint has every key ``state_dict``
        # writes, and a missing one is reported by name (``Session._restore``).
        if state["elastic"] is not None and self._elastic is not None:
            self._elastic.load_state_dict(state["elastic"])
        residuals = state["codec"]
        if self.codec is not None:
            self.codec.load_state_dict(residuals or {})
        self._load_engine_state(state)

    # -- variation points --------------------------------------------------------
    @abc.abstractmethod
    def _engine_state(self) -> dict:
        """The engine-specific checkpoint keys (models, estimators, ...)."""

    @abc.abstractmethod
    def _load_engine_state(self, state: dict) -> None:
        """Restore the keys written by :meth:`_engine_state`."""

    @abc.abstractmethod
    def _compute_plan(
        self, round_index: int, candidates: np.ndarray | None
    ) -> RoundPlan:
        """Decide the round's cohort and batch sizes.

        When the pool supplies a candidate subset, planning runs entirely
        in candidate-local coordinates (dense arrays of ``len(candidates)``
        rows); :meth:`_plan_round` remaps the result to global worker ids.
        """

    @abc.abstractmethod
    def _run_stages(
        self,
        plan: RoundPlan,
        selected_workers: list[SplitWorker],
        round_index: int,
        account,
        elastic_state: ElasticRound | None,
    ) -> list[float]:
        """Run the round's stages under the scheduler; return its losses.

        ``account`` is the driver's idempotent parent-side accounting; the
        scheduler invokes it early, inside the aggregate window.
        """

    @abc.abstractmethod
    def _worker_costs(
        self, plan: RoundPlan, worker_id: int
    ) -> tuple[float, int, int]:
        """One worker's ``(forward flops, exchange bytes, model bytes)``.

        Flops and exchange bytes (feature upload plus gradient download)
        are per sample; the model bytes are what the worker swaps with the
        PS at every aggregation.  A full-model engine exchanges no features.
        """

    @property
    def _aggregations(self) -> int:
        """How many times per round a worker swaps its model with the PS."""
        return 1

    @abc.abstractmethod
    def _evaluate(self) -> tuple[float, float]:
        """``(accuracy, loss)`` of the global model on the test split."""

    def _observe_round(
        self, round_index: int, plan: RoundPlan, durations: np.ndarray
    ) -> None:
        """Feed the accounted round to the engine's estimators (optional).

        Runs at the end of ``account()``, i.e. before any next-round
        planning the scheduler's aggregate window prefetches.
        """

    # -- the simulated link -------------------------------------------------------
    def _delivered(self, klass: str, worker_ids, values: list) -> list:
        """``values``, one per worker, as the simulated link delivers them.

        Each passes through its payload class's codec (see
        :meth:`CodecPolicy.apply <repro.parallel.codec.CodecPolicy.apply>`);
        without a codec the list comes back untouched.
        """
        if self.codec is None:
            return values
        return [
            self.codec.apply(klass, worker_id, value)
            for worker_id, value in zip(worker_ids, values)
        ]

    def _link_bytes(self, klass: str, nbytes: int) -> "int | float":
        """What ``nbytes`` of one payload class cost on the simulated link.

        The simulated element is float32 (``BYTES_PER_ELEMENT``); a class
        with a codec pays its ``bits_per_value`` per element instead.  A
        class without one -- every class at ``codec="none"`` -- is not
        multiplied at all.
        """
        codec = self.codec.codec_for(klass) if self.codec is not None else None
        if codec is None:
            return nbytes
        return nbytes * codec.bits_per_value / (8 * BYTES_PER_ELEMENT)

    def _model_move_bytes(self, nbytes: int) -> "int | float":
        """What one move of an ``nbytes`` model costs on the simulated link.

        The cost model charges two moves per aggregation: the global model
        goes down raw (the executor installs it exact), and only the
        trained state coming back passes the weights codec.  A move is
        charged the mean of the two, so the pair costs exactly one raw and
        one encoded model.
        """
        if self.codec is None or self.codec.codec_for(WEIGHTS) is None:
            return nbytes
        return (nbytes + self._link_bytes(WEIGHTS, nbytes)) / 2

    # -- simulated cost model ----------------------------------------------------
    def _worker_durations(self, plan: RoundPlan) -> np.ndarray:
        """Planned round duration of each selected worker, in plan order.

        Reads the round's cluster state without mutating anything, so the
        same numbers come out whether it runs at the start of the round
        (the churn draw) or inside the accounting stage.
        """
        iterations = self.config.local_iterations
        model_moves = 2 * self._aggregations
        durations = []
        for worker_id in plan.selected:
            device = self.cluster[worker_id]
            flops, exchange, model_bytes = self._worker_costs(plan, worker_id)
            mu = device.compute_time_per_sample(flops)
            beta = device.comm_time_per_sample(exchange)
            compute_comm = iterations * plan.batch_sizes[worker_id] * (mu + beta)
            durations.append(
                compute_comm + model_moves * device.model_transfer_time(model_bytes)
            )
        return np.asarray(durations)

    def _charge_traffic(self, plan: RoundPlan) -> None:
        """Features up + gradients down for every iteration, plus the model
        exchange once per aggregation."""
        iterations = self.config.local_iterations
        aggregations = self._aggregations
        for worker_id in plan.selected:
            __, exchange, model_bytes = self._worker_costs(plan, worker_id)
            self.traffic.add_feature_exchange(
                iterations * plan.batch_sizes[worker_id] * exchange
            )
            self.traffic.add_model_exchange(model_bytes * aggregations)

    # -- round mechanics ---------------------------------------------------------
    def _plan_round(self, round_index: int) -> RoundPlan:
        """PLAN: advance the cluster, plan the cohort, pad it under churn."""
        self.cluster.advance_round(round_index)
        candidates = self.pool.plan_candidates(round_index)
        plan = self._compute_plan(round_index, candidates)
        if candidates is not None:
            plan = plan.remapped(candidates)
        if self._elastic is not None:
            plan = self._elastic.over_select(
                plan, self.pool, candidates, self.config.base_batch_size
            )
        return plan

    def _planning_ids(self, candidates: np.ndarray | None) -> np.ndarray:
        """The worker ids a plan is computed over: the pool's candidate
        subset, else -- read here and nowhere else -- the whole population."""
        return np.arange(len(self.pool)) if candidates is None else candidates

    def _next_plan(self, round_index: int) -> RoundPlan:
        """The plan the round starts from; engines that prefetch override."""
        return self._plan_round(round_index)

    def _run_round(self, round_index: int) -> None:
        config = self.config
        wire_before = self.executor.transport_stats()
        plan = self._next_plan(round_index)
        if not plan.selected:
            raise RuntimeError(f"round {round_index} was planned with no workers")
        selected_workers = self.pool.checkout(plan.selected)
        # Elastic rounds draw their churn once, up front, against the
        # planned cohort; a death-recovery re-run reuses the same draw.
        elastic_state: ElasticRound | None = None
        if self._elastic is not None:
            elastic_state = self._elastic.begin_round(
                round_index, plan.selected, self._worker_durations(plan)
            )
        accounting: dict = {}

        def account() -> None:
            # ACCOUNT: participation, simulated time/traffic and the
            # estimator observations.  Reads the plan and the *round-r*
            # cluster state only, so the scheduler may run it inside the
            # aggregate window (before any next-round planning advances the
            # cluster); idempotent because the driver invokes it
            # unconditionally afterwards for the blocking order.  The
            # whole planned cohort counts as having participated, also
            # when an executor death shrinks the cohort that re-runs.
            if accounting:
                return
            for worker in selected_workers:
                worker.participation_count += 1
            durations = self._worker_durations(plan)
            self._charge_traffic(plan)
            deadline = (
                elastic_state.churn.deadline if elastic_state is not None else None
            )
            accounting["duration"] = elastic_round_duration(durations, deadline)
            accounting["waiting"] = average_waiting_time(durations)
            self._clock += accounting["duration"]
            self._observe_round(round_index, plan, durations)

        try:
            losses = self._run_stages(
                plan, selected_workers, round_index, account, elastic_state
            )
        except ExecutorDeathError as error:
            if elastic_state is None:
                raise
            losses = self._recover_round(
                plan, selected_workers, round_index, account, elastic_state,
                error,
            )
        account()
        # Round over: fold the cohort's mutable state back into the pool
        # (a no-op for eager populations, the release point for lazy ones).
        self.pool.release(selected_workers)
        population_stats = self.pool.collect_round_stats()

        accuracy, test_loss = self._evaluate()
        if elastic_state is not None:
            elastic_kwargs = {
                "dropped_ids": [int(w) for w in elastic_state.dropped],
                "completed_ids": [int(w) for w in elastic_state.completed],
                "rejoined_ids": [int(w) for w in elastic_state.rejoined],
                "dropout_rate": elastic_state.dropout_rate,
                "effective_cohort": elastic_state.effective_cohort,
            }
        else:
            elastic_kwargs = {"effective_cohort": len(plan.selected)}
        wire, logical, ratio = wire_round_delta(
            wire_before, self.executor.transport_stats()
        )
        self.history.append(
            RoundRecord(
                round_index=round_index,
                sim_time=self._clock,
                duration=accounting["duration"],
                waiting_time=accounting["waiting"],
                traffic_mb=self.traffic.total_megabytes,
                train_loss=float(np.mean(losses)) if losses else 0.0,
                test_loss=test_loss,
                test_accuracy=accuracy,
                num_selected=len(plan.selected),
                total_batch=plan.total_batch,
                merged_kl=plan.merged_kl,
                selected_ids=[int(w) for w in plan.selected],
                cache_hits=int(population_stats.get("cache_hits", 0)),
                cache_misses=int(population_stats.get("cache_misses", 0)),
                bytes_on_wire=wire,
                logical_bytes=logical,
                compression_ratio=ratio,
                **elastic_kwargs,
            )
        )
        self._current_lr *= config.lr_decay
        logger.debug(
            "%s round %d: acc=%.3f time=%.1fs traffic=%.1fMB",
            config.algorithm, round_index, accuracy, self._clock,
            self.traffic.total_megabytes,
        )

    def _recover_round(
        self,
        plan: RoundPlan,
        selected_workers: list[SplitWorker],
        round_index: int,
        account,
        elastic_state: ElasticRound,
        error: ExecutorDeathError,
    ) -> list[float]:
        """Re-run a round whose executor process died, with the survivors.

        The dead process takes its workers' in-flight state with it: the
        dirty pool is torn down (a fresh one spawns lazily on the next
        dispatch), the lost workers are recorded as dropped, and -- when
        enough of the planned cohort survives -- the round's stages restart
        with a survivor-only plan.  A second death in the re-run
        propagates.  With too few survivors the round yields no update but
        the session lives on.
        """
        lost = sorted(
            {int(worker_id) for worker_id in error.worker_ids}
            & {int(worker_id) for worker_id in plan.selected}
        )
        if not lost:
            # The death carried no attributable workers (e.g. it struck
            # before assignment); nothing to re-plan around.
            raise error
        logger.warning(
            "round %d: executor death lost workers %s; re-planning with "
            "the survivors", round_index, lost,
        )
        # Sibling processes of a dead child hold untrustworthy protocol
        # state; tear the pool down and let the next dispatch respawn it.
        self.executor.close()
        self._elastic.record_death(elastic_state, lost)
        lost_set = set(lost)
        survivors = [
            int(worker_id) for worker_id in plan.selected
            if int(worker_id) not in lost_set
        ]
        if len(survivors) < self._elastic.min_cohort(len(elastic_state.planned)):
            elastic_state.no_update = True
            elastic_state.completed = []
            return []
        survivor_plan = RoundPlan(
            selected=survivors,
            batch_sizes={
                worker_id: plan.batch_sizes[worker_id]
                for worker_id in survivors
            },
            merged_kl=plan.merged_kl,
            info=dict(plan.info, replanned_after_death=lost),
            depths=None if plan.depths is None else {
                worker_id: plan.depths[worker_id] for worker_id in survivors
            },
        )
        survivor_workers = [
            worker for worker in selected_workers
            if worker.worker_id not in lost_set
        ]
        return self._run_stages(
            survivor_plan, survivor_workers, round_index, account,
            elastic_state,
        )
