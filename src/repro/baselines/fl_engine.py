"""Federated-learning engine for the full-model baselines (FedAvg, PyramidFL).

Unlike the split engine, workers train the *entire* model locally and only
exchange model parameters with the PS, so communication consists of model
uploads/downloads and compute time is charged for the full network.

The round lifecycle (steppable rounds, checkpoint/resume, planning with
over-selection, churn, accounting, executor-death recovery, evaluation and
the round record) is :class:`~repro.core.round_engine.RoundEngine`'s, shared
with :class:`~repro.core.engine.SplitTrainingEngine`; FedAvg is the
degenerate split whose server part is empty.  This module supplies the
full-model variation points only: a selection strategy instead of a control
policy (every selected worker trains at ``base_batch_size``), the two stage
bodies (local-step -> aggregate) bound into
:class:`~repro.parallel.pipeline.FullRoundOps`, and full-network cost and
traffic accounting.

Every trained sample is forwarded exactly once: ``Executor.train_full``
hands back each worker's mean training loss next to its updated state, and
the round's ``train_loss`` is the mean of those over the workers whose reply
was observed -- the same quantity the split engines report.  The engine
never re-evaluates a returned state.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.config import ExperimentConfig
from repro.core.controller import RoundPlan
from repro.core.elastic import ElasticController, ElasticRound
from repro.core.round_engine import RoundEngine
from repro.core.server import evaluate_classifier
from repro.core.worker import SplitWorker
from repro.data.dataset import TrainTestSplit
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import estimate_forward_flops
from repro.nn.module import Sequential
from repro.nn.serialization import (
    average_state_dicts,
    load_module_extra_state,
    model_size_bytes,
    module_extra_state,
)
from repro.parallel.base import Executor
from repro.parallel.codec import WEIGHTS
from repro.parallel.pipeline import FullRoundOps, PipelineScheduler
from repro.population.pool import WorkerPool
from repro.simulation.cluster import Cluster, LazyCluster
from repro.utils.rng import spawned_rng


class FLSelectionStrategy(Protocol):
    """Per-round worker selection for FL baselines."""

    def select(
        self,
        round_index: int,
        durations: np.ndarray,
        label_distributions: np.ndarray,
        participation_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> list[int]:
        """Return the worker ids participating in the round."""
        ...  # pragma: no cover - protocol definition


class FLTrainingEngine(RoundEngine):
    """FedAvg-style training with a pluggable worker-selection strategy."""

    ROUND_SEED_OFFSET = 40617

    def __init__(
        self,
        config: ExperimentConfig,
        model: Sequential,
        workers: "list[SplitWorker] | WorkerPool",
        cluster: "Cluster | LazyCluster",
        data: TrainTestSplit,
        selection: FLSelectionStrategy,
        executor: Executor | None = None,
        pipeline: PipelineScheduler | None = None,
        elastic: ElasticController | None = None,
    ) -> None:
        super().__init__(
            config, workers, cluster, data,
            executor=executor, pipeline=pipeline, elastic=elastic,
        )
        self.model = model.clone()
        self.selection = selection
        self.loss_fn = CrossEntropyLoss()
        #: One model move as the simulated link charges it.
        self.model_bytes = self._model_move_bytes(model_size_bytes(self.model))
        self.full_flops = estimate_forward_flops(self.model, data.feature_shape)

    @classmethod
    def from_components(
        cls, components, selection: FLSelectionStrategy
    ) -> "FLTrainingEngine":
        """The engine over :class:`~repro.api.components.ExperimentComponents`
        (the FL twin of ``SplitTrainingEngine.from_components``)."""
        return cls(
            config=components.config,
            model=components.model,
            workers=components.worker_pool(),
            cluster=components.cluster,
            data=components.data,
            selection=selection,
            executor=components.executor,
        )

    # -- public API -----------------------------------------------------------
    def global_model(self) -> Sequential:
        """A copy of the current global model, in evaluation mode."""
        model = self.model.clone()
        model.eval()
        return model

    # -- checkpointing -----------------------------------------------------------
    def _engine_state(self) -> dict:
        state = {
            "model": self.model.state_dict(),
            "model_extra": module_extra_state(self.model),
        }
        if getattr(self.selection, "stateful", False):
            # Present only for stateful selection strategies (e.g. one
            # backed by a warm-started solver), so the historical strategies
            # keep their checkpoint format byte for byte.
            state["selection"] = self.selection.state_dict()
        return state

    def _load_engine_state(self, state: dict) -> None:
        self.model.load_state_dict(state["model"])
        load_module_extra_state(self.model, state["model_extra"])
        if (getattr(self.selection, "stateful", False)
                and state.get("selection") is not None):
            self.selection.load_state_dict(state["selection"])

    # -- variation points --------------------------------------------------------
    def _compute_plan(
        self, round_index: int, candidates: np.ndarray | None
    ) -> RoundPlan:
        """Run the selection strategy over the candidates' round durations."""
        scope = self._base_batch_plan(self._planning_ids(candidates))
        selected = self.selection.select(
            round_index,
            self._worker_durations(scope),
            self.pool.label_distributions(candidates),
            self.pool.participation_counts(candidates),
            spawned_rng(self._round_seed, round_index),
        )
        return self._base_batch_plan(selected)

    def _base_batch_plan(self, ids) -> RoundPlan:
        """Every FL worker trains at the identical ``base_batch_size``."""
        ids = [int(worker_id) for worker_id in ids]
        return RoundPlan(
            selected=ids,
            batch_sizes=dict.fromkeys(ids, self.config.base_batch_size),
        )

    def _run_stages(
        self,
        plan: RoundPlan,
        selected_workers: list[SplitWorker],
        round_index: int,
        account,
        elastic_state: "ElasticRound | None",
    ) -> list[float]:
        """LOCAL_STEP -> AGGREGATE under the configured scheduler."""
        config = self.config
        observed_losses: list[float] = []

        def train() -> tuple[list[dict[str, np.ndarray]], list[float]]:
            # LOCAL_STEP: full-model training on every selected worker.
            trained = self.executor.train_full(
                selected_workers,
                self.model,
                self.loss_fn,
                iterations=config.local_iterations,
                batch_size=config.base_batch_size,
                learning_rate=self._current_lr,
            )
            if not (
                isinstance(trained, tuple) and len(trained) == 2
                and len(trained[0]) == len(trained[1]) == len(selected_workers)
            ):
                raise TypeError(
                    f"executor {self.executor.name!r} "
                    f"({type(self.executor).__name__}).train_full must return "
                    "(states, losses): two lists aligned with the workers, "
                    "the locally updated state dicts and each worker's mean "
                    f"training loss; got {type(trained).__name__}"
                )
            states, losses = trained
            # The trained states reach the PS over the simulated link.
            return self._delivered(WEIGHTS, plan.selected, states), losses

        def aggregate(trained) -> None:
            states, losses = trained
            weights = [float(worker.num_samples) for worker in selected_workers]
            resolved, observed = (states, weights), losses
            if elastic_state is not None:
                resolved = self._elastic.apply_aggregate(
                    elastic_state, plan.selected, states, weights,
                    self.model.state_dict(),
                )
                # A missing reply carries no loss observation either.
                completed = set(elastic_state.completed)
                observed = [
                    loss for worker, loss in zip(selected_workers, losses)
                    if worker.worker_id in completed
                ]
            observed_losses.extend(observed)
            # ``None``: below the cohort quorum, the round leaves the global
            # model unchanged.
            if resolved is not None:
                self.model.load_state_dict(average_state_dicts(*resolved))

        self.pipeline.run_full_round(FullRoundOps(
            executor=self.executor,
            workers=selected_workers,
            train=train,
            aggregate=aggregate,
        ))
        return observed_losses

    def _worker_costs(
        self, plan: RoundPlan, worker_id: int
    ) -> tuple[float, int, int]:
        return self.full_flops, 0, self.model_bytes

    def _evaluate(self) -> tuple[float, float]:
        return evaluate_classifier(
            [self.model], self.loss_fn, self.data.test.data,
            self.data.test.targets, self.config.eval_batch_size,
        )
