"""The round pipeline: how communication rounds are scheduled.

Both training engines describe a round as a set of *stages*
(:class:`RoundStage`): plan the worker set, install the bottom models, then
for each of the ``tau`` local iterations run the bottom forward, merge the
features, update the top model and dispatch the gradients for the local SGD
steps, and finally aggregate the bottom models.  The
:class:`PipelineScheduler` owns the execution order of those stages; the
engines only provide the stage bodies through :class:`SplitRoundOps` /
:class:`FullRoundOps`.

A split round always runs INSTALL, then (forward, top update, backward)
``tau`` times, then AGGREGATE: feature merging is exact only at that
synchronous barrier, where it equals one large batch.  What the scheduler
chooses is where the parent waits.  The blocking order acknowledges every
install and backward and collects the states last.  The **aggregate
window** skips both acknowledgements, runs each forward as
``launch_forward`` + ``collect_forward`` and splits the state collection:
the states are requested, the parent runs the round's accounting and the
*next* round's PLAN while the executor finishes its tail compute, and only
then blocks for the states.  That leaves ``tau + 1`` blocking points
instead of ``2 tau + 2``, and the same trajectory.

The scheduler opens the window whenever the executor
``supports_async_dispatch`` (the process executor; the in-process ones
have no wait to skip), the round has at least one iteration and it
aggregates once at its end.  SplitFed's per-iteration re-install has no
tail to overlap, and ``tau = 0`` nothing to launch, so both keep the
blocking order.  Which order runs is observed, not configured.

The scheduler holds no cross-round *executor* state, so switching executors
never invalidates a checkpoint; ``Session.save_checkpoint`` still drains the
executor first, and the one cross-round artifact the window creates --
the prefetched next-round plan -- is serialized by the engine's
``state_dict`` and consumed by whichever order runs the next round.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.worker import SplitWorker
    from repro.parallel.base import Executor


class RoundStage(enum.Enum):
    """The stages of one communication round, in reference order."""

    PLAN = "plan"
    INSTALL = "install"
    BOTTOM_FORWARD = "bottom_forward"
    MERGE = "merge"
    TOP_UPDATE = "top_update"
    BACKWARD_DISPATCH = "backward_dispatch"
    LOCAL_STEP = "local_step"
    AGGREGATE = "aggregate"


#: Stage observer signature: ``(stage, iteration)``; iteration is ``None``
#: for the per-round stages (install/aggregate).
StageHook = Callable[[RoundStage, "int | None"], None]


@dataclass
class RoundReport:
    """What a scheduler measured about the round it just ran.

    Attributes:
        sync_points: Blocking scheduler/executor barriers the round
            required (acknowledged installs and backwards, forwards, state
            collections).  Smaller means less time the parent spends
            stalled on the executor.
    """

    sync_points: int = 0


@dataclass
class SplitRoundOps:
    """Stage bodies of one split-training round, supplied by the engine.

    The scheduler decides *when* each runs; the engine decides *what* they
    do.  ``install(wait)`` distributes the bottom models, blocking for the
    executor's acknowledgement only when ``wait`` is true; ``update_top``
    covers the MERGE and TOP_UPDATE stages and returns ``(loss,
    gradients)`` with the gradient segments aligned with ``workers``; the
    executor's ``backward_step`` covers BACKWARD_DISPATCH and LOCAL_STEP;
    ``aggregate(states)`` consumes the bottom states the scheduler
    collected from the executor.

    ``account`` (the engine's idempotent parent-side round accounting) and
    ``prefetch_plan`` (the *next* round's plan) run inside the aggregate
    window, overlapping the executor's tail compute; the blocking order
    leaves both to the round driver.
    """

    executor: "Executor"
    workers: "list[SplitWorker]"
    batch_sizes: list[int]
    install: Callable[[bool], None]
    update_top: Callable[[list, list], tuple[float, list[np.ndarray]]]
    aggregate: Callable[[list], None]
    on_stage: StageHook | None = None
    account: Callable[[], None] | None = None
    prefetch_plan: Callable[[], None] | None = None

    def note(self, stage: RoundStage, iteration: int | None = None) -> None:
        if self.on_stage is not None:
            self.on_stage(stage, iteration)


@dataclass
class FullRoundOps:
    """Stage bodies of one full-model (FL) round.

    ``train`` runs every selected worker's local iterations (LOCAL_STEP)
    and returns ``Executor.train_full``'s ``(states, losses)``;
    ``aggregate`` consumes that result as is.  The round driver runs its
    parent-side accounting afterwards.
    """

    executor: "Executor"
    workers: "list[SplitWorker]"
    train: Callable[[], tuple[list, list]]
    aggregate: Callable[[tuple[list, list]], None]
    on_stage: StageHook | None = None

    def note(self, stage: RoundStage, iteration: int | None = None) -> None:
        if self.on_stage is not None:
            self.on_stage(stage, iteration)


class PipelineScheduler:
    """The round scheduler: one split-round loop, with the aggregate window
    wherever it applies (see the module docstring).

    Both orders yield the same trajectory, so an executor without
    ``supports_async_dispatch`` simply runs the blocking order.
    """

    def __init__(self) -> None:
        #: Blocking barriers across the scheduler's lifetime (cumulative).
        self.sync_points = 0
        #: Measurements of the most recently completed round.
        self.last_report = RoundReport()

    def _report(self, sync_points: int) -> None:
        self.sync_points += sync_points
        self.last_report = RoundReport(sync_points)

    def run_split_round(
        self,
        ops: SplitRoundOps,
        local_iterations: int,
        aggregate_every_iteration: bool,
    ) -> list[float]:
        """Execute INSTALL .. AGGREGATE and return the per-iteration losses."""
        executor = ops.executor
        window = (
            getattr(executor, "supports_async_dispatch", False)
            and local_iterations > 0
            and not aggregate_every_iteration
        )
        wait = not window
        syncs = 0

        def install(iteration: int | None = None) -> None:
            nonlocal syncs
            ops.note(RoundStage.INSTALL, iteration)
            ops.install(wait)
            syncs += wait

        def aggregate(iteration: int | None = None) -> None:
            nonlocal syncs
            ops.note(RoundStage.AGGREGATE, iteration)
            ops.aggregate(executor.bottom_states(ops.workers))
            syncs += 1

        install()
        losses: list[float] = []
        for iteration in range(local_iterations):
            ops.note(RoundStage.BOTTOM_FORWARD, iteration)
            if window:
                # The same forward in its two halves, so the parent's wait
                # on the children is a call of its own.
                executor.launch_forward(ops.workers, ops.batch_sizes)
                features, labels = executor.collect_forward(ops.workers)
            else:
                features, labels = executor.forward(ops.workers, ops.batch_sizes)
            ops.note(RoundStage.TOP_UPDATE, iteration)
            loss, gradients = ops.update_top(features, labels)
            ops.note(RoundStage.BACKWARD_DISPATCH, iteration)
            executor.backward_step(ops.workers, gradients, wait=wait)
            losses.append(loss)
            syncs += 1 + wait
            if aggregate_every_iteration:
                aggregate(iteration)
                install(iteration)
        if window:
            # While the executor finishes its tail compute (the final local
            # updates, the state capture) the parent accounts the round and
            # plans the next one.  Account *before* prefetch: planning round
            # r+1 advances the simulated cluster, which accounting for
            # round r must not see.
            executor.request_states(ops.workers)
            if ops.account is not None:
                ops.account()
            if ops.prefetch_plan is not None:
                ops.note(RoundStage.PLAN)
                ops.prefetch_plan()
            ops.note(RoundStage.AGGREGATE)
            ops.aggregate(executor.collect_states(ops.workers))
            syncs += 1
        elif not aggregate_every_iteration:
            aggregate()
        self._report(syncs)
        return losses

    def run_full_round(self, ops: FullRoundOps) -> tuple[list, list]:
        """Execute the FL round stages and return what ``ops.train`` did."""
        ops.note(RoundStage.LOCAL_STEP)
        trained = ops.train()
        ops.note(RoundStage.AGGREGATE)
        ops.aggregate(trained)
        self._report(2)
        return trained

