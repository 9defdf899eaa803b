"""The round pipeline: how communication rounds are scheduled.

Both training engines describe a round as a set of *stages*
(:class:`RoundStage`): plan the worker set, install the bottom models, then
for each of the ``tau`` local iterations run the bottom forward, merge the
features, update the top model and dispatch the gradients for the local SGD
steps, and finally aggregate the bottom models.  The
:class:`PipelineScheduler` owns the execution order of those stages; the
engines only provide the stage bodies through :class:`SplitRoundOps` /
:class:`FullRoundOps`.

Stages are not merely a sequence: each stage instance reads and writes
*versioned artifacts* -- the bottom weights after ``v`` local updates, the
merged features of iteration ``k``, the dispatched top gradients of
iteration ``k``, the global model before/after aggregation.  The
declarative dependency graph lives in :func:`round_stage_specs`; every
legal schedule is an order that respects those edges
(:func:`relaxed_dispatch_order`), and the one edge the paper-relevant
relaxation bends is the bottom-forward's read of the bottom weights (see
:class:`ArtifactRef.relaxed`).

There is one scheduler class with two parameters and two bodies:

* the **blocking body** runs ``install`` / ``forward`` / ``backward_step`` /
  ``bottom_states`` one after another.  It is the reference order: its
  behaviour *defines* what the graph body must reproduce bit-exactly at
  staleness 0, and it is the only order an executor without asynchronous
  dispatch, a per-iteration re-install (SplitFed) or ``tau = 0`` can run.
* the **graph body** walks ``relaxed_dispatch_order(round_stage_specs(tau),
  staleness)`` and drives the executor's asynchronous protocol
  (``install(wait=False)`` / ``stage_forward`` + ``launch_forward`` /
  ``collect_forward`` / ``backward_step_nowait`` / ``request_states`` +
  ``collect_states``).  Its only blocking points are the ``tau`` feature
  collections and the state collection, and the aggregate is a window:
  the states are requested, the parent runs the round's accounting and the
  *next* round's PLAN/GA while the executor finishes its tail compute, and
  only then blocks for the states.

The three registered names (``ExperimentConfig(pipeline=...)``) are three
constructions of that class: ``sync`` = ``PipelineScheduler()`` (always the
blocking body), ``pipelined`` = ``PipelineScheduler(asynchronous=True)``
(the graph body at staleness 0, bit-exact with ``sync``) and ``staleness``
= ``PipelineScheduler(asynchronous=True, staleness=config.staleness)``.  At
``staleness >= 1`` the bottom forward of iteration ``k`` may run on weights
that miss up to ``staleness`` of the latest local updates; the trajectory
is then no longer bit-exact with ``sync`` but deterministic (the order is a
pure function of the graph and the bound) and identical across capable
executors, and the history records the realized per-round staleness.

The scheduler holds no cross-round *executor* state, so switching it never
invalidates a checkpoint; ``Session.save_checkpoint`` still drains the
executor first, and the one cross-round artifact the graph body creates --
the prefetched next-round plan -- is serialized by the engine's
``state_dict`` and consumed by whichever body runs the next round.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.worker import SplitWorker
    from repro.parallel.base import Executor

logger = get_logger("parallel.pipeline")


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


class ArtifactKind(enum.Enum):
    """The versioned artifacts stages exchange within (and across) rounds."""

    #: Bottom-model weights; version = number of local updates applied
    #: since the round's install.
    BOTTOM_WEIGHTS = "bottom_weights"
    #: Split-layer features (merged by the PS); version = iteration index.
    FEATURES = "features"
    #: Dispatched top gradients; version = iteration index.
    TOP_GRADIENTS = "top_gradients"
    #: The aggregated global model; version 0 = start of round, 1 = after
    #: this round's aggregation.
    GLOBAL_MODEL = "global_model"


@dataclass(frozen=True)
class ArtifactRef:
    """A read/write of one artifact at one version.

    ``relaxed`` marks the dependency a bounded-staleness schedule may bend:
    the read is satisfied by any version within ``staleness`` of the
    requested one.  At staleness 0 every read is strict.
    """

    kind: ArtifactKind
    version: int
    relaxed: bool = False


@dataclass(frozen=True)
class StageSpec:
    """One stage instance of a round and its declared data dependencies."""

    stage: RoundStage
    iteration: int | None
    reads: tuple[ArtifactRef, ...]
    writes: tuple[ArtifactRef, ...]


def round_stage_specs(local_iterations: int) -> list[StageSpec]:
    """The dependency graph of one end-aggregating split round.

    Per-iteration aggregation (SplitFed) re-installs after every iteration,
    which serialises the round by construction; the scheduler runs its
    blocking body there, so only the end-aggregate form needs a
    declarative graph.
    """
    specs = [
        StageSpec(
            RoundStage.INSTALL, None,
            reads=(ArtifactRef(ArtifactKind.GLOBAL_MODEL, 0),),
            writes=(ArtifactRef(ArtifactKind.BOTTOM_WEIGHTS, 0),),
        )
    ]
    for k in range(local_iterations):
        specs.append(StageSpec(
            RoundStage.BOTTOM_FORWARD, k,
            # THE relaxable edge: forward k wants the weights after k local
            # updates but may run up to `staleness` updates behind.
            reads=(ArtifactRef(ArtifactKind.BOTTOM_WEIGHTS, k, relaxed=True),),
            writes=(ArtifactRef(ArtifactKind.FEATURES, k),),
        ))
        specs.append(StageSpec(
            RoundStage.TOP_UPDATE, k,
            reads=(ArtifactRef(ArtifactKind.FEATURES, k),),
            writes=(ArtifactRef(ArtifactKind.TOP_GRADIENTS, k),),
        ))
        specs.append(StageSpec(
            RoundStage.BACKWARD_DISPATCH, k,
            reads=(
                ArtifactRef(ArtifactKind.TOP_GRADIENTS, k),
                ArtifactRef(ArtifactKind.BOTTOM_WEIGHTS, k),
            ),
            writes=(ArtifactRef(ArtifactKind.BOTTOM_WEIGHTS, k + 1),),
        ))
    specs.append(StageSpec(
        RoundStage.AGGREGATE, None,
        reads=(ArtifactRef(ArtifactKind.BOTTOM_WEIGHTS, local_iterations),),
        writes=(ArtifactRef(ArtifactKind.GLOBAL_MODEL, 1),),
    ))
    return specs


@dataclass(frozen=True)
class ScheduledStage:
    """One dispatch slot of a derived schedule.

    ``lag`` is the realized staleness of the stage's relaxed reads: how
    many versions behind the strict requirement its input was when the
    stage became dispatchable (always 0 at staleness 0).
    """

    spec: StageSpec
    lag: int = 0


def relaxed_dispatch_order(
    specs: list[StageSpec], staleness: int
) -> list[ScheduledStage]:
    """Derive a dispatch order from the dependency graph.

    Walks the specs with a readiness rule -- a stage is dispatchable when
    every read is satisfied, where a relaxed read tolerates inputs up to
    ``staleness`` versions old -- and greedily dispatches bottom-forwards
    as early as their (relaxed) dependencies allow, which is what lets
    iteration ``k``'s forward overtake up to ``staleness`` pending local
    updates.  All other stages dispatch in graph order.  ``staleness=0``
    therefore reproduces the strict stage sequence.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness}")
    published: dict[ArtifactKind, int] = {ArtifactKind.GLOBAL_MODEL: 0}

    def ready(spec: StageSpec) -> int | None:
        """Worst relaxed lag if dispatchable, else None."""
        lag = 0
        for read in spec.reads:
            have = published.get(read.kind, -1)
            need = read.version - (staleness if read.relaxed else 0)
            if read.relaxed:
                # Relaxation never reaches before the artifact exists.
                need = max(0, need)
            if have < need:
                return None
            if read.relaxed:
                lag = max(lag, max(0, read.version - have))
        return lag

    order: list[ScheduledStage] = []
    pending = list(specs)
    while pending:
        chosen = None
        # Forwards are dispatched as eagerly as the graph allows ...
        for index, spec in enumerate(pending):
            if spec.stage is not RoundStage.BOTTOM_FORWARD:
                continue
            lag = ready(spec)
            if lag is not None:
                chosen = (index, spec, lag)
            break  # only the earliest pending forward is a candidate
        if chosen is None:
            # ... every other stage in graph order.
            for index, spec in enumerate(pending):
                lag = ready(spec)
                if lag is not None:
                    chosen = (index, spec, lag)
                    break
        if chosen is None:  # pragma: no cover - the graph is always feasible
            raise RuntimeError("dependency graph deadlocked; no stage ready")
        index, spec, lag = chosen
        del pending[index]
        for write in spec.writes:
            published[write.kind] = max(
                published.get(write.kind, -1), write.version
            )
        order.append(ScheduledStage(spec, lag))
    return order


#: Stage observer signature: ``(stage, iteration)``; iteration is ``None``
#: for the per-round stages (install/aggregate).
StageHook = Callable[[RoundStage, "int | None"], None]


@dataclass
class RoundReport:
    """What a scheduler measured about the round it just ran.

    Attributes:
        sync_points: Blocking scheduler/executor barriers the schedule
            required (installs with acknowledgement, forward collections,
            per-stage waits, state collections).  Smaller means less time
            the parent spends stalled on the executor.
        effective_staleness: Mean realized staleness of the round's bottom
            forwards (0.0 under any exact schedule).
    """

    sync_points: int = 0
    effective_staleness: float = 0.0


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
    ``prefetch_plan`` (the *next* round's plan) are run by the graph body
    inside its aggregate window, overlapping the executor's tail compute;
    the blocking body leaves both to the round driver.
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
    """The round scheduler: one class, a blocking body and a graph body.

    Args:
        asynchronous: Run split rounds in graph order
            (:func:`relaxed_dispatch_order` over :func:`round_stage_specs`)
            through the executor's asynchronous dispatch protocol.
            ``False`` always runs the blocking reference order.
        staleness: Bound of the graph's one relaxable edge; 0 keeps the
            trajectory bit-exact with the blocking order.

    Which body runs a round is observed, not configured: the graph body
    needs ``Executor.supports_async_dispatch``, end-of-round aggregation
    (a per-iteration re-install serialises the round by construction) and
    at least one iteration; everything else takes the blocking body.  At
    staleness 0 both yield the same trajectory, so only a *requested
    relaxation* that cannot run -- a change of semantics back to exact,
    not just of speed -- is logged, loudly and once.
    """

    def __init__(self, asynchronous: bool = False, staleness: int = 0) -> None:
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")
        if staleness and not asynchronous:
            raise ValueError("staleness >= 1 needs asynchronous=True")
        self.asynchronous = bool(asynchronous)
        self.staleness = int(staleness)
        #: Blocking barriers across the scheduler's lifetime (cumulative).
        self.sync_points = 0
        #: Measurements of the most recently completed round.
        self.last_report = RoundReport()
        self._warned_exact = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(asynchronous={self.asynchronous}, "
            f"staleness={self.staleness})"
        )

    def _report(self, sync_points: int, effective_staleness: float = 0.0) -> None:
        self.sync_points += sync_points
        self.last_report = RoundReport(sync_points, effective_staleness)

    def run_split_round(
        self,
        ops: SplitRoundOps,
        local_iterations: int,
        aggregate_every_iteration: bool,
    ) -> list[float]:
        """Execute INSTALL .. AGGREGATE and return the per-iteration losses."""
        capable = getattr(ops.executor, "supports_async_dispatch", False)
        if (self.asynchronous and capable and local_iterations > 0
                and not aggregate_every_iteration):
            return self._run_graph(ops, local_iterations)
        if self.staleness and local_iterations > 0 and not self._warned_exact:
            self._warned_exact = True
            logger.warning(
                "staleness=%d requested but running the EXACT schedule (%s); "
                "the run behaves as staleness=0",
                self.staleness,
                "the round re-installs after every iteration" if capable
                else f"executor {ops.executor.name!r} has no asynchronous dispatch",
            )
        return self._run_blocking(ops, local_iterations, aggregate_every_iteration)

    def _run_blocking(
        self,
        ops: SplitRoundOps,
        local_iterations: int,
        aggregate_every_iteration: bool,
    ) -> list[float]:
        """The reference order: every stage completes before the next starts."""
        executor = ops.executor

        def aggregate(iteration: int | None = None) -> None:
            ops.note(RoundStage.AGGREGATE, iteration)
            ops.aggregate(executor.bottom_states(ops.workers))

        syncs = 1
        ops.note(RoundStage.INSTALL)
        ops.install(True)
        losses: list[float] = []
        for iteration in range(local_iterations):
            ops.note(RoundStage.BOTTOM_FORWARD, iteration)
            features, labels = executor.forward(ops.workers, ops.batch_sizes)
            ops.note(RoundStage.TOP_UPDATE, iteration)
            loss, gradients = ops.update_top(features, labels)
            ops.note(RoundStage.BACKWARD_DISPATCH, iteration)
            executor.backward_step(ops.workers, gradients)
            losses.append(loss)
            syncs += 2
            if aggregate_every_iteration:
                aggregate(iteration)
                ops.note(RoundStage.INSTALL, iteration)
                ops.install(True)
                syncs += 2
        if not aggregate_every_iteration:
            aggregate()
            syncs += 1
        self._report(syncs)
        return losses

    def _run_graph(self, ops: SplitRoundOps, local_iterations: int) -> list[float]:
        """The order derived from the dependency graph, dispatched
        asynchronously; blocks only to collect features and states."""
        executor = ops.executor
        lags: list[int] = []
        losses: list[float] = []
        #: Features collected ahead of their top update, keyed by iteration.
        collected: dict[int, tuple[list, list]] = {}
        launched = gathered = 0  # forwards dispatched / collected (FIFO)
        gradients: list | None = None

        def collect_through(iteration: int) -> None:
            nonlocal gathered
            while gathered <= iteration:
                collected[gathered] = executor.collect_forward(ops.workers)
                gathered += 1

        for slot in relaxed_dispatch_order(
            round_stage_specs(local_iterations), self.staleness
        ):
            stage, iteration = slot.spec.stage, slot.spec.iteration
            if stage is RoundStage.INSTALL:
                ops.note(stage)
                ops.install(False)
            elif stage is RoundStage.BOTTOM_FORWARD:
                # May overtake up to `staleness` pending local updates; the
                # executor's in-flight snapshots keep the delayed backwards
                # well-defined (see repro.parallel.staleness).
                ops.note(stage, iteration)
                executor.stage_forward(ops.workers, ops.batch_sizes)
                executor.launch_forward(ops.workers)
                launched += 1
                lags.append(slot.lag)
            elif stage is RoundStage.TOP_UPDATE:
                collect_through(iteration)
                features, labels = collected.pop(iteration)
                ops.note(stage, iteration)
                loss, gradients = ops.update_top(features, labels)
                losses.append(loss)
            elif stage is RoundStage.BACKWARD_DISPATCH:
                # Bulk safety: gradients only travel while no bulk reply is
                # mid-flight the other way, so every outstanding forward is
                # collected first (the children computed them already).
                collect_through(launched - 1)
                ops.note(stage, iteration)
                executor.backward_step_nowait(ops.workers, gradients)
            elif stage is RoundStage.AGGREGATE:
                # The aggregate window: while the executor finishes its
                # tail compute (the final local updates, the state capture)
                # the parent accounts the round and plans the next one.
                # Account *before* prefetch: planning round r+1 advances
                # the simulated cluster, which accounting for round r must
                # not see.
                executor.request_states(ops.workers)
                if ops.account is not None:
                    ops.account()
                if ops.prefetch_plan is not None:
                    ops.note(RoundStage.PLAN)
                    ops.prefetch_plan()
                ops.note(stage)
                ops.aggregate(executor.collect_states(ops.workers))
        # Blocking points: one per feature collection, one for the states.
        self._report(gathered + 1, float(np.mean(lags)))
        return losses

    def run_full_round(self, ops: FullRoundOps) -> tuple[list, list]:
        """Execute the FL round stages and return what ``ops.train`` did."""
        ops.note(RoundStage.LOCAL_STEP)
        trained = ops.train()
        ops.note(RoundStage.AGGREGATE)
        ops.aggregate(trained)
        self._report(2)
        return trained


def build_pipeline(config) -> PipelineScheduler:
    """Instantiate the scheduler named in ``config.pipeline`` via the registry."""
    from repro.api.registry import PIPELINES

    return PIPELINES.get(config.pipeline)(config)
