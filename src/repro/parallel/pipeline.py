"""The round pipeline: how communication rounds are scheduled.

Both training engines describe a round as a set of *stages*
(:class:`RoundStage`): plan the worker set, install the bottom models, then
for each of the ``tau`` local iterations run the bottom forward, merge the
features, update the top model and dispatch the gradients for the local SGD
steps, and finally aggregate the bottom models.  A
:class:`PipelineScheduler` owns the execution order of those stages; the
engines only provide the stage bodies through :class:`SplitRoundOps` /
:class:`FullRoundOps`.

Stages are not merely a sequence: each stage instance reads and writes
*versioned artifacts* -- the bottom weights after ``v`` local updates, the
merged features of iteration ``k``, the dispatched top gradients of
iteration ``k``, the global model before/after aggregation.  The
declarative dependency graph lives in :func:`round_stage_specs`; every
legal schedule is an order that respects those edges, and the one edge the
paper-relevant relaxations bend is the bottom-forward's read of the bottom
weights (see :class:`ArtifactRef.relaxed`).

Three schedulers are registered (``ExperimentConfig(pipeline=...)``):

* ``sync`` -- :class:`PipelineScheduler`: every stage runs to completion
  before the next starts.  This is the reference order; its behaviour
  *defines* what the exact schedulers must reproduce bit-exactly.
* ``pipelined`` -- :class:`PipelinedScheduler`: when the executor supports
  asynchronous dispatch (``Executor.supports_pipelining``), iteration
  ``k+1``'s bottom-forward work is double-buffered against iteration
  ``k``'s top update; the staleness bound is 0, so histories stay
  bit-exact with ``sync``.
* ``staleness`` -- :class:`BoundedStalenessScheduler`: dispatches any stage
  whose declared inputs are within ``config.staleness`` versions of fresh.
  At ``staleness=0`` it *is* the pipelined schedule (bit-exact, pinned in
  the equivalence suite).  At ``staleness >= 1`` the bottom forward of
  iteration ``k`` may run on weights that miss up to ``staleness`` of the
  latest local updates, and the round tail relaxes too: the aggregate's
  state collection is dispatched asynchronously so parent-side accounting
  and the *next* round's PLAN/GA overlap the children's tail compute
  (cross-round pipelining -- the round-end drain disappears).  The
  trajectory is no longer bit-exact with ``sync``; it is deterministic
  (the relaxed order is a pure function of the dependency graph and the
  staleness bound) and identical across capable executors, and the history
  records its realized per-round staleness so the relaxation is
  measurable.

Schedulers hold no cross-round *executor* state, so switching them never
invalidates a checkpoint; ``Session.save_checkpoint`` still drains the
executor first, and the one cross-round artifact the staleness scheduler
creates -- the prefetched next-round plan -- is serialized by the engine's
``state_dict`` so resume stays exact at any staleness.
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
    requested one.  Exact schedulers treat every read as strict.
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
    which serialises the round by construction; relaxed schedulers fall
    back to the exact order there, so only the end-aggregate form needs a
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
    stage became dispatchable (always 0 for exact schedules).
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
    do.  ``update_top`` covers the MERGE and TOP_UPDATE stages and returns
    ``(loss, gradients)`` with the gradient segments aligned with
    ``workers``; the executor's ``backward_step`` covers BACKWARD_DISPATCH
    and LOCAL_STEP.

    The optional bindings exist for relaxed schedulers: ``install_nowait``
    installs without waiting for the acknowledgement,
    ``finish_aggregate`` consumes executor-collected bottom states (so the
    collection can be dispatched asynchronously), ``account`` performs the
    engine's parent-side round accounting (idempotent), and
    ``prefetch_plan`` computes the *next* round's plan -- both may be
    invoked inside the aggregate window to overlap the executor's tail
    compute.  Schedulers that never relax ignore all four.
    """

    executor: "Executor"
    workers: "list[SplitWorker]"
    batch_sizes: list[int]
    install: Callable[[], None]
    update_top: Callable[[list, list], tuple[float, list[np.ndarray]]]
    aggregate: Callable[[], None]
    on_stage: StageHook | None = None
    install_nowait: Callable[[], None] | None = None
    finish_aggregate: Callable[[list], None] | None = None
    account: Callable[[], None] | None = None
    prefetch_plan: Callable[[], None] | None = None
    #: Per-worker cut depths (aligned with ``workers``) when a split-point
    #: policy is active; ``None`` under the uniform global cut.  Purely
    #: informational for schedulers -- the install/update closures already
    #: bind the depths -- but it makes per-worker stage shapes visible to
    #: stage hooks and diagnostics.
    depths: list[int] | None = None

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
    """Reference scheduler: stages run strictly one after another."""

    name = "sync"

    def __init__(self) -> None:
        #: Blocking barriers across the scheduler's lifetime (cumulative).
        self.sync_points = 0
        #: Measurements of the most recently completed round.
        self.last_report = RoundReport()

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
        syncs = 1
        ops.note(RoundStage.INSTALL)
        ops.install()
        losses: list[float] = []
        for iteration in range(local_iterations):
            ops.note(RoundStage.BOTTOM_FORWARD, iteration)
            features, labels = ops.executor.forward(ops.workers, ops.batch_sizes)
            ops.note(RoundStage.TOP_UPDATE, iteration)
            loss, gradients = ops.update_top(features, labels)
            ops.note(RoundStage.BACKWARD_DISPATCH, iteration)
            ops.executor.backward_step(ops.workers, gradients)
            losses.append(loss)
            syncs += 2
            if aggregate_every_iteration:
                ops.note(RoundStage.AGGREGATE, iteration)
                ops.aggregate()
                ops.note(RoundStage.INSTALL, iteration)
                ops.install()
                syncs += 2
        if not aggregate_every_iteration:
            ops.note(RoundStage.AGGREGATE)
            ops.aggregate()
            syncs += 1
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PipelinedScheduler(PipelineScheduler):
    """Double-buffered scheduler: overlap transfer/dispatch across iterations.

    Requires the split-phase executor capability (``stage_forward`` /
    ``launch_forward`` / ``collect_forward`` / ``fused_backward_forward`` /
    ``backward_step_nowait``); falls back to the synchronous order when the
    executor lacks it or the round re-installs after every iteration.
    """

    name = "pipelined"

    def __init__(self) -> None:
        super().__init__()
        self._warned_fallback = False

    def run_split_round(
        self,
        ops: SplitRoundOps,
        local_iterations: int,
        aggregate_every_iteration: bool,
    ) -> list[float]:
        executor = ops.executor
        if local_iterations <= 0:
            # Nothing to double-buffer; the pre-loop launch would leave an
            # uncollected forward behind.  The sync order handles zero
            # iterations gracefully.
            return PipelineScheduler.run_split_round(
                self, ops, local_iterations, aggregate_every_iteration
            )
        if not getattr(executor, "supports_pipelining", False) or aggregate_every_iteration:
            if not self._warned_fallback:
                self._warned_fallback = True
                reason = (
                    "the round re-installs after every iteration"
                    if aggregate_every_iteration
                    else f"executor {executor.name!r} has no asynchronous dispatch"
                )
                logger.warning(
                    "pipelined scheduler falling back to synchronous stage "
                    "order: %s", reason,
                )
            return PipelineScheduler.run_split_round(
                self, ops, local_iterations, aggregate_every_iteration
            )
        syncs = 1
        ops.note(RoundStage.INSTALL)
        ops.install()
        losses: list[float] = []
        # Double buffer: iteration 0's batches are staged and its forward
        # launched before the loop; inside the loop, iteration k+1's batches
        # ship while the children still compute forward k.
        ops.note(RoundStage.BOTTOM_FORWARD, 0)
        executor.stage_forward(ops.workers, ops.batch_sizes)
        executor.launch_forward(ops.workers)
        for iteration in range(local_iterations):
            if iteration + 1 < local_iterations:
                ops.note(RoundStage.BOTTOM_FORWARD, iteration + 1)
                executor.stage_forward(ops.workers, ops.batch_sizes)
            features, labels = executor.collect_forward(ops.workers)
            syncs += 1
            ops.note(RoundStage.TOP_UPDATE, iteration)
            loss, gradients = ops.update_top(features, labels)
            ops.note(RoundStage.BACKWARD_DISPATCH, iteration)
            if iteration + 1 < local_iterations:
                # One synchronisation: backward k + step + forward k+1.
                executor.fused_backward_forward(ops.workers, gradients)
            else:
                executor.backward_step_nowait(ops.workers, gradients)
            losses.append(loss)
        ops.note(RoundStage.AGGREGATE)
        ops.aggregate()
        syncs += 1
        self._report(syncs)
        return losses


class BoundedStalenessScheduler(PipelinedScheduler):
    """Dependency-tracked scheduler with a bounded-staleness relaxation.

    The round's stages are taken from the declarative graph of
    :func:`round_stage_specs` and dispatched by
    :func:`relaxed_dispatch_order`: any stage whose declared inputs are
    within ``staleness`` versions of fresh may run.  ``staleness=0``
    reproduces the pipelined (hence the synchronous) trajectory bit for
    bit.  ``staleness>=1`` needs the executor's relaxed-dispatch
    capability (``Executor.supports_staleness``): bottom forwards overtake
    up to ``staleness`` pending local updates (the executor's in-flight
    snapshots keep delayed backwards well-defined; see
    :mod:`repro.parallel.staleness`), installs stop waiting for
    acknowledgements, and the aggregate's state collection is dispatched
    asynchronously so the engine's accounting and the next round's PLAN
    overlap the executor's tail compute.  Executors without the capability
    (and SplitFed-style per-iteration aggregation) fall back to the exact
    pipelined/synchronous order with a warning -- the fallback changes the
    *semantics* back to exact, not just the speed.
    """

    name = "staleness"

    def __init__(self, staleness: int = 0) -> None:
        super().__init__()
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")
        self.staleness = int(staleness)
        self._warned_relaxation_fallback = False
        self._pending_gradients: list | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(staleness={self.staleness})"

    def run_split_round(
        self,
        ops: SplitRoundOps,
        local_iterations: int,
        aggregate_every_iteration: bool,
    ) -> list[float]:
        if self.staleness == 0 or local_iterations <= 0:
            # Exact schedule, pinned bit-identical to the pipelined one.
            return super().run_split_round(
                ops, local_iterations, aggregate_every_iteration
            )
        executor = ops.executor
        if not getattr(executor, "supports_staleness", False) or aggregate_every_iteration:
            if not self._warned_relaxation_fallback:
                self._warned_relaxation_fallback = True
                reason = (
                    "the round re-installs after every iteration"
                    if aggregate_every_iteration
                    else f"executor {executor.name!r} has no relaxed dispatch"
                )
                logger.warning(
                    "staleness=%d requested but falling back to the EXACT "
                    "schedule (%s); the run behaves as staleness=0",
                    self.staleness, reason,
                )
            return super().run_split_round(
                ops, local_iterations, aggregate_every_iteration
            )
        return self._run_relaxed(ops, local_iterations)

    def _run_relaxed(self, ops: SplitRoundOps, local_iterations: int) -> list[float]:
        """Execute the relaxed schedule derived from the dependency graph."""
        executor = ops.executor
        order = relaxed_dispatch_order(
            round_stage_specs(local_iterations), self.staleness
        )
        syncs = 0
        lags: list[int] = []
        losses: list[float] = []
        #: Features collected ahead of their top update, keyed by iteration.
        collected: dict[int, tuple[list, list]] = {}
        outstanding = 0      # dispatched-but-uncollected forwards
        next_collect = 0     # iteration index the next collection yields

        def collect_one() -> None:
            nonlocal outstanding, next_collect, syncs
            collected[next_collect] = executor.collect_forward(ops.workers)
            outstanding -= 1
            next_collect += 1
            syncs += 1

        for slot in order:
            spec = slot.spec
            if spec.stage is RoundStage.INSTALL:
                ops.note(RoundStage.INSTALL)
                if ops.install_nowait is not None:
                    ops.install_nowait()
                else:
                    ops.install()
                    syncs += 1
            elif spec.stage is RoundStage.BOTTOM_FORWARD:
                ops.note(RoundStage.BOTTOM_FORWARD, spec.iteration)
                executor.dispatch_forward(ops.workers, ops.batch_sizes)
                outstanding += 1
                lags.append(slot.lag)
            elif spec.stage is RoundStage.TOP_UPDATE:
                while spec.iteration not in collected:
                    collect_one()
                features, labels = collected.pop(spec.iteration)
                ops.note(RoundStage.TOP_UPDATE, spec.iteration)
                loss, gradients = ops.update_top(features, labels)
                losses.append(loss)
                self._pending_gradients = gradients
            elif spec.stage is RoundStage.BACKWARD_DISPATCH:
                # Bulk safety: gradients only travel while no bulk reply is
                # mid-flight the other way, so every outstanding forward is
                # collected first (the children computed them already).
                while outstanding:
                    collect_one()
                ops.note(RoundStage.BACKWARD_DISPATCH, spec.iteration)
                executor.dispatch_backward(ops.workers, self._pending_gradients)
                self._pending_gradients = None
            elif spec.stage is RoundStage.AGGREGATE:
                syncs += self._relaxed_aggregate(ops)
        self._report(syncs, float(np.mean(lags)) if lags else 0.0)
        return losses

    def _relaxed_aggregate(self, ops: SplitRoundOps) -> int:
        """Aggregate with the cross-round overlap window; returns syncs used.

        The state collection is dispatched first; while the executor's tail
        compute (the final local updates and the state capture) proceeds,
        the parent runs its round accounting and -- the cross-round part --
        the *next* round's PLAN/GA.  Only then does the scheduler block for
        the states.  Requires the engine to have split its aggregate into
        collect + ``finish_aggregate``; ops without the split keep the
        blocking aggregate.
        """
        executor = ops.executor
        if ops.finish_aggregate is None:
            ops.note(RoundStage.AGGREGATE)
            if ops.account is not None:
                ops.account()
            if ops.prefetch_plan is not None:
                ops.prefetch_plan()
            ops.aggregate()
            return 1
        executor.request_states(ops.workers)
        # Account *before* prefetch: planning round r+1 advances the
        # simulated cluster, which accounting for round r must not see.
        if ops.account is not None:
            ops.account()
        if ops.prefetch_plan is not None:
            ops.note(RoundStage.PLAN)
            ops.prefetch_plan()
        ops.note(RoundStage.AGGREGATE)
        states = executor.collect_states(ops.workers)
        ops.finish_aggregate(states)
        return 1


def build_pipeline(config) -> PipelineScheduler:
    """Instantiate the scheduler named in ``config.pipeline`` via the registry."""
    from repro.api.registry import PIPELINES

    return PIPELINES.get(config.pipeline)(config)
