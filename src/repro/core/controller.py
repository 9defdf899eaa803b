"""The control module (Section IV-A, Alg. 1) -- the one split control policy.

At the start of every communication round the control module regulates
batch sizes (Eq. 9), selects a worker set whose merged label distribution
approximates IID under the PS ingress-bandwidth constraint (Eq. 10-13,
solver-driven), fine-tunes the batch sizes to push the KL divergence below
the threshold (Eq. 14, Lagrangian step) and rescales them to use the
available bandwidth.  Each step sits behind a switch of
:class:`ControlModule`: all on is MergeSFL, and every other split approach
the paper evaluates (SplitFed, LocFedMix-SL, AdaSFL, the Fig. 11 ablations,
Section II's SFL-T / SFL-FM / SFL-BR) is a row of switches in
:data:`repro.algorithms.BUILTIN_ALGORITHMS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import regulate_batch_sizes, scale_to_bandwidth
from repro.core.divergence import (
    iid_distribution,
    kl_divergence,
    mixed_label_distribution,
)
from repro.core.regulation import tune_batch_sizes
from repro.core.selection import selection_priorities


@dataclass
class ControlContext:
    """Observable state handed to a control policy at the start of a round.

    Attributes:
        round_index: Zero-based communication-round counter.
        per_sample_durations: Estimated ``mu_i + beta_i`` per worker (s).
        label_distributions: ``(num_workers, num_classes)`` matrix of V_i.
        participation_counts: ``K_i`` per worker.
        bandwidth_budget: Estimated ingress budget ``B^h`` (same unit as
            ``bandwidth_per_sample`` times a batch size).
        bandwidth_per_sample: ``c``, ingress bandwidth occupied per sample
            at the global cut (Eq. 10).
        max_batch_size: ``D``, the default maximum batch size.
        base_batch_size: Identical batch size used by non-regulating baselines.
        rng: Round-specific random generator.
        worker_ids: Global worker id of every row in the dense arrays
            (``None`` when row indices *are* the global ids).  Stateful
            selection solvers key cross-round state on these so per-round
            candidate pools remap correctly between rounds.
    """

    round_index: int
    per_sample_durations: np.ndarray
    label_distributions: np.ndarray
    participation_counts: np.ndarray
    bandwidth_budget: float
    bandwidth_per_sample: float
    max_batch_size: int
    base_batch_size: int
    rng: np.random.Generator
    worker_ids: np.ndarray | None = None


@dataclass
class RoundPlan:
    """Decision of a control policy for one round.

    Attributes:
        selected: Sorted worker indices forming ``S^h``.
        batch_sizes: Mapping from selected worker id to its batch size ``d_i``.
        merged_kl: KL divergence of the planned merged label distribution.
        info: Free-form diagnostics (selection feasibility, GA stats, ...).
        depths: Per-worker cut depth into the bottom model, assigned by a
            split-point policy (``None`` under the uniform global cut).
    """

    selected: list[int]
    batch_sizes: dict[int, int]
    merged_kl: float = 0.0
    info: dict = field(default_factory=dict)
    depths: dict[int, int] | None = None

    @property
    def total_batch(self) -> int:
        """Total merged batch size of the round."""
        return int(sum(self.batch_sizes.values()))

    def remapped(self, ids: "np.ndarray") -> "RoundPlan":
        """Translate a candidate-local plan into global worker ids.

        Policies planning over a candidate subset see dense candidate-local
        arrays; ``ids[local]`` is the global id of candidate ``local``.
        ``ids`` is sorted ascending, so a sorted local selection stays
        sorted after remapping.
        """
        return RoundPlan(
            selected=[int(ids[local]) for local in self.selected],
            batch_sizes={
                int(ids[local]): batch
                for local, batch in self.batch_sizes.items()
            },
            merged_kl=self.merged_kl,
            info=dict(self.info, candidate_pool=int(len(ids))),
        )

    def with_depths(self, depths: dict[int, int]) -> "RoundPlan":
        """Copy of the plan with per-worker cut depths attached."""
        return RoundPlan(
            selected=list(self.selected),
            batch_sizes=dict(self.batch_sizes),
            merged_kl=self.merged_kl,
            info=dict(self.info),
            depths=dict(depths),
        )

    def to_dict(self) -> dict:
        """JSON-safe representation (batch-size keys become strings).

        Plans are normally transient, but the scheduler prefetches the
        *next* round's plan during the current round's aggregate window
        (cross-round pipelining); the engine then serialises it into the
        checkpoint so resume stays exact.  ``depths`` appears only when a
        split-point policy assigned them, so uniform checkpoints keep the
        historical format.
        """
        payload = {
            "selected": [int(w) for w in self.selected],
            "batch_sizes": {
                str(worker): int(batch)
                for worker, batch in self.batch_sizes.items()
            },
            "merged_kl": float(self.merged_kl),
            "info": dict(self.info),
        }
        if self.depths is not None:
            payload["depths"] = {
                str(worker): int(depth)
                for worker, depth in self.depths.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RoundPlan":
        """Inverse of :meth:`to_dict`."""
        depths = payload.get("depths")
        return cls(
            selected=[int(w) for w in payload["selected"]],
            batch_sizes={
                int(worker): int(batch)
                for worker, batch in payload["batch_sizes"].items()
            },
            merged_kl=float(payload.get("merged_kl", 0.0)),
            info=dict(payload.get("info", {})),
            depths=None if depths is None else {
                int(worker): int(depth) for worker, depth in depths.items()
            },
        )


class ControlModule:
    """Alg. 1 with every step behind a switch; satisfies ``ControlPolicy``.

    Args:
        solver: Worker-selection solver (see :mod:`repro.selection`); the
            default is the paper's GA.  Dropped when ``select`` is off, so
            the engine checkpoints solver state only for rows that select.
        kl_threshold: ``epsilon`` for the fine-tuning step.
        regulate: Eq. 9 batch-size regulation (otherwise every worker gets
            ``base_batch_size``).
        select: Eq. 10-13 worker selection (otherwise everyone participates).
        finetune: Eq. 14 Lagrangian fine-tuning plus bandwidth scaling.
        merge_features: The PS merges features before the top update
            (Eq. 16) instead of updating the top model per worker.
        aggregate_every_iteration: Aggregate bottom models after every
            local iteration (SplitFed) instead of once per round.
        identical_batch: The Fig. 11 "w/o BR" ablation: the round is planned
            as usual, then every selected worker trains at the mean of the
            Eq. 9 batch sizes.
    """

    def __init__(
        self,
        solver: "object | None" = None,
        *,
        kl_threshold: float = 0.05,
        regulate: bool = True,
        select: bool = True,
        finetune: bool = True,
        merge_features: bool = True,
        aggregate_every_iteration: bool = False,
        identical_batch: bool = False,
    ) -> None:
        self.kl_threshold = kl_threshold
        self.regulate = regulate
        self.select = select
        self.finetune = finetune
        self.merge_features = merge_features
        self.aggregate_every_iteration = aggregate_every_iteration
        self.identical_batch = identical_batch
        #: The engine serialises a stateful solver through its
        #: ``state_dict`` (see ``SplitTrainingEngine._engine_state``).
        self.solver = None
        if select:
            # Imported lazily: repro.selection imports repro.core, so a
            # module-level import here would be circular.
            from repro.selection.solvers import GASolver

            self.solver = solver if solver is not None else GASolver()

    def plan_round(self, context: ControlContext) -> RoundPlan:
        """Produce the worker set and batch-size configuration for one round."""
        num_workers = context.per_sample_durations.shape[0]
        target = iid_distribution(context.label_distributions)
        info: dict = {}

        # Lines 1-2: batch size regulation (Eq. 9).
        if self.regulate:
            regulated = regulate_batch_sizes(
                context.per_sample_durations, context.max_batch_size
            )
        else:
            regulated = np.full(num_workers, context.base_batch_size, dtype=np.int64)
        batch_sizes = regulated

        # Lines 3-5: priorities and solver-driven selection under the
        # bandwidth constraint (the default solver is the paper's GA).
        if self.select:
            from repro.selection.solvers import SelectionProblem

            selection = self.solver.solve(SelectionProblem(
                batch_sizes=batch_sizes,
                label_distributions=context.label_distributions,
                target_distribution=target,
                bandwidth_per_sample=context.bandwidth_per_sample,
                bandwidth_budget=context.bandwidth_budget,
                priorities=selection_priorities(context.participation_counts),
                rng=context.rng,
                worker_ids=context.worker_ids,
            ))
            selected = selection.selected
            info["feasible"] = selection.feasible
        else:
            selected = np.arange(num_workers)

        # Line 6: Lagrangian fine-tuning of batch sizes towards KL <= epsilon.
        if self.finetune:
            batch_sizes, solution = tune_batch_sizes(
                batch_sizes,
                selected,
                context.label_distributions,
                target,
                context.per_sample_durations,
                kl_threshold=self.kl_threshold,
                max_batch_size=context.max_batch_size,
            )
            if solution is not None:
                # False: no batch sizes in the box meet epsilon, and the
                # round trains at the least-KL ones instead.
                info["finetune_feasible"] = solution.feasible
            # Line 7: scale batch sizes to fill the bandwidth budget.
            batch_sizes = scale_to_bandwidth(
                batch_sizes,
                selected,
                context.bandwidth_per_sample,
                context.bandwidth_budget,
                context.max_batch_size,
            )

        phi = mixed_label_distribution(
            context.label_distributions, batch_sizes, selected
        )
        if self.identical_batch:
            # "w/o BR": the plan (and its merged KL) stands, but everyone
            # trains at the mean of the Eq. 9 sizes over the whole fleet.
            average = max(1, int(round(float(np.mean(regulated)))))
            batch_sizes = np.full(num_workers, average, dtype=np.int64)
            info["identical_batch"] = average
        return RoundPlan(
            selected=[int(w) for w in selected],
            batch_sizes={int(w): int(batch_sizes[w]) for w in selected},
            merged_kl=kl_divergence(phi, target),
            info=info,
        )
