"""Elastic rounds: over-selection, first-k-of-n aggregation and rejoin.

A synchronous round assumes every selected worker returns its update;
under churn that either stalls the round (stragglers) or fails it
(dropouts, dead executor processes).  Every round runs through the
:class:`ElasticController`, which makes it *elastic* instead:

* **over-selection** -- the planned cohort is padded to
  ``ceil(over_select_factor * K)`` workers (lowest participation first),
  so the expected number of survivors still matches the plan;
* **first-k-of-n aggregation** -- at the deadline the server aggregates
  whatever arrived; a round only yields no update when fewer than
  ``min_cohort_fraction`` of the planned cohort completed;
* **rejoin** -- a missing worker's late update is folded into a later
  round's aggregate, as ``current_global + delta``, as long as its
  staleness stays within ``rejoin_staleness_bound`` rounds.  The pending
  rejoin carries that delta (the update against the global model the
  worker started from), so nothing else can evict or overwrite it.

Which workers drop or straggle each round comes from the deterministic
:class:`~repro.simulation.churn.ChurnModel`; engine-level recovery from a
dead executor process reports real losses through
:meth:`ElasticController.record_death`.  The controller is pure parent-side
state and checkpoints with the engine, so elastic runs resume bit-exactly.

At the knobs' defaults (no dropout, no deadline, factor 1.0) nobody goes
missing and the round is the paper's synchronous aggregate, bit for bit;
only a dead executor process can then shrink the cohort, and the quorum
decides whether the survivors' aggregate is applied.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.churn import ChurnModel, RoundChurn


@dataclass
class ElasticRound:
    """Per-round elastic bookkeeping threaded through the stage bodies.

    Attributes:
        round_index: The round this state belongs to.
        planned: The (possibly over-selected) cohort the round started with.
        churn: The round's simulated churn draw.
        dropped: Workers whose update missed the round -- simulated churn
            plus any real executor deaths reported during the round.
        completed: Workers whose update arrived in time (it only enters
            the aggregate when they meet the quorum).
        rejoined: Workers whose *earlier* update was folded in this round.
        folded: Whether rejoin folding already ran (it runs once per round
            even when a policy aggregates every local iteration).
        no_update: Whether the round fell below the cohort quorum and
            applied no aggregate (to the global bottom, or the full model).
    """

    round_index: int
    planned: list[int]
    churn: RoundChurn
    dropped: list[int] = field(default_factory=list)
    completed: list[int] = field(default_factory=list)
    rejoined: list[int] = field(default_factory=list)
    folded: bool = False
    no_update: bool = False

    @property
    def dropout_rate(self) -> float:
        """Fraction of the planned cohort whose update missed the round."""
        if not self.planned:
            return 0.0
        return len(self.dropped) / len(self.planned)

    @property
    def effective_cohort(self) -> int:
        """Number of updates in the round's aggregate (completed + rejoined);
        ``0`` when the round missed the quorum and applied none."""
        if self.no_update:
            return 0
        return len(self.completed) + len(self.rejoined)


class ElasticController:
    """Round elasticity shared by the split and full-model engines."""

    def __init__(self, config, cluster=None) -> None:
        self.over_select_factor = float(config.over_select_factor)
        self.min_cohort_fraction = float(config.min_cohort_fraction)
        self.rejoin_staleness_bound = int(config.rejoin_staleness_bound)
        dropout_rate = config.dropout_rate
        class_rates = config.extras.get("device_dropout_rates")
        if class_rates and cluster is not None:
            # Per-device-class churn: a worker's dropout probability comes
            # from its device profile (e.g. {"jetson_tx2": 0.3}), falling
            # back to the scalar rate for unlisted classes.  Resolved
            # lazily per worker id so the cluster only materialises the
            # devices churn actually asks about.
            rates = {str(name): float(rate) for name, rate in class_rates.items()}
            base = float(config.dropout_rate)

            def dropout_rate(worker_id, _cluster=cluster, _rates=rates, _base=base):
                return _rates.get(_cluster[worker_id].profile.name, _base)

        self.churn = ChurnModel(
            dropout_rate=dropout_rate,
            straggler_deadline=config.straggler_deadline,
            rejoin_staleness_bound=config.rejoin_staleness_bound,
            seed=config.seed,
        )
        #: Missing workers awaiting rejoin:
        #: ``{worker_id: {"origin", "arrival", "weight", "delta"}}``, where
        #: ``delta`` is the late update minus the global model of round
        #: ``origin``; folding adds it to the *current* global.
        self.pending: dict[int, dict] = {}

    # -- planning -------------------------------------------------------------
    def min_cohort(self, planned_count: int) -> int:
        """Smallest completed cohort that still updates the global model."""
        return max(1, math.ceil(self.min_cohort_fraction * planned_count))

    def _backups(self, selected, pool, candidates, extra: int) -> list[int]:
        """Backup worker ids: lowest participation first, then lowest id."""
        if candidates is not None:
            universe = np.asarray(candidates, dtype=np.int64)
        else:
            universe = np.arange(len(pool), dtype=np.int64)
        chosen = {int(worker_id) for worker_id in selected}
        available = np.asarray(
            [wid for wid in universe if int(wid) not in chosen], dtype=np.int64
        )
        if available.size == 0:
            return []
        counts = pool.participation_counts(available)
        order = np.lexsort((available, counts))
        return [int(available[index]) for index in order[:extra]]

    def over_select(self, plan, pool, candidates, base_batch_size: int):
        """Pad a round plan to ``ceil(f * K)`` workers.

        Backups train at the base batch size (the policy never planned
        them, so there is no regulated size to reuse).  At factor 1.0 the
        plan is returned untouched, keeping neutral elasticity bit-exact.
        """
        from repro.core.controller import RoundPlan

        target = math.ceil(self.over_select_factor * len(plan.selected))
        extra = target - len(plan.selected)
        if extra <= 0:
            return plan
        backups = self._backups(plan.selected, pool, candidates, extra)
        if not backups:
            return plan
        batch_sizes = dict(plan.batch_sizes)
        for worker_id in backups:
            batch_sizes[worker_id] = int(base_batch_size)
        return RoundPlan(
            selected=sorted(list(plan.selected) + backups),
            batch_sizes=batch_sizes,
            merged_kl=plan.merged_kl,
            info=dict(plan.info, over_selected=backups),
        )

    # -- round lifecycle ------------------------------------------------------
    def begin_round(
        self, round_index: int, planned_ids, durations
    ) -> ElasticRound:
        """Draw the round's churn once, against the planned cohort.

        Called exactly once per round -- a death-recovery re-run reuses the
        same state, so the churn draw (and hence the trajectory of every
        healthy worker) does not depend on whether a process died.
        """
        ids = [int(worker_id) for worker_id in planned_ids]
        churn = self.churn.round_churn(round_index, ids, durations)
        return ElasticRound(
            round_index=round_index,
            planned=ids,
            churn=churn,
            dropped=list(churn.missing),
        )

    def record_death(self, round_state: ElasticRound, worker_ids) -> None:
        """Mark workers lost to a dead executor process as dropped; the
        round's aggregation bookkeeping starts over with its re-run."""
        lost = {int(worker_id) for worker_id in worker_ids}
        round_state.dropped = sorted(lost.union(round_state.dropped))
        round_state.completed, round_state.rejoined = [], []
        round_state.folded = round_state.no_update = False

    def apply_aggregate(
        self,
        round_state: ElasticRound,
        worker_ids,
        states,
        weights,
        global_state,
    ):
        """First-k-of-n filter plus rejoin folding for one aggregation.

        Returns the ``(states, weights)`` actually entering the aggregate,
        or ``None`` when the completed cohort misses the quorum (the round
        then leaves the global model unchanged; pending rejoins are kept
        for a later round).  A missing worker with a rejoin delay -- its
        local compute still happened in simulation -- becomes a pending
        rejoin holding its update as a delta against the global model.
        ``global_state()`` returns that model's state; it is called at most
        once, and only when a rejoin is recorded or folded.
        """
        reference = functools.cache(global_state)
        worker_ids = [int(worker_id) for worker_id in worker_ids]
        dropped = set(round_state.dropped)
        delays = round_state.churn.rejoin_delays
        completed, kept_states, kept_weights = [], [], []
        for worker_id, state, weight in zip(worker_ids, states, weights):
            if worker_id not in dropped:
                # A completed update supersedes any older pending rejoin.
                self.pending.pop(worker_id, None)
                completed.append(worker_id)
                kept_states.append(state)
                kept_weights.append(weight)
            elif worker_id in delays:
                self.pending[worker_id] = {
                    "origin": round_state.round_index,
                    "arrival": round_state.round_index + delays[worker_id],
                    "weight": float(weight),
                    "delta": {
                        key: np.asarray(state[key]) - np.asarray(reference()[key])
                        for key in state
                    },
                }
        round_state.completed = completed
        if len(completed) < self.min_cohort(len(round_state.planned)):
            round_state.no_update = True
            return None
        extra_states, extra_weights = self._fold_rejoins(round_state, reference)
        return kept_states + extra_states, kept_weights + extra_weights

    def _fold_rejoins(self, round_state: ElasticRound, reference):
        """Consume arrived rejoins once per round; discard the too-stale."""
        if round_state.folded:
            return [], []
        round_state.folded = True
        states, weights, rejoined = [], [], []
        for worker_id in sorted(self.pending):
            entry = self.pending[worker_id]
            if entry["arrival"] > round_state.round_index:
                continue
            del self.pending[worker_id]
            staleness = round_state.round_index - entry["origin"]
            if staleness > self.rejoin_staleness_bound:
                continue
            states.append({
                key: np.asarray(reference()[key]) + delta
                for key, delta in entry["delta"].items()
            })
            weights.append(float(entry["weight"]))
            rejoined.append(worker_id)
        round_state.rejoined = rejoined
        return states, weights

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        """Pending rejoins, each with its delta."""
        return {
            "pending": [
                [
                    int(worker_id),
                    int(entry["origin"]),
                    int(entry["arrival"]),
                    float(entry["weight"]),
                    dict(entry["delta"]),
                ]
                for worker_id, entry in sorted(self.pending.items())
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        Earlier checkpoints kept the deltas in a ``"cache"`` of every cohort
        member's ``[worker_id, delta]``; a pending rejoin takes its delta
        from there, and one whose delta is missing (it was evicted) is
        dropped, since it could never have been folded in.
        """
        cached = {
            int(worker_id): delta
            for worker_id, delta in (state.get("cache") or {}).get("entries", [])
        }
        self.pending = {}
        for worker_id, origin, arrival, weight, *delta in state.get("pending", []):
            delta = delta[0] if delta else cached.get(int(worker_id))
            if delta is None:
                continue
            self.pending[int(worker_id)] = {
                "origin": int(origin),
                "arrival": int(arrival),
                "weight": float(weight),
                "delta": {key: np.asarray(value) for key, value in delta.items()},
            }

