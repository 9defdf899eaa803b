"""The worker pool: the engines' view of a registered population.

Planning reads metadata columns (label distributions, participation
counts) and, optionally, a per-round candidate subset -- no live worker is
needed to plan a round.  Execution checks the selected cohort out as live
workers.  Every registered worker is a
:class:`~repro.population.registry.WorkerRegistry` row that a
:class:`~repro.population.materializer.Materializer` builds into a live
worker on first checkout.  A built worker stays live, so live state grows
with the distinct participants, never with the registered population.
The pool checkpoints the rows alone, live workers folded in.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.worker import SplitWorker
from repro.data.loader import check_loader_state
from repro.population.materializer import HeldWorkers, Materializer
from repro.population.registry import (
    PartitionShards,
    WorkerRegistry,
    sample_distinct,
)
from repro.utils.rng import spawned_rng

#: Seed offset of the per-round candidate-sampling streams, separating them
#: from the engine round streams (9173 / 40617) and worker streams (1000+).
CANDIDATE_SEED_OFFSET = 77003


class WorkerPool:
    """Materialises the round's cohort on demand from a registry.

    A worker carries no bottom model between rounds (the engine's install
    gives every checked-out worker the global one), so a row holds all a
    returning worker needs: its sampling state and participation count.

    When ``candidates_per_round`` is positive, planning happens over a
    deterministic per-round candidate subset drawn from
    ``spawned_rng(seed + CANDIDATE_SEED_OFFSET, round_index)``, keeping
    per-round planning cost flat in the registered population.
    """

    def __init__(
        self,
        registry: WorkerRegistry,
        materializer: Materializer,
        candidates_per_round: int = 0,
        seed: int = 0,
    ) -> None:
        if candidates_per_round < 0:
            raise ValueError("candidates_per_round must be non-negative")
        self.registry = registry
        self.materializer = materializer
        self.candidates_per_round = candidates_per_round
        self._candidate_seed = seed + CANDIDATE_SEED_OFFSET
        self._live: dict[int, SplitWorker] = {}

    @classmethod
    def of_workers(cls, workers: list[SplitWorker]) -> "WorkerPool":
        """A pool over hand-built workers (``worker_id`` = list position),
        all live from the start; the registry reads their labels from the
        concatenation of their shards' labels."""
        workers = list(workers)
        if not workers:
            raise ValueError("a worker pool needs at least one worker")
        for index, worker in enumerate(workers):
            if worker.worker_id != index:
                raise ValueError(
                    f"worker at position {index} has worker_id "
                    f"{worker.worker_id}; a pool's worker ids are its positions"
                )
        sizes = [len(worker.dataset) for worker in workers]
        starts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
        registry = WorkerRegistry(
            num_workers=len(workers),
            num_classes=workers[0].num_classes,
            targets=np.concatenate(
                [worker.dataset.targets for worker in workers]
            ).astype(np.int64),
            source=PartitionShards([
                np.arange(start, start + size)
                for start, size in zip(starts, sizes)
            ]),
        )
        pool = cls(registry, HeldWorkers(registry, workers))
        pool._live = dict(enumerate(workers))
        return pool

    def __len__(self) -> int:
        return len(self.registry)

    # -- planning columns ----------------------------------------------------
    def label_distributions(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Label-distribution rows for ``ids`` (all workers if ``None``)."""
        return self.registry.label_distributions(ids)

    def participation_counts(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Participation counts ``K_i`` for ``ids`` (all workers if ``None``)."""
        counts = self.registry.participation_counts(ids)
        if self._live:
            # Live workers count in place; their registry rows are stale
            # until the worker is folded back (at release or checkpoint).
            if ids is None:
                for worker_id, worker in self._live.items():
                    counts[worker_id] = worker.participation_count
            else:
                positions = {
                    int(worker_id): index for index, worker_id in enumerate(ids)
                }
                for worker_id, worker in self._live.items():
                    index = positions.get(worker_id)
                    if index is not None:
                        counts[index] = worker.participation_count
        return counts

    def plan_candidates(self, round_index: int) -> np.ndarray | None:
        """Sorted candidate ids to plan the round over, or ``None`` for all."""
        count = self.candidates_per_round
        if count <= 0 or count >= len(self.registry):
            return None
        rng = spawned_rng(self._candidate_seed, round_index)
        return sample_distinct(rng, len(self.registry), count)

    # -- cohort lifecycle ----------------------------------------------------
    def checkout(self, ids: Iterable[int]) -> list[SplitWorker]:
        """Live workers for the round's selected cohort, in ``ids`` order."""
        workers = []
        for worker_id in ids:
            worker_id = int(worker_id)
            worker = self._live.get(worker_id)
            if worker is None:
                worker = self.materializer.materialize(worker_id)
                self._live[worker_id] = worker
            workers.append(worker)
        return workers

    def release(self, workers: list[SplitWorker]) -> None:
        """Fold ``workers``' state into their rows and drop them; the next
        checkout builds them again from the rows.  The round never calls
        this: it is the explicit fold-and-drop primitive."""
        for worker in workers:
            self.materializer.release(worker)
            self._live.pop(worker.worker_id, None)

    @property
    def workers(self) -> list[SplitWorker]:
        """Every worker, live, in id order (materialises the untouched
        ones, so only for a population that fits in memory)."""
        return self.checkout(range(len(self)))

    # -- introspection + checkpointing ---------------------------------------
    def live_worker_count(self) -> int:
        """Workers currently materialised in memory."""
        return len(self._live)

    def stats(self) -> dict:
        """Population statistics (for benchmarks and tests)."""
        return {
            "registered": len(self.registry),
            "live": len(self._live),
            "materializations": self.materializer.materializations,
            "label_shards_built": self.registry.built_label_shards,
        }

    def workers_state(self) -> dict:
        """Checkpoint payload: the registry rows, live workers folded in
        (and kept live)."""
        for worker in self._live.values():
            self.materializer.release(worker)
        return {"format": "population", "registry": self.registry.state_dict()}

    def load_workers_state(self, state) -> None:
        """Restore the registry rows; live workers re-materialise from them.

        Sampling rows are validated against their shards here, not when a
        worker next materialises.  A worker-state list (checkpoints of the
        retired all-live pool) folds into rows: a worker that never
        participated never drew a batch, so only participants get one, as
        a fresh save writes them.  The ``"cache"`` key of earlier
        checkpoints (a delta cache nothing read) is ignored.
        """
        if isinstance(state, list):
            rows = {str(worker_id): row for worker_id, row in enumerate(state)
                    if row["participation_count"]}
            state = {"registry": {
                "num_workers": len(state),
                "participation": {worker_id: int(row["participation_count"])
                                  for worker_id, row in rows.items()},
                "loaders": {worker_id: row["loader"]
                            for worker_id, row in rows.items()},
            }}
        self.registry.load_state_dict(state["registry"])
        for worker_id, loader_state in state["registry"].get("loaders", {}).items():
            check_loader_state(loader_state, self.registry.num_samples(int(worker_id)))
        self._live.clear()
