"""Worker pools: the engines' view of a registered population.

A :class:`WorkerPool` answers the two questions a training engine asks:

* *planning*: metadata columns (label distributions, participation counts)
  and, optionally, a per-round candidate subset to plan over -- no live
  workers are needed to plan a round;
* *execution*: ``checkout`` live workers for the round's selected cohort
  and ``release`` them when the round ends.

:class:`EagerWorkerPool` wraps the existing eagerly-built worker list
(checkout/release are no-ops and checkpoints keep today's list format).
:class:`LazyWorkerPool` materialises workers on demand from a
:class:`~repro.population.registry.WorkerRegistry`, so peak resident worker
state is bounded by the selected cohort rather than the registered
population.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable

import numpy as np

from repro.core.worker import SplitWorker
from repro.population.materializer import Materializer
from repro.population.registry import WorkerRegistry, sample_distinct
from repro.utils.rng import spawned_rng

#: Seed offset of the per-round candidate-sampling streams, separating them
#: from the engine round streams (9173 / 40617) and worker streams (1000+).
CANDIDATE_SEED_OFFSET = 77003


class WorkerPool(abc.ABC):
    """Engine-facing interface over a registered worker population."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of registered workers."""

    # -- planning columns ----------------------------------------------------
    @abc.abstractmethod
    def label_distributions(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Label-distribution rows for ``ids`` (all workers if ``None``)."""

    @abc.abstractmethod
    def participation_counts(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Participation counts ``K_i`` for ``ids`` (all workers if ``None``)."""

    def plan_candidates(self, round_index: int) -> np.ndarray | None:
        """Sorted candidate ids to plan the round over, or ``None`` for all."""
        return None

    # -- cohort lifecycle ----------------------------------------------------
    @abc.abstractmethod
    def checkout(self, ids: Iterable[int]) -> list[SplitWorker]:
        """Live workers for the round's selected cohort, in ``ids`` order."""

    def release(self, workers: list[SplitWorker]) -> None:
        """Return a cohort at round end (persist mutable state)."""

    # -- introspection + checkpointing ---------------------------------------
    def live_worker_count(self) -> int:
        """Workers currently materialised in memory."""
        return len(self)

    def stats(self) -> dict:
        """Free-form population statistics (for benchmarks and tests)."""
        return {"registered": len(self), "live": self.live_worker_count()}

    @property
    def eager_workers(self) -> list[SplitWorker]:
        """The persistent worker list, where one exists."""
        raise RuntimeError(
            "this worker pool has no persistent worker list; use checkout()"
        )

    @abc.abstractmethod
    def workers_state(self):
        """Checkpoint payload for the population's mutable state."""

    @abc.abstractmethod
    def load_workers_state(self, state) -> None:
        """Restore a payload produced by :meth:`workers_state`."""


def as_worker_pool(workers) -> WorkerPool:
    """Adapt a plain worker list (or pass through a pool) for an engine."""
    if isinstance(workers, WorkerPool):
        return workers
    return EagerWorkerPool(list(workers))


class EagerWorkerPool(WorkerPool):
    """Wraps the eagerly-constructed worker list the engines always used."""

    def __init__(self, workers: list[SplitWorker]) -> None:
        self._workers = workers
        self._label_matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._workers)

    def label_distributions(self, ids: np.ndarray | None = None) -> np.ndarray:
        if self._label_matrix is None:
            self._label_matrix = np.stack(
                [worker.local_label_distribution() for worker in self._workers]
            )
        if ids is None:
            return self._label_matrix
        return self._label_matrix[np.asarray(ids, dtype=np.int64)]

    def participation_counts(self, ids: np.ndarray | None = None) -> np.ndarray:
        counts = np.asarray(
            [worker.participation_count for worker in self._workers],
            dtype=np.float64,
        )
        if ids is None:
            return counts
        return counts[np.asarray(ids, dtype=np.int64)]

    def checkout(self, ids: Iterable[int]) -> list[SplitWorker]:
        return [self._workers[int(worker_id)] for worker_id in ids]

    @property
    def eager_workers(self) -> list[SplitWorker]:
        return self._workers

    def workers_state(self) -> list[dict]:
        return [worker.state_dict() for worker in self._workers]

    def load_workers_state(self, state) -> None:
        if not isinstance(state, list):
            raise ValueError(
                "checkpoint holds a lazy population registry but the engine "
                "runs with population='eager'"
            )
        if len(state) != len(self._workers):
            raise ValueError(
                f"checkpoint has {len(state)} workers, engine has "
                f"{len(self._workers)}"
            )
        for worker, worker_state in zip(self._workers, state):
            worker.load_state_dict(worker_state)


class LazyWorkerPool(WorkerPool):
    """Materialises the round's cohort on demand from a registry.

    Live state is bounded by the checked-out cohort: ``checkout`` rebuilds
    workers through the :class:`Materializer` (restoring sampling state and
    participation from their registry rows), and ``release`` folds the
    mutable state back into the rows and drops the live objects.  A worker
    carries no bottom model between rounds: the engine's install gives every
    checked-out worker the global one before it computes anything.

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
        self.peak_live_workers = 0

    def __len__(self) -> int:
        return len(self.registry)

    # -- planning columns ----------------------------------------------------
    def label_distributions(self, ids: np.ndarray | None = None) -> np.ndarray:
        return self.registry.label_distributions(ids)

    def participation_counts(self, ids: np.ndarray | None = None) -> np.ndarray:
        counts = self.registry.participation_counts(ids)
        if self._live:
            # A relaxed scheduler may plan the next round inside the current
            # aggregate window, before the cohort is released; live workers
            # override their (stale) registry rows.
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
        count = self.candidates_per_round
        if count <= 0 or count >= len(self.registry):
            return None
        rng = spawned_rng(self._candidate_seed, round_index)
        return sample_distinct(rng, len(self.registry), count)

    # -- cohort lifecycle ----------------------------------------------------
    def checkout(self, ids: Iterable[int]) -> list[SplitWorker]:
        workers = []
        for worker_id in ids:
            worker_id = int(worker_id)
            worker = self._live.get(worker_id)
            if worker is None:
                worker = self.materializer.materialize(worker_id)
                self._live[worker_id] = worker
            workers.append(worker)
        self.peak_live_workers = max(self.peak_live_workers, len(self._live))
        return workers

    def release(self, workers: list[SplitWorker]) -> None:
        for worker in workers:
            self.materializer.release(worker)
            self._live.pop(worker.worker_id, None)

    # -- introspection + checkpointing ---------------------------------------
    def live_worker_count(self) -> int:
        return len(self._live)

    def stats(self) -> dict:
        return {
            "registered": len(self.registry),
            "live": len(self._live),
            "peak_live": self.peak_live_workers,
            "materializations": self.materializer.materializations,
            "label_shards_built": self.registry.built_label_shards,
        }

    def workers_state(self) -> dict:
        # Defensive: a checkpoint taken with a cohort still live (engines
        # release at round end, so normally none) folds the live state into
        # the rows without dropping the live objects.
        for worker in self._live.values():
            self.materializer.release(worker)
        return {"format": "population", "registry": self.registry.state_dict()}

    def load_workers_state(self, state) -> None:
        """Restore the registry rows; the ``"cache"`` key of earlier
        checkpoints (a delta cache nothing read) is ignored."""
        if not isinstance(state, dict) or state.get("format") != "population":
            raise ValueError(
                "checkpoint holds an eager worker list but the engine runs "
                "with population='lazy'"
            )
        self.registry.load_state_dict(state["registry"])
        self._live.clear()
