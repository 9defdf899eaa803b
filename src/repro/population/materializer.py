"""On-demand reconstruction of live workers from registry rows."""

from __future__ import annotations

from repro.core.worker import SplitWorker
from repro.data.dataset import Dataset
from repro.population.registry import WorkerRegistry

#: Per-worker seed offset: worker ``i`` samples from ``seed + 1000 + i``,
#: whenever and however often it is materialised.
WORKER_SEED_OFFSET = 1000


class Materializer:
    """Rebuilds a live :class:`SplitWorker` from its registry row.

    Construction is a pure function of the row -- its shard, the
    ``seed + 1000 + worker_id`` RNG stream, the configured optimiser
    hyper-parameters -- followed by the row's mutable state (participation
    count and, when the worker has trained before, its sampling state).
    A freshly constructed loader whose state is overwritten by
    ``load_state_dict`` is bit-identical to one that lived through the
    rounds, so materialisation is invisible to the training trajectory.
    """

    def __init__(
        self,
        registry: WorkerRegistry,
        train_dataset: Dataset,
        num_classes: int,
        seed: int,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = 5.0,
    ) -> None:
        self.registry = registry
        self._train = train_dataset
        self._num_classes = num_classes
        self._seed = seed
        self._momentum = momentum
        self._weight_decay = weight_decay
        self._max_grad_norm = max_grad_norm
        self.materializations = 0

    def materialize(self, worker_id: int) -> SplitWorker:
        """Reconstruct the live worker for one registry row."""
        worker_id = int(worker_id)
        worker = self.build(worker_id)
        worker.participation_count = self.registry.participation_count(worker_id)
        loader_state = self.registry.loader_state(worker_id)
        if loader_state is not None:
            worker.loader.load_state_dict(loader_state)
        self.materializations += 1
        return worker

    def build(self, worker_id: int) -> SplitWorker:
        """The worker as it was registered, before any round."""
        return SplitWorker(
            worker_id=worker_id,
            dataset=self._train.subset(self.registry.shard_indices(worker_id)),
            num_classes=self._num_classes,
            seed=self._seed + WORKER_SEED_OFFSET + worker_id,
            momentum=self._momentum,
            weight_decay=self._weight_decay,
            max_grad_norm=self._max_grad_norm,
        )

    def release(self, worker: SplitWorker) -> None:
        """Fold a live worker's mutable state back into its registry row."""
        self.registry.store_worker_state(
            worker.worker_id,
            worker.participation_count,
            worker.loader.state_dict(),
        )


class HeldWorkers(Materializer):
    """Materialises hand-built workers: worker ``i`` is always the same
    object, reset to the state it was handed over in."""

    def __init__(self, registry: WorkerRegistry, workers: list[SplitWorker]) -> None:
        self.registry = registry
        self.materializations = 0
        self._workers = workers
        self._initial = [worker.state_dict() for worker in workers]

    def build(self, worker_id: int) -> SplitWorker:
        worker = self._workers[worker_id]
        worker.load_state_dict(self._initial[worker_id])
        return worker
