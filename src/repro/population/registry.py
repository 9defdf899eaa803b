"""Sharded columnar worker registry.

A :class:`WorkerRegistry` stores each *registered* worker as a compact
metadata row -- shard descriptor, label-distribution vector, participation
history and (for workers that have actually trained) the mini-batch
sampling state -- instead of a live :class:`~repro.core.worker.SplitWorker`
object.  Rows are grouped into fixed-size shards and the expensive column
(the per-worker label distribution) is materialised one shard at a time,
only for rows a round actually touches, so registering a million workers
costs a few dense numpy allocations rather than a million model copies.

Shard descriptors come from a :class:`ShardSource`:

* :class:`PartitionShards` wraps the index lists produced by
  :func:`repro.data.partition.partition_dataset` (the default: the same
  shards at either residency).
* :class:`SampledShards` derives each worker's shard lazily from a
  per-worker RNG stream (``spawned_rng``), so shard construction is O(1)
  in the registered population -- the mode used for million-worker
  registries where partitioning would be O(N) and yield empty shards.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.partition import label_distribution
from repro.utils.rng import spawned_rng

#: Seed offset separating the shard-sampling streams of :class:`SampledShards`
#: from every other stream derived from ``config.seed``.
SHARD_SEED_OFFSET = 614657


def sample_distinct(
    rng: np.random.Generator, population: int, count: int
) -> np.ndarray:
    """Draw ``count`` distinct ids from ``range(population)``, sorted.

    Rejection sampling keeps the cost O(count) instead of the O(population)
    a full permutation would pay, which is what keeps per-round planning
    flat as the registered population grows to millions.
    """
    if count >= population:
        return np.arange(population, dtype=np.int64)
    seen: set[int] = set()
    picked: list[int] = []
    while len(picked) < count:
        draws = rng.integers(0, population, size=2 * (count - len(picked)))
        for value in draws:
            value = int(value)
            if value not in seen:
                seen.add(value)
                picked.append(value)
                if len(picked) == count:
                    break
    return np.sort(np.asarray(picked, dtype=np.int64))


class ShardSource(abc.ABC):
    """Deterministic mapping from worker id to its data-shard indices."""

    #: Short name recorded in registry state for sanity checks.
    kind: str = "abstract"

    @abc.abstractmethod
    def shard_indices(self, worker_id: int) -> np.ndarray:
        """Train-set indices of the worker's local shard."""

    def num_samples(self, worker_id: int) -> int:
        """Shard size (defaults to materialising the indices)."""
        return int(self.shard_indices(worker_id).shape[0])


class PartitionShards(ShardSource):
    """Shards taken verbatim from :func:`partition_dataset` output.

    The shards are ``int64`` index arrays, held as given: the data plane
    (:func:`~repro.api.components.build_components`) converts them once for
    every session of its key.
    """

    kind = "partition"

    def __init__(self, shards: list[np.ndarray]) -> None:
        self._shards = list(shards)

    def __len__(self) -> int:
        return len(self._shards)

    def shard_indices(self, worker_id: int) -> np.ndarray:
        return self._shards[worker_id]

    def num_samples(self, worker_id: int) -> int:
        return int(self._shards[worker_id].shape[0])


class SampledShards(ShardSource):
    """Per-worker shards drawn lazily from independent RNG streams.

    Worker ``i``'s shard is a sorted, duplicate-free sample of the train
    set drawn from ``spawned_rng(seed + SHARD_SEED_OFFSET, i)``; no state
    is kept per worker, so a million-worker registry costs nothing until a
    worker is actually materialised.
    """

    kind = "sampled"

    def __init__(self, train_size: int, samples_per_worker: int, seed: int = 0) -> None:
        if train_size <= 0:
            raise ValueError("train_size must be positive")
        if samples_per_worker <= 0:
            raise ValueError("samples_per_worker must be positive")
        self.train_size = train_size
        self.samples_per_worker = min(samples_per_worker, train_size)
        self._seed = seed + SHARD_SEED_OFFSET

    def shard_indices(self, worker_id: int) -> np.ndarray:
        rng = spawned_rng(self._seed, worker_id)
        picked = rng.permutation(self.train_size)[: self.samples_per_worker]
        return np.sort(picked.astype(np.int64))

    def num_samples(self, worker_id: int) -> int:
        return self.samples_per_worker


class WorkerRegistry:
    """Columnar store of per-worker metadata rows, sharded by worker id.

    Columns:

    * participation history -- a dense int64 array (8 bytes/worker), updated
      when a materialised worker is released;
    * label-distribution vectors -- built one registry shard at a time, on
      first access to any row in the shard;
    * sampling state -- :class:`~repro.data.loader.BatchLoader` state dicts,
      kept only for workers that have actually been materialised (sparse).

    Checkpoints serialise the sparse columns only (participation as a
    ``{id: count}`` mapping over non-zero rows), so checkpoint size scales
    with the number of *participants*, not the registered population.
    """

    def __init__(
        self,
        num_workers: int,
        num_classes: int,
        targets: np.ndarray,
        source: ShardSource,
        shard_size: int = 4096,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.num_workers = num_workers
        self.num_classes = num_classes
        self.shard_size = shard_size
        self.source = source
        self._targets = np.asarray(targets)
        self._participation = np.zeros(num_workers, dtype=np.int64)
        self._loader_states: dict[int, dict] = {}
        self._label_shards: dict[int, np.ndarray] = {}
        self._label_built: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.num_workers

    # -- shard descriptors ---------------------------------------------------
    def _check_id(self, worker_id: int) -> int:
        worker_id = int(worker_id)
        if not 0 <= worker_id < self.num_workers:
            raise IndexError(
                f"worker id {worker_id} outside registry of {self.num_workers}"
            )
        return worker_id

    def shard_indices(self, worker_id: int) -> np.ndarray:
        """Train-set indices of the worker's data shard."""
        return self.source.shard_indices(self._check_id(worker_id))

    def num_samples(self, worker_id: int) -> int:
        """Size of the worker's data shard."""
        return self.source.num_samples(self._check_id(worker_id))

    # -- label distributions -------------------------------------------------
    def _label_rows(self, shard_id: int, offsets: np.ndarray) -> np.ndarray:
        """Registry shard ``shard_id``'s label-distribution rows, with the
        rows at ``offsets`` built.

        Rows live in per-shard arrays but are filled individually, once
        each: a candidate pool scattered over a million-row registry
        touches a few rows in many shards, and building whole shards for
        those would put an O(shard_size) factor back into every round.
        """
        rows = self._label_shards.get(shard_id)
        if rows is None:
            start = shard_id * self.shard_size
            stop = min(start + self.shard_size, self.num_workers)
            rows = np.empty((stop - start, self.num_classes), dtype=np.float64)
            self._label_shards[shard_id] = rows
            self._label_built[shard_id] = np.zeros(stop - start, dtype=bool)
        built = self._label_built[shard_id]
        missing = np.unique(offsets[~built[offsets]])
        for offset in missing.tolist():
            rows[offset] = label_distribution(
                self._targets,
                self.source.shard_indices(shard_id * self.shard_size + offset),
                self.num_classes,
            )
        built[missing] = True
        return rows

    def label_distributions(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Label-distribution rows ``V_i`` for ``ids`` (all rows if ``None``).

        The ids are checked at once and read with one ``take`` per registry
        shard they touch; only rows never read before are built.
        """
        if ids is None:
            ids = np.arange(self.num_workers, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        outside = np.flatnonzero((ids < 0) | (ids >= self.num_workers))
        if outside.size:
            self._check_id(ids[outside[0]])
        out = np.empty((ids.shape[0], self.num_classes), dtype=np.float64)
        if not ids.size:
            return out
        shard_ids = ids // self.shard_size
        order = np.argsort(shard_ids, kind="stable")
        bounds = np.flatnonzero(np.diff(shard_ids[order])) + 1
        for positions in np.split(order, bounds):
            shard_id = int(shard_ids[positions[0]])
            offsets = ids[positions] - shard_id * self.shard_size
            out[positions] = self._label_rows(shard_id, offsets).take(offsets, axis=0)
        return out

    @property
    def built_label_shards(self) -> int:
        """How many registry shards have materialised label rows."""
        return len(self._label_shards)

    # -- participation + sampling state --------------------------------------
    def participation_counts(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Participation column ``K_i`` (float64 copy, full or row subset)."""
        if ids is None:
            return self._participation.astype(np.float64)
        return self._participation[np.asarray(ids, dtype=np.int64)].astype(np.float64)

    def participation_count(self, worker_id: int) -> int:
        """Participation count of one worker."""
        return int(self._participation[self._check_id(worker_id)])

    def loader_state(self, worker_id: int) -> dict | None:
        """Stored sampling state, or ``None`` for a never-materialised worker."""
        return self._loader_states.get(self._check_id(worker_id))

    def store_worker_state(
        self, worker_id: int, participation_count: int, loader_state: dict
    ) -> None:
        """Fold a released worker's mutable state back into its row."""
        worker_id = self._check_id(worker_id)
        self._participation[worker_id] = int(participation_count)
        self._loader_states[worker_id] = loader_state

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Sparse row state: participants only, not the registered population."""
        nonzero = np.flatnonzero(self._participation)
        return {
            "num_workers": self.num_workers,
            "source_kind": self.source.kind,
            "participation": {
                str(int(wid)): int(self._participation[wid]) for wid in nonzero
            },
            "loaders": {
                str(wid): state for wid, state in self._loader_states.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore rows captured by :meth:`state_dict`.

        The ``"depths"`` column of earlier checkpoints (each worker's last
        policy-assigned cut, which nothing read) is ignored.
        """
        if int(state["num_workers"]) != self.num_workers:
            raise ValueError(
                f"checkpoint registry has {state['num_workers']} workers, "
                f"registry has {self.num_workers}"
            )
        self._participation[:] = 0
        for wid, count in state.get("participation", {}).items():
            self._participation[self._check_id(int(wid))] = int(count)
        self._loader_states = {
            self._check_id(int(wid)): loader_state
            for wid, loader_state in state.get("loaders", {}).items()
        }
