"""Mini-batch loading."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import get_rng_state, new_rng, set_rng_state


class BatchLoader:
    """Cycling mini-batch sampler over a worker's local shard.

    Unlike an epoch-based loader, federated workers draw a fixed number of
    mini-batches per round regardless of shard size, so this loader samples
    batches with replacement across rounds: it shuffles the shard, walks it
    sequentially, and reshuffles when exhausted.  Batch size may change
    between calls (batch size regulation reconfigures it every round).
    """

    def __init__(self, dataset: Dataset, seed: int = 0) -> None:
        self.dataset = dataset
        self._rng = new_rng(seed)
        self._order = self._rng.permutation(len(dataset))
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.dataset)

    def next_indices(self, batch_size: int) -> np.ndarray:
        """Draw the next mini-batch's shard indices without materialising it.

        Used by executors that hold a copy of the shard elsewhere (worker
        processes): the sampling state advances here, in the checkpointed
        loader, and only the indices travel.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        size = min(batch_size, len(self.dataset))
        stop = self._cursor + size
        if stop <= len(self._order):
            # The whole draw lies inside the current shuffle: one slice.
            indices = self._order[self._cursor:stop].astype(np.int64)
            self._cursor = stop
            return indices
        # The draw crosses a reshuffle: what is left of the current order,
        # then the head of the next (``size`` never exceeds one order).
        tail = self._order[self._cursor:]
        self._order = self._rng.permutation(len(self.dataset))
        self._cursor = size - len(tail)
        return np.concatenate((tail, self._order[:self._cursor]), dtype=np.int64)

    def next_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the next ``(data, targets)`` mini-batch of the given size."""
        indices = self.next_indices(batch_size)
        return self.dataset.data[indices], self.dataset.targets[indices]

    def state_dict(self) -> dict:
        """Sampling state (RNG, shuffle order, cursor) for checkpointing."""
        return {
            "rng": get_rng_state(self._rng),
            "order": self._order.copy(),
            "cursor": self._cursor,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore sampling state captured by :meth:`state_dict`."""
        order = np.asarray(state["order"], dtype=np.int64)
        if order.shape != self._order.shape:
            raise ValueError(
                f"loader order length {order.shape[0]} does not match the "
                f"dataset size {self._order.shape[0]}"
            )
        set_rng_state(self._rng, state["rng"])
        self._order = order.copy()
        self._cursor = int(state["cursor"])

    def iter_eval_batches(self, batch_size: int):
        """Iterate once over the dataset in order (for evaluation)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        for start in range(0, len(self.dataset), batch_size):
            stop = start + batch_size
            yield self.dataset.data[start:stop], self.dataset.targets[start:stop]
