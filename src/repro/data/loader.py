"""Mini-batch loading."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, Shard, as_shard
from repro.utils.rng import get_rng_state, new_rng, set_rng_state


def check_loader_state(state: dict, size: int) -> tuple[np.ndarray, int]:
    """The ``(order, cursor)`` of a :class:`BatchLoader` state over ``size``
    shard positions.  Anything but a permutation of the positions and a
    cursor in ``[0, size]`` would draw short batches or another worker's
    rows of the shared source, and raises ``ValueError``."""
    order = np.asarray(state["order"], dtype=np.int64)
    if order.shape != (size,):
        raise ValueError(
            f"loader order length {order.shape[0] if order.ndim else 0} "
            f"does not match the dataset size {size}"
        )
    if size and (order.min() < 0 or order.max() >= size
                 or not np.all(np.bincount(order, minlength=size) == 1)):
        raise ValueError(
            f"loader order is not a permutation of the {size} shard positions"
        )
    cursor = int(state["cursor"])
    if not 0 <= cursor <= size:
        raise ValueError(f"loader cursor {cursor} is outside [0, {size}]")
    return order, cursor


class BatchLoader:
    """Cycling mini-batch sampler over a worker's local shard.

    Unlike an epoch-based loader, federated workers draw a fixed number of
    mini-batches per round regardless of shard size, so this loader samples
    batches with replacement across rounds: it shuffles the shard, walks it
    sequentially, and reshuffles when exhausted.  Batch size may change
    between calls (batch size regulation reconfigures it every round).

    The shuffle order and cursor -- the checkpointed state -- are shard
    *positions*; every draw hands out the *source rows* at those positions
    (:class:`~repro.data.dataset.Shard`).  A plain ``Dataset`` is loaded as
    the shard of all its rows, whose positions and rows coincide.

    :meth:`next_indices_many` draws several consecutive mini-batches at
    once, with exactly the rows and the final state of drawing them one
    :meth:`next_indices` call at a time.
    """

    def __init__(self, dataset: Dataset | Shard, seed: int = 0) -> None:
        self.dataset = as_shard(dataset)
        self._rng = new_rng(seed)
        self._order = self._rng.permutation(len(self.dataset))
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.dataset)

    def next_indices(self, batch_size: int) -> np.ndarray:
        """Draw the next mini-batch's source rows without gathering it.

        Used by executors that gather the samples elsewhere (stacked
        kernels, worker processes reading the same source array): the
        sampling state advances here, in the checkpointed loader, and only
        the rows travel.
        """
        return self.next_indices_many(batch_size, 1)[0]

    def next_indices_many(self, batch_size: int, count: int) -> np.ndarray:
        """The rows of ``count`` consecutive :meth:`next_indices` calls.

        Returns a fresh ``(count, min(batch_size, len(self)))`` array whose
        row ``k`` is what the ``k``-th call would have drawn; the sampling
        state afterwards (reshuffles, cursor, RNG) is the one those calls
        leave.  An executor that knows how many forwards follow an install
        draws a worker's whole round with one call.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        size = min(batch_size, len(self.dataset))
        positions = np.empty(count * size, dtype=np.int64)
        filled = 0
        while True:
            # Walk the current order; reshuffle only when a draw needs a
            # position past its end, as one call at a time would.
            take = min(len(positions) - filled, len(self._order) - self._cursor)
            positions[filled:filled + take] = (
                self._order[self._cursor:self._cursor + take]
            )
            filled += take
            self._cursor += take
            if filled == len(positions):
                break
            self._order = self._rng.permutation(len(self.dataset))
            self._cursor = 0
        return self.dataset.rows[positions].reshape(count, size)

    def next_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the next ``(data, targets)`` mini-batch of the given size."""
        rows = self.next_indices(batch_size)
        source = self.dataset.source
        return source.gather(rows), source.targets[rows]

    def state_dict(self) -> dict:
        """Sampling state (RNG, shuffle order, cursor) for checkpointing."""
        return {
            "rng": get_rng_state(self._rng),
            "order": self._order.copy(),
            "cursor": self._cursor,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore sampling state captured by :meth:`state_dict`."""
        order, cursor = check_loader_state(state, len(self.dataset))
        set_rng_state(self._rng, state["rng"])
        self._order = order.copy()
        self._cursor = cursor
