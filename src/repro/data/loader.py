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
    once, and :func:`draw_cohort` those of many loaders, with exactly the
    rows and the final states of drawing them one :meth:`next_indices`
    call at a time.
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

        Returns a ``(count, min(batch_size, len(self)))`` array whose row
        ``k`` is what the ``k``-th call would have drawn; the sampling
        state afterwards (reshuffles, cursor, RNG) is the one those calls
        leave.  It is :func:`draw_cohort` over this one loader.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return draw_cohort([self], min(batch_size, len(self.dataset)), count)[:, 0]

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


def draw_cohort(loaders, size: int, count: int) -> np.ndarray:
    """The rows of ``count`` consecutive width-``size`` draws from each loader.

    Returns a fresh ``(count, len(loaders), size)`` array: ``[:, i]`` is
    ``loaders[i].next_indices_many(size, count)``, and every loader is left
    in the state those calls leave.  ``size`` must not exceed any loader's
    shard (a batch above a shard draws the whole shard, so its width is the
    shard's length).

    Each loader still reshuffles with its own ``rng.permutation``, as often
    and in the order one call at a time would; the walk over the orders and
    the position-to-row map run once over the whole cohort: the orders in
    play and the shards' rows are concatenated, and one ``take`` each reads
    every loader's window.  An executor draws a shape group of workers'
    whole round with one call.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    need = size * count
    if need == 0:
        return np.empty((count, len(loaders), size), dtype=np.int64)
    orders = []        # every order a window reads, loader after loader
    rows = []          # every loader's shard rows
    starts = []        # where each window opens in the concatenated orders
    bases = []         # where each shard opens in the concatenated rows
    walked = placed = 0
    for loader in loaders:
        order = loader._order
        length = order.shape[0]
        if length < size:
            raise ValueError(
                f"draw width {size} exceeds a shard of {length} samples"
            )
        cursor = loader._cursor
        starts.append(walked + cursor)
        bases.append(placed)
        rows.append(loader.dataset.rows)
        orders.append(order)
        walked += length
        placed += length
        missing = need - (length - cursor)
        if missing <= 0:
            loader._cursor = cursor + need
            continue
        # Reshuffle whenever the window runs past the end of an order.
        reshuffles = -(-missing // length)
        for __ in range(reshuffles):
            order = loader._rng.permutation(length)
            orders.append(order)
        walked += reshuffles * length
        loader._order = order
        loader._cursor = missing - (reshuffles - 1) * length
    window = np.arange(need, dtype=np.int64).reshape(count, 1, size)
    positions = np.concatenate(orders).take(
        np.asarray(starts, dtype=np.int64)[:, None] + window
    )
    return np.concatenate(rows).take(
        positions + np.asarray(bases, dtype=np.int64)[:, None]
    )
