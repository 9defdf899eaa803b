"""``draw_cohort``: a shape group's draw is each loader's own, bit for bit.

The reference is a copy of the one-loader-at-a-time walk that
``BatchLoader.next_indices_many`` ran before the cohort draw replaced it:
walk the order, reshuffle with the loader's RNG when the walk runs past
its end.  Every case compares the rows and every loader's final
``state_dict`` (RNG, order, cursor).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import BatchLoader, draw_cohort
from repro.data.synthetic import make_blobs


def _reference_next_indices_many(loader: BatchLoader, batch_size: int,
                                 count: int) -> np.ndarray:
    """One loader's ``count`` consecutive draws, walked position by slice."""
    size = min(batch_size, len(loader.dataset))
    positions = np.empty(count * size, dtype=np.int64)
    filled = 0
    while True:
        take = min(len(positions) - filled, len(loader._order) - loader._cursor)
        positions[filled:filled + take] = (
            loader._order[loader._cursor:loader._cursor + take]
        )
        filled += take
        loader._cursor += take
        if filled == len(positions):
            break
        loader._order = loader._rng.permutation(len(loader.dataset))
        loader._cursor = 0
    return loader.dataset.rows[positions].reshape(count, size)


def _assert_same_state(loader: BatchLoader, reference: BatchLoader) -> None:
    got, expected = loader.state_dict(), reference.state_dict()
    assert got["rng"] == expected["rng"]
    assert got["order"].tobytes() == expected["order"].tobytes()
    assert got["cursor"] == expected["cursor"]


def _loaders(shard_sizes, seed=0):
    """Two identical fleets of loaders over disjoint shards of one source."""
    source = make_blobs(
        train_samples=sum(shard_sizes) + 5, test_samples=2, seed=seed
    ).train
    starts = np.cumsum([0, *shard_sizes])
    shards = [
        source.subset(np.arange(start, start + size))
        for start, size in zip(starts, shard_sizes)
    ]
    return tuple(
        [BatchLoader(shard, seed=seed + worker) for worker, shard in enumerate(shards)]
        for __ in range(2)
    )


def _draw_both(loaders, references, batch_size, count):
    """Draw every loader's next ``count`` batches both ways, one width
    group at a time, and return ``(cohort rows, reference rows)``."""
    widths = [min(batch_size, len(loader)) for loader in loaders]
    for width in sorted(set(widths)):
        members = [slot for slot, w in enumerate(widths) if w == width]
        drawn = draw_cohort([loaders[slot] for slot in members], width, count)
        expected = np.stack([
            _reference_next_indices_many(references[slot], batch_size, count)
            for slot in members
        ], axis=1)
        assert drawn.shape == (count, len(members), width)
        assert drawn.dtype == np.int64
        assert drawn.tobytes() == expected.tobytes()


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 16, 25])
def test_cohort_draw_is_every_loaders_own(batch_size, count):
    """Shards of 1, 3 and 20 samples; batches below, at and above a shard
    (above, a loader draws its whole shard); several rounds in a row."""
    loaders, references = _loaders([1, 3, 20, 20, 3, 1, 7])
    for __ in range(4):
        _draw_both(loaders, references, batch_size, count)
        for loader, reference in zip(loaders, references):
            _assert_same_state(loader, reference)


def test_every_draw_reshuffles():
    """Five batches of 16 from 20-sample shards: every round walks past
    the end of an order several times, as a fleet worker's does."""
    loaders, references = _loaders([20] * 6, seed=3)
    before = [loader.state_dict()["rng"] for loader in loaders]
    _draw_both(loaders, references, 16, 5)
    assert all(
        loader.state_dict()["rng"] != state for loader, state in zip(loaders, before)
    )
    for loader, reference in zip(loaders, references):
        _assert_same_state(loader, reference)


def test_checkpoint_round_trip_mid_round():
    """Loaders restored from a checkpoint taken mid-round draw on exactly
    as the originals do."""
    loaders, references = _loaders([20, 3, 20, 1], seed=5)
    _draw_both(loaders, references, 4, 3)
    states = [loader.state_dict() for loader in loaders]
    restored, __ = _loaders([20, 3, 20, 1], seed=99)
    for loader, state in zip(restored, states):
        loader.load_state_dict(state)
    for __ in range(3):
        _draw_both(restored, references, 4, 5)
    for loader, reference in zip(restored, references):
        _assert_same_state(loader, reference)


def test_next_indices_many_is_the_one_loader_cohort():
    loaders, references = _loaders([3, 20], seed=7)
    for loader, reference in zip(loaders, references):
        for batch_size, count in ((2, 5), (16, 1), (30, 2)):
            drawn = loader.next_indices_many(batch_size, count)
            expected = _reference_next_indices_many(reference, batch_size, count)
            assert drawn.tobytes() == expected.tobytes()
        _assert_same_state(loader, reference)


def test_cohort_draw_rejects_a_width_above_a_shard():
    loaders, __ = _loaders([20, 3])
    with pytest.raises(ValueError, match="exceeds a shard of 3"):
        draw_cohort(loaders, 4, 1)
    with pytest.raises(ValueError, match="count must be positive"):
        draw_cohort(loaders, 2, 0)
