"""Tests for the batch loader."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.loader import BatchLoader
from repro.data.synthetic import make_blobs
from repro.utils.rng import new_rng


@pytest.fixture
def loader():
    data = make_blobs(train_samples=50, test_samples=10, seed=0)
    return BatchLoader(data.train, seed=0)


class TestBatchLoader:
    def test_batch_shapes(self, loader):
        data, labels = loader.next_batch(8)
        assert data.shape == (8, 32)
        assert labels.shape == (8,)

    def test_batch_larger_than_shard_is_clamped(self, loader):
        data, __ = loader.next_batch(500)
        assert data.shape[0] == 50

    def test_batch_size_can_change_between_calls(self, loader):
        assert loader.next_batch(4)[0].shape[0] == 4
        assert loader.next_batch(16)[0].shape[0] == 16

    def test_cycles_through_whole_dataset(self, loader):
        seen = set()
        for __ in range(10):
            data, __labels = loader.next_batch(5)
            for row in data:
                seen.add(tuple(np.round(row[:3], 6)))
        assert len(seen) == 50

    def test_invalid_batch_size(self, loader):
        with pytest.raises(ValueError):
            loader.next_batch(0)

    def test_deterministic_given_seed(self):
        data = make_blobs(train_samples=30, test_samples=5, seed=0)
        first = BatchLoader(data.train, seed=7).next_batch(10)
        second = BatchLoader(data.train, seed=7).next_batch(10)
        assert np.allclose(first[0], second[0])


def _list_based_next_indices(loader: BatchLoader, batch_size: int) -> np.ndarray:
    """The original formulation of ``next_indices``: a Python list filled
    piecewise, reshuffling whenever the order runs out."""
    size = min(batch_size, len(loader.dataset))
    picked: list[int] = []
    while len(picked) < size:
        if loader._cursor >= len(loader._order):
            loader._order = loader._rng.permutation(len(loader.dataset))
            loader._cursor = 0
        take = min(size - len(picked), len(loader._order) - loader._cursor)
        picked.extend(loader._order[loader._cursor:loader._cursor + take].tolist())
        loader._cursor += take
    return np.asarray(picked, dtype=np.int64)


def _assert_same_state(loader: BatchLoader, reference: BatchLoader) -> None:
    state, expected = loader.state_dict(), reference.state_dict()
    assert state["rng"] == expected["rng"]
    assert state["cursor"] == expected["cursor"]
    assert np.array_equal(state["order"], expected["order"])


class TestNextIndices:
    @pytest.mark.parametrize("shard", [1, 7, 20])
    def test_matches_list_based_formulation(self, shard):
        """Across reshuffle boundaries, exact-exhaustion draws and
        ``batch_size > len(shard)``: same indices, same sampling state."""
        data = make_blobs(train_samples=shard, test_samples=5, seed=0)
        loader = BatchLoader(data.train, seed=3)
        reference = BatchLoader(data.train, seed=3)
        sizes = new_rng(11).integers(1, 2 * shard + 2, size=300)
        for batch_size in [shard, shard, *sizes.tolist()]:
            indices = loader.next_indices(batch_size)
            assert indices.dtype == np.int64
            assert np.array_equal(
                indices, _list_based_next_indices(reference, batch_size)
            )
            _assert_same_state(loader, reference)

    def test_returned_indices_do_not_alias_the_order(self, loader):
        indices = loader.next_indices(8)
        before = loader.state_dict()["order"]
        indices[:] = -1
        assert np.array_equal(loader.state_dict()["order"], before)

    def test_state_dict_round_trip_mid_epoch(self):
        data = make_blobs(train_samples=20, test_samples=5, seed=0)
        loader = BatchLoader(data.train, seed=3)
        loader.next_indices(12)                      # cursor mid-epoch
        state = loader.state_dict()
        resumed = BatchLoader(data.train, seed=99)
        resumed.load_state_dict(state)
        _assert_same_state(resumed, loader)
        for batch_size in (5, 12, 3, 20, 30):        # 2nd draw crosses a reshuffle
            indices = resumed.next_indices(batch_size)
            assert indices.dtype == np.int64
            assert np.array_equal(indices, loader.next_indices(batch_size))
            _assert_same_state(resumed, loader)


#: One source array; shards are scattered rows of it, so rows differ from
#: shard positions.
_SOURCE = make_blobs(train_samples=40, test_samples=5, seed=0).train


class TestNextIndicesMany:
    @settings(max_examples=150, deadline=None)
    @given(
        shard=st.integers(1, 12),
        batch_size=st.integers(1, 30),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_equals_consecutive_next_indices(
        self, shard, batch_size, count, seed, data
    ):
        """``next_indices_many(b, k)`` is ``k`` consecutive ``next_indices(b)``
        calls, from an arbitrary restored order and cursor: the same rows,
        the same state afterwards.  Shards shorter than ``b`` and ``k * b``
        spanning several reshuffles are both in range."""
        rows = new_rng(seed).choice(len(_SOURCE), size=shard, replace=False)
        restored = BatchLoader(_SOURCE.subset(rows), seed=seed).state_dict()
        restored["order"] = new_rng(seed + 1).permutation(shard)
        restored["cursor"] = data.draw(st.integers(0, shard), label="cursor")
        loader = BatchLoader(_SOURCE.subset(rows))
        reference = BatchLoader(_SOURCE.subset(rows))
        loader.load_state_dict(restored)
        reference.load_state_dict(restored)

        drawn = loader.next_indices_many(batch_size, count)
        expected = np.stack(
            [reference.next_indices(batch_size) for __ in range(count)]
        )
        assert drawn.dtype == np.int64
        assert drawn.shape == (count, min(batch_size, shard))
        assert np.array_equal(drawn, expected)
        _assert_same_state(loader, reference)
        # The rows are a fresh array, as ``next_indices``' are.
        before = loader.state_dict()["order"]
        drawn[...] = -1
        assert np.array_equal(loader.state_dict()["order"], before)
        assert np.array_equal(loader.dataset.rows, rows)

    def test_rejects_a_non_positive_count(self, loader):
        with pytest.raises(ValueError, match="count must be positive"):
            loader.next_indices_many(4, 0)
