"""Tests for the in-memory dataset containers."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, TrainTestSplit, as_shard
from repro.exceptions import DataError


def _dataset(samples=10, classes=3):
    rng = np.random.default_rng(0)
    return Dataset(
        data=rng.normal(size=(samples, 4)),
        targets=rng.integers(0, classes, size=samples),
        num_classes=classes,
        name="toy",
    )


class TestDataset:
    def test_len_and_feature_shape(self):
        ds = _dataset()
        assert len(ds) == 10
        assert ds.feature_shape == (4,)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), num_classes=2)

    def test_targets_out_of_range_raise(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=2)

    def test_subset_reads_the_source_rows(self):
        ds = _dataset()
        sub = ds.subset(np.array([0, 1]))
        assert sub.source is ds and not hasattr(sub, "data")
        ds.data[0, 0] = 99.0
        assert sub.source.data[sub.rows][0, 0] == 99.0
        assert len(sub) == 2

    @pytest.mark.parametrize("indices", [[0, 1, 2], [7, 2, 2, 9], []])
    def test_subset_gathers_the_indexed_values_and_holds_no_samples(self, indices):
        ds = _dataset()
        indices = np.asarray(indices, dtype=np.int64)
        sub = ds.subset(indices)
        assert np.array_equal(sub.source.data[sub.rows], ds.data[indices])
        assert np.array_equal(sub.targets, ds.targets[indices])
        # What the shard holds is per-row vectors -- rows and labels -- of
        # its own: no sample array, and nothing aliasing the caller's index.
        held = [value for value in vars(sub).values() if isinstance(value, np.ndarray)]
        assert sorted(array.dtype.name for array in held) == ["int64", "int64"]
        assert all(array.shape == indices.shape for array in held)
        assert not any(np.shares_memory(array, indices) for array in held)

    def test_subset_out_of_range_raises(self):
        with pytest.raises(DataError):
            _dataset().subset(np.array([100]))

    def test_as_shard_keeps_a_shard_and_takes_every_row_of_a_dataset(self):
        ds = _dataset()
        sub = ds.subset(np.array([4, 2]))
        assert as_shard(sub) is sub
        whole = as_shard(ds)
        assert whole.source is ds
        assert np.array_equal(whole.rows, np.arange(len(ds)))

    def test_class_counts_sum_to_samples(self):
        ds = _dataset(samples=20, classes=4)
        counts = ds.class_counts()
        assert counts.sum() == 20
        assert counts.shape == (4,)


class TestTrainTestSplit:
    def test_properties_delegate_to_train(self):
        split = TrainTestSplit(train=_dataset(), test=_dataset(samples=5))
        assert split.num_classes == 3
        assert split.feature_shape == (4,)
