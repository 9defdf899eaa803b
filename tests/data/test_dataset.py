"""Tests for the in-memory dataset containers."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, TrainTestSplit
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

    def test_subset_copies_data(self):
        ds = _dataset()
        sub = ds.subset(np.array([0, 1]))
        sub.data[0, 0] = 99.0
        assert ds.data[0, 0] != 99.0
        assert len(sub) == 2

    @pytest.mark.parametrize("indices", [[0, 1, 2], [7, 2, 2, 9], []])
    def test_subset_shares_no_memory_and_holds_the_indexed_values(self, indices):
        ds = _dataset()
        indices = np.asarray(indices, dtype=np.int64)
        sub = ds.subset(indices)
        for ours, theirs in ((sub.data, ds.data), (sub.targets, ds.targets)):
            assert not np.shares_memory(ours, theirs)
            assert np.array_equal(ours, theirs[indices])

    def test_subset_out_of_range_raises(self):
        with pytest.raises(DataError):
            _dataset().subset(np.array([100]))

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
