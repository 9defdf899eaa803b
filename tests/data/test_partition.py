"""Tests for IID/Dirichlet partitioning and label distributions."""

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    label_distribution,
    non_iid_level_to_alpha,
    partition_dataset,
)
from repro.data.synthetic import make_blobs
from repro.exceptions import DataError
from repro.utils.rng import new_rng


def _list_loop_partition(
    targets, num_workers, alpha, rng=None, min_samples=2, max_retries=50
):
    """The per-worker list loop ``dirichlet_partition`` replaced, verbatim.

    It loops forever when a shard is short and is itself the largest, which
    the caller rules out by passing at least ``num_workers * min_samples``
    labels.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = rng if rng is not None else new_rng()
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = int(targets.max()) + 1 if targets.size else 0
    if num_classes == 0:
        raise DataError("cannot partition an empty dataset")

    for __ in range(max_retries):
        shards: list[list[int]] = [[] for __ in range(num_workers)]
        for cls in range(num_classes):
            cls_indices = np.flatnonzero(targets == cls)
            rng.shuffle(cls_indices)
            proportions = rng.dirichlet([alpha] * num_workers)
            counts = np.floor(proportions * len(cls_indices)).astype(int)
            # Distribute the remainder to the largest-proportion workers.
            remainder = len(cls_indices) - counts.sum()
            if remainder > 0:
                order = np.argsort(-proportions)
                counts[order[:remainder]] += 1
            offset = 0
            for worker, count in enumerate(counts):
                shards[worker].extend(cls_indices[offset:offset + count].tolist())
                offset += count
        sizes = [len(shard) for shard in shards]
        if min(sizes) >= min_samples:
            return [np.sort(np.asarray(shard, dtype=np.int64)) for shard in shards]
    # Fall back: top up undersized shards from the largest one.
    shards_arrays = [np.asarray(shard, dtype=np.int64) for shard in shards]
    for worker, shard in enumerate(shards_arrays):
        while len(shards_arrays[worker]) < min_samples:
            donor = int(np.argmax([len(s) for s in shards_arrays]))
            moved, shards_arrays[donor] = (
                shards_arrays[donor][:1],
                shards_arrays[donor][1:],
            )
            shards_arrays[worker] = np.concatenate([shards_arrays[worker], moved])
    return [np.sort(shard) for shard in shards_arrays]


class _LoggedRng:
    """A generator that records every draw it makes, in order."""

    def __init__(self, seed):
        self._rng = new_rng(seed)
        self.calls = []

    def shuffle(self, values):
        self.calls.append(("shuffle", len(values)))
        self._rng.shuffle(values)

    def dirichlet(self, alpha):
        self.calls.append(("dirichlet", len(alpha)))
        return self._rng.dirichlet(alpha)


def _coverage(shards, total):
    merged = np.concatenate(shards)
    return len(merged) == total and len(np.unique(merged)) == total


class TestNonIidLevel:
    def test_zero_means_iid(self):
        assert non_iid_level_to_alpha(0) is None

    def test_reciprocal_mapping(self):
        assert non_iid_level_to_alpha(10) == pytest.approx(0.1)
        assert non_iid_level_to_alpha(0.5) == pytest.approx(2.0)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            non_iid_level_to_alpha(-1)


class TestIidPartition:
    def test_covers_all_samples_without_overlap(self):
        targets = np.arange(103) % 5
        shards = iid_partition(targets, 7, new_rng(0))
        assert len(shards) == 7
        assert _coverage(shards, 103)

    def test_shard_sizes_balanced(self):
        shards = iid_partition(np.zeros(100, dtype=int), 4, new_rng(0))
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1


class TestDirichletPartition:
    def test_covers_all_samples_without_overlap(self):
        targets = np.repeat(np.arange(5), 40)
        shards = dirichlet_partition(targets, 6, alpha=0.3, rng=new_rng(0))
        assert _coverage(shards, 200)

    def test_minimum_shard_size_respected(self):
        targets = np.repeat(np.arange(4), 50)
        shards = dirichlet_partition(
            targets, 8, alpha=0.05, rng=new_rng(1), min_samples=2
        )
        assert min(len(s) for s in shards) >= 2

    def test_small_alpha_gives_more_skew_than_large_alpha(self):
        targets = np.repeat(np.arange(5), 100)
        skewed = dirichlet_partition(targets, 10, alpha=0.05, rng=new_rng(0))
        uniform = dirichlet_partition(targets, 10, alpha=100.0, rng=new_rng(0))

        def mean_entropy(shards):
            entropies = []
            for shard in shards:
                dist = label_distribution(targets, shard, 5)
                entropies.append(-np.sum(dist * np.log(dist + 1e-12)))
            return np.mean(entropies)

        assert mean_entropy(skewed) < mean_entropy(uniform)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, dtype=int), 0, alpha=1.0)
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, dtype=int), 2, alpha=0.0)
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10, dtype=int), 2, 1.0, max_retries=0)
        with pytest.raises(DataError, match="empty"):
            dirichlet_partition(np.zeros(0, dtype=int), 2, alpha=1.0)
        with pytest.raises(DataError, match="non-negative"):
            dirichlet_partition(np.array([0, -1, 1, 1]), 2, alpha=1.0)

    def test_identical_to_the_list_loop(self):
        # 1000 seeded draws over alpha 0.01-100, min_samples 0-4, 1-11
        # classes and as few samples as the shards can hold, so many
        # draws use up all their retries and are topped up.
        cases = new_rng(2024)
        exhausted = 0
        for seed in range(1000):
            num_classes = int(cases.integers(1, 12))
            workers = int(cases.integers(1, 25))
            min_samples = int(cases.integers(0, 5))
            alpha = float(10.0 ** cases.uniform(-2.0, 2.0))
            samples = max(workers * min_samples, 1) + int(cases.integers(0, 120))
            targets = cases.integers(0, num_classes, size=samples)
            retries = int(cases.choice([1, 3, 50]))
            loop_rng, vector_rng = _LoggedRng(seed), _LoggedRng(seed)
            expected = _list_loop_partition(
                targets, workers, alpha, loop_rng, min_samples, retries
            )
            shards = dirichlet_partition(
                targets, workers, alpha, vector_rng, min_samples, retries
            )
            assert vector_rng.calls == loop_rng.calls, seed
            assert len(shards) == workers
            for got, want in zip(shards, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want), seed
            assert min(len(shard) for shard in shards) >= min_samples
            draws = loop_rng.calls.count(("dirichlet", workers)) // (
                int(targets.max()) + 1
            )
            exhausted += retries == 50 and draws == 50
        assert exhausted >= 80, exhausted

    def test_too_few_samples_raises_instead_of_hanging(self):
        # The top-up used to move the largest shard's first row onto its
        # own end forever when that shard was itself short.
        with pytest.raises(DataError, match="1 samples .* 2 workers"):
            dirichlet_partition(np.zeros(1, dtype=int), 2, 1.0, new_rng(0))
        with pytest.raises(DataError, match="needed"):
            dirichlet_partition(np.zeros(3, dtype=int), 4, 1.0, new_rng(0))

    @pytest.mark.parametrize("train_samples", [1, 3])
    def test_session_with_too_few_samples_raises(self, train_samples):
        config = ExperimentConfig(
            dataset="blobs", model="mlp", num_workers=4,
            train_samples=train_samples, non_iid_level=1,
        )
        with pytest.raises(DataError, match=f"{train_samples} samples"):
            Session.from_config(config)

    def test_top_up_reaches_min_samples_at_the_bound(self):
        # Exactly workers * min_samples labels: every draw is short
        # somewhere, and the top-up must end with every shard at the floor.
        targets = np.repeat(np.arange(3), 8)
        shards = dirichlet_partition(
            targets, 6, alpha=0.05, rng=new_rng(5), min_samples=4
        )
        assert [len(shard) for shard in shards] == [4] * 6
        assert _coverage(shards, 24)


class TestPartitionDataset:
    def test_iid_level_zero_uses_even_split(self):
        data = make_blobs(train_samples=120, test_samples=10, seed=0)
        shards = partition_dataset(data.train, 6, non_iid_level=0.0, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_given_seed(self):
        data = make_blobs(train_samples=120, test_samples=10, seed=0)
        a = partition_dataset(data.train, 5, non_iid_level=5.0, seed=3)
        b = partition_dataset(data.train, 5, non_iid_level=5.0, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestLabelDistribution:
    def test_sums_to_one(self):
        targets = np.array([0, 0, 1, 2, 2, 2])
        dist = label_distribution(targets, np.arange(6), 3)
        assert np.isclose(dist.sum(), 1.0)
        assert np.allclose(dist, [2 / 6, 1 / 6, 3 / 6])

    def test_empty_indices_give_uniform(self):
        dist = label_distribution(np.array([0, 1]), np.array([], dtype=int), 4)
        assert np.allclose(dist, 0.25)
