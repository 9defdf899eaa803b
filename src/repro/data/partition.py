"""Worker data partitioning (statistical heterogeneity).

The paper draws each worker's class proportions from a Dirichlet
distribution ``Dir(delta * q)`` where ``q`` is the prior class distribution
and ``delta`` controls identicalness; the non-IID level is reported as
``p = 1 / delta`` with ``p = 0`` denoting IID (Section V-A).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import DataError
from repro.utils.rng import new_rng


def non_iid_level_to_alpha(level: float) -> float | None:
    """Convert the paper's non-IID level ``p`` into a Dirichlet concentration.

    Returns ``None`` for ``p == 0`` (IID).
    """
    if level < 0:
        raise ValueError(f"non-IID level must be non-negative, got {level}")
    if level == 0:
        return None
    return 1.0 / level


def iid_partition(
    targets: np.ndarray, num_workers: int, rng: np.random.Generator | None = None
) -> list[np.ndarray]:
    """Shuffle samples and deal them out evenly across workers."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    rng = rng if rng is not None else new_rng()
    indices = rng.permutation(len(targets))
    return [np.sort(shard) for shard in np.array_split(indices, num_workers)]


def dirichlet_partition(
    targets: np.ndarray,
    num_workers: int,
    alpha: float,
    rng: np.random.Generator | None = None,
    min_samples: int = 2,
    max_retries: int = 50,
) -> list[np.ndarray]:
    """Partition by drawing per-worker class proportions from ``Dir(alpha)``.

    Each draw deals every class's shuffled rows out in worker order, in
    the proportions of one Dirichlet sample.  A draw that leaves a shard
    below ``min_samples`` is re-drawn; once ``max_retries`` draws have
    failed, the last one is topped up by moving rows one at a time from
    the largest shard to each undersized one.

    Args:
        targets: Integer labels of the full training set.
        num_workers: Number of shards to create.
        alpha: Dirichlet concentration; small alpha means heavy label skew.
        rng: Random generator.
        min_samples: Minimum shard size; the draw is retried until satisfied.
        max_retries: Maximum number of re-draws before topping up.

    Returns:
        A list of ``num_workers`` index arrays (sorted, disjoint, covering
        all samples, each at least ``min_samples`` long).

    Raises:
        DataError: If the labels are empty or negative, or there are fewer
            than ``num_workers * min_samples`` of them.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if max_retries <= 0:
        raise ValueError(f"max_retries must be positive, got {max_retries}")
    rng = rng if rng is not None else new_rng()
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise DataError("cannot partition an empty dataset")
    if targets.min() < 0:
        raise DataError(f"labels must be non-negative, got {targets.min()}")
    if targets.size < num_workers * min_samples:
        raise DataError(
            f"{targets.size} samples cannot give {num_workers} workers "
            f"{min_samples} samples each ({num_workers * min_samples} needed)"
        )
    by_class = [
        np.flatnonzero(targets == cls) for cls in range(int(targets.max()) + 1)
    ]

    for __ in range(max_retries):
        rows, counts = [], []
        for cls_indices in by_class:
            cls_indices = cls_indices.copy()
            rng.shuffle(cls_indices)
            proportions = rng.dirichlet([alpha] * num_workers)
            cls_counts = np.floor(proportions * len(cls_indices)).astype(int)
            # Distribute the remainder to the largest-proportion workers.
            remainder = len(cls_indices) - cls_counts.sum()
            if remainder > 0:
                order = np.argsort(-proportions)
                cls_counts[order[:remainder]] += 1
            rows.append(cls_indices)
            counts.append(cls_counts)
        sizes = np.sum(counts, axis=0)
        if sizes.min() >= min_samples:
            break
    # Class-major draw order within each shard: the top-up moves a
    # donor's first row, so the stable sort is part of the partition.
    owners = np.concatenate([
        np.repeat(np.arange(num_workers), cls_counts) for cls_counts in counts
    ])
    dealt = np.concatenate(rows)[np.argsort(owners, kind="stable")]
    shards = np.split(dealt, np.cumsum(sizes)[:-1])
    # Top up undersized shards from the largest one.  The entry check
    # leaves a short shard's donor at least ``min_samples + 1`` rows.
    for worker in np.flatnonzero(sizes < min_samples):
        while sizes[worker] < min_samples:
            donor = int(np.argmax(sizes))
            shards[worker] = np.append(shards[worker], shards[donor][:1])
            shards[donor] = shards[donor][1:]
            sizes[worker] += 1
            sizes[donor] -= 1
    return [np.sort(shard) for shard in shards]


def partition_dataset(
    dataset: Dataset,
    num_workers: int,
    non_iid_level: float = 0.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """Partition a dataset by the paper's non-IID level convention."""
    rng = new_rng(seed)
    alpha = non_iid_level_to_alpha(non_iid_level)
    if alpha is None:
        return iid_partition(dataset.targets, num_workers, rng)
    return dirichlet_partition(dataset.targets, num_workers, alpha, rng)


def label_distribution(
    targets: np.ndarray, indices: np.ndarray, num_classes: int
) -> np.ndarray:
    """Normalised label histogram of ``targets[indices]`` (vector V_i, Eq. 11)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.full(num_classes, 1.0 / num_classes)
    counts = np.bincount(targets[indices], minlength=num_classes).astype(np.float64)
    return counts / counts.sum()
