"""In-memory dataset containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError


@dataclass
class Dataset:
    """A supervised dataset held fully in memory.

    The samples are *stored* in float32 and *computed on* in float64:
    ``data`` is cast to float32 on construction, half the memory of the
    float64 array, and every read of sample values goes through
    :meth:`gather`, which returns float64 rows.  Everything after the gather
    -- models, losses, checkpoints -- stays float64.

    Attributes:
        data: Float32 store of shape ``(samples, *feature_shape)``; read it
            through :meth:`gather`.
        targets: Integer labels of shape ``(samples,)``.
        num_classes: Number of distinct classes.
        name: Human-readable dataset name.
    """

    data: np.ndarray
    targets: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float32)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.data.shape[0] != self.targets.shape[0]:
            raise DataError(
                f"data has {self.data.shape[0]} samples but targets has "
                f"{self.targets.shape[0]}"
            )
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= self.num_classes
        ):
            raise DataError(
                f"targets out of range for {self.num_classes} classes: "
                f"[{self.targets.min()}, {self.targets.max()}]"
            )

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Shape of a single input sample."""
        return tuple(self.data.shape[1:])

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The samples at ``rows``, as float64: the one read of ``data``.

        ``rows`` is an integer array of any shape (a mini-batch, or the
        ``(forwards, workers, batch)`` rows of a stacked cohort); the result
        has shape ``rows.shape + feature_shape``.
        """
        return self.data.take(rows, axis=0).astype(np.float64)

    def subset(self, indices: np.ndarray) -> "Shard":
        """The rows ``indices`` of this dataset, as a :class:`Shard`.

        No sample is copied: the shard's loader gathers this dataset's rows.
        """
        return Shard(self, indices)

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, shape ``(num_classes,)``."""
        return np.bincount(self.targets, minlength=self.num_classes)


class Shard:
    """Some rows of a source :class:`Dataset`: a worker's local data.

    A shard holds the int64 ``rows`` of ``source`` and its own labels
    (``source.targets[rows]``), 16 bytes a sample, and no sample array:
    every shard of a training set reads that one array.  Two index spaces
    meet here.  *Positions* ``0 .. len(shard) - 1`` are the shard's own; a
    :class:`~repro.data.loader.BatchLoader` shuffles and checkpoints them.
    *Rows* ``rows[positions]`` index the source, and are what a loader hands
    out: ``source.gather(rows)`` is the mini-batch.
    """

    def __init__(self, source: Dataset, rows: np.ndarray) -> None:
        rows = np.array(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= len(source)):
            raise DataError("subset indices out of range")
        self.source = source
        self.rows = rows
        self.targets = source.targets[rows]

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Shape of a single input sample."""
        return self.source.feature_shape


def as_shard(dataset: Dataset | Shard) -> Shard:
    """``dataset`` if it is a shard, else every row of it as one."""
    if isinstance(dataset, Shard):
        return dataset
    return dataset.subset(np.arange(len(dataset)))


@dataclass
class TrainTestSplit:
    """A dataset split into train and test partitions."""

    train: Dataset
    test: Dataset

    @property
    def num_classes(self) -> int:
        """Number of classes (shared by both partitions)."""
        return self.train.num_classes

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Per-sample input shape (shared by both partitions)."""
        return self.train.feature_shape
