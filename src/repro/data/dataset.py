"""In-memory dataset containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError


@dataclass
class Dataset:
    """A supervised dataset held fully in memory.

    Attributes:
        data: Input array of shape ``(samples, *feature_shape)``.
        targets: Integer labels of shape ``(samples,)``.
        num_classes: Number of distinct classes.
        name: Human-readable dataset name.
    """

    data: np.ndarray
    targets: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
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

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset restricted to ``indices``.

        Its arrays are copies (fancy indexing copies once), so the subset
        shares no memory with this dataset.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise DataError("subset indices out of range")
        return Dataset(
            data=self.data[indices],
            targets=self.targets[indices],
            num_classes=self.num_classes,
            name=self.name,
        )

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, shape ``(num_classes,)``."""
        return np.bincount(self.targets, minlength=self.num_classes)


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
