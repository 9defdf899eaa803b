"""Feature merging and gradient dispatching (Section IV-B).

At each iteration the parameter server concatenates the features uploaded
by the selected workers into one mixed feature sequence, runs the top model
on it, and afterwards slices the back-propagated gradient into per-worker
segments that are dispatched back for bottom-model updates.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ShapeError


class Segments(Sequence):
    """Per-worker arrays stored back to back in one array.

    ``flat`` is their concatenation along axis 0 and ``sizes`` their
    lengths; item ``i`` is a view of its rows.  A cohort's features,
    labels and gradients cross the merge in this form, so the exchange
    costs a few numpy calls, not a Python step per worker: the batched
    executor writes a whole cohort's features into one ``flat`` and reads
    a shape group's gradients out of one with a single ``take``, and the
    merged sequence *is* the features' ``flat``.
    """

    __slots__ = ("flat", "sizes", "_bounds")

    def __init__(self, flat: np.ndarray, sizes) -> None:
        self.flat = flat
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self._bounds: list[int] | None = None

    @classmethod
    def of(cls, arrays: Sequence[np.ndarray]) -> "Segments":
        """``arrays`` as segments: themselves if they already are, else
        concatenated (one copy).

        Raises:
            ShapeError: If the arrays' trailing shapes differ.
        """
        if isinstance(arrays, Segments):
            return arrays
        sizes = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
        try:
            flat = np.concatenate(arrays, axis=0)
        except ValueError:
            shapes = {array.shape[1:] for array in arrays}
            raise ShapeError(
                f"features have inconsistent shapes: {sorted(map(str, shapes))}"
            ) from None
        return cls(flat, sizes)

    def _offsets(self) -> list[int]:
        if self._bounds is None:
            self._bounds = [0, *np.cumsum(self.sizes).tolist()]
        return self._bounds

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def __getitem__(self, index: int) -> np.ndarray:
        bounds = self._offsets()
        index = range(len(self))[index]
        return self.flat[bounds[index]:bounds[index + 1]]

    def __iter__(self):
        bounds = self._offsets()
        flat = self.flat
        return (flat[start:stop] for start, stop in zip(bounds, bounds[1:]))


class Dispatched(Mapping):
    """Gradient segments keyed by worker id, in dispatch order.

    ``segments[k]`` belongs to ``worker_ids[k]``; :meth:`in_order` hands
    them to the executor aligned with its workers.
    """

    def __init__(self, worker_ids: list[int], segments: Sequence[np.ndarray]) -> None:
        self.worker_ids = worker_ids
        self.segments = segments
        self._position: dict[int, int] | None = None

    @classmethod
    def join(cls, parts: "Sequence[Dispatched]") -> "Dispatched":
        """Several dispatches as one: ids and segments one after another."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            [worker_id for part in parts for worker_id in part.worker_ids],
            [segment for part in parts for segment in part.segments],
        )

    def __getitem__(self, worker_id: int) -> np.ndarray:
        if self._position is None:
            self._position = {
                worker_id: position
                for position, worker_id in enumerate(self.worker_ids)
            }
        return self.segments[self._position[worker_id]]

    def __iter__(self):
        return iter(self.worker_ids)

    def __len__(self) -> int:
        return len(self.worker_ids)

    def in_order(self, worker_ids: list[int]) -> Sequence[np.ndarray]:
        """The segments of ``worker_ids``, in that order: ``segments``
        itself when the dispatch is already in that order (one merge
        group), else one view per worker."""
        if self.worker_ids == list(worker_ids):
            return self.segments
        return [self[worker_id] for worker_id in worker_ids]


@dataclass
class MergedBatch:
    """A merged feature sequence plus the bookkeeping needed to un-merge it.

    Attributes:
        features: Concatenated features ``G^{h,k}`` (batch axis 0).
        labels: Concatenated labels aligned with ``features``.
        worker_ids: Worker ids in concatenation order.
        sizes: Number of samples contributed by each worker, in the same
            order as ``worker_ids``.
    """

    features: np.ndarray
    labels: np.ndarray
    worker_ids: list[int]
    sizes: np.ndarray

    @property
    def segment_sizes(self) -> list[int]:
        """``sizes`` as a list."""
        return self.sizes.tolist()

    @property
    def total_samples(self) -> int:
        """Total number of samples in the merged sequence."""
        return int(self.features.shape[0])


class FeatureMerger:
    """Merge per-worker features and split merged gradients back apart."""

    def merge(
        self,
        worker_ids: list[int],
        features: Sequence[np.ndarray],
        labels: Sequence[np.ndarray],
    ) -> MergedBatch:
        """Concatenate worker features/labels into one mixed sequence.

        Features and labels that arrive as :class:`Segments` are already
        concatenated and are taken as they are; lists are concatenated.

        Args:
            worker_ids: Ids of the contributing workers.
            features: One feature tensor per worker (batch axis 0).
            labels: One label vector per worker.

        Raises:
            ShapeError: On empty input or mismatched feature/label lengths.
        """
        if not len(worker_ids):
            raise ShapeError("cannot merge an empty set of workers")
        if not (len(worker_ids) == len(features) == len(labels)):
            raise ShapeError("worker_ids, features and labels must align")
        features = Segments.of(features)
        labels = Segments.of(labels)
        mismatched = np.flatnonzero(features.sizes != labels.sizes)
        if mismatched.size:
            first = mismatched[0]
            raise ShapeError(
                f"worker {worker_ids[first]}: {features.sizes[first]} features "
                f"vs {labels.sizes[first]} labels"
            )
        return MergedBatch(
            features=features.flat,
            labels=labels.flat,
            worker_ids=list(worker_ids),
            sizes=features.sizes,
        )

    def dispatch(self, merged: MergedBatch, merged_gradient: np.ndarray) -> Dispatched:
        """Slice the merged gradient into per-worker segments.

        Args:
            merged: The batch returned by :meth:`merge`.
            merged_gradient: Gradient of the loss w.r.t. ``merged.features``.

        Returns:
            Mapping from worker id to its gradient segment, in the original
            per-worker order; the segments are views of ``merged_gradient``.
        """
        if merged_gradient.shape[0] != merged.total_samples:
            raise ShapeError(
                f"gradient batch {merged_gradient.shape[0]} does not match "
                f"merged batch {merged.total_samples}"
            )
        return Dispatched(merged.worker_ids, Segments(merged_gradient, merged.sizes))

    def merge_by_depth(
        self,
        worker_ids: list[int],
        features: Sequence[np.ndarray],
        labels: Sequence[np.ndarray],
        depths: dict[int, int],
    ) -> list[tuple[int, MergedBatch]]:
        """Merge features into per-depth groups, one :meth:`merge` each.

        Features uploaded from different cut depths have different shapes
        and cannot be concatenated directly; workers sharing a depth merge
        within their group exactly like :meth:`merge`.  Groups come back in
        ascending depth order; within a group, workers keep their original
        (plan) order, so the grouping is deterministic -- and a cohort at
        one depth (the global cut) is one group in plan order, merged as
        it came.

        Args:
            worker_ids: Ids of the contributing workers.
            features: One feature tensor per worker (batch axis 0).
            labels: One label vector per worker.
            depths: Cut depth per worker id; every worker must have one.

        Raises:
            ShapeError: On empty input, mismatched inputs, or a worker
                without an assigned depth.
        """
        if not len(worker_ids):
            raise ShapeError("cannot merge an empty set of workers")
        if not (len(worker_ids) == len(features) == len(labels)):
            raise ShapeError("worker_ids, features and labels must align")
        try:
            cuts = list(map(depths.__getitem__, worker_ids))
        except KeyError as missing:
            raise ShapeError(
                f"worker {missing.args[0]} has no assigned cut depth"
            ) from None
        if len(set(cuts)) == 1:
            return [(cuts[0], self.merge(worker_ids, features, labels))]
        grouped: dict[int, list[int]] = {}
        for position, cut in enumerate(cuts):
            grouped.setdefault(cut, []).append(position)
        return [
            (depth, self.merge(
                [worker_ids[position] for position in grouped[depth]],
                [features[position] for position in grouped[depth]],
                [labels[position] for position in grouped[depth]],
            ))
            for depth in sorted(grouped)
        ]
