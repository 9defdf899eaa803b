"""Feature merging and gradient dispatching (Section IV-B).

At each iteration the parameter server concatenates the features uploaded
by the selected workers into one mixed feature sequence, runs the top model
on it, and afterwards slices the back-propagated gradient into per-worker
segments that are dispatched back for bottom-model updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ShapeError


@dataclass
class MergedBatch:
    """A merged feature sequence plus the bookkeeping needed to un-merge it.

    Attributes:
        features: Concatenated features ``G^{h,k}`` (batch axis 0).
        labels: Concatenated labels aligned with ``features``.
        worker_ids: Worker ids in concatenation order.
        segment_sizes: Number of samples contributed by each worker, in the
            same order as ``worker_ids``.
    """

    features: np.ndarray
    labels: np.ndarray
    worker_ids: list[int]
    segment_sizes: list[int]

    @property
    def total_samples(self) -> int:
        """Total number of samples in the merged sequence."""
        return int(self.features.shape[0])


class FeatureMerger:
    """Merge per-worker features and split merged gradients back apart."""

    def merge(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
    ) -> MergedBatch:
        """Concatenate worker features/labels into one mixed sequence.

        Args:
            worker_ids: Ids of the contributing workers.
            features: One feature tensor per worker (batch axis 0).
            labels: One label vector per worker.

        Raises:
            ShapeError: On empty input or mismatched feature/label lengths.
        """
        if not worker_ids:
            raise ShapeError("cannot merge an empty set of workers")
        if not (len(worker_ids) == len(features) == len(labels)):
            raise ShapeError("worker_ids, features and labels must align")
        trailing_shapes = {feat.shape[1:] for feat in features}
        if len(trailing_shapes) != 1:
            raise ShapeError(
                f"features have inconsistent shapes: {sorted(map(str, trailing_shapes))}"
            )
        segment_sizes = []
        for worker_id, feat, lab in zip(worker_ids, features, labels):
            if feat.shape[0] != lab.shape[0]:
                raise ShapeError(
                    f"worker {worker_id}: {feat.shape[0]} features vs "
                    f"{lab.shape[0]} labels"
                )
            segment_sizes.append(int(feat.shape[0]))
        return MergedBatch(
            features=np.concatenate(features, axis=0),
            labels=np.concatenate(labels, axis=0),
            worker_ids=list(worker_ids),
            segment_sizes=segment_sizes,
        )

    def dispatch(
        self, merged: MergedBatch, merged_gradient: np.ndarray
    ) -> dict[int, np.ndarray]:
        """Slice the merged gradient into per-worker segments.

        Args:
            merged: The batch returned by :meth:`merge`.
            merged_gradient: Gradient of the loss w.r.t. ``merged.features``.

        Returns:
            Mapping from worker id to its gradient segment, in the original
            per-worker order.
        """
        if merged_gradient.shape[0] != merged.total_samples:
            raise ShapeError(
                f"gradient batch {merged_gradient.shape[0]} does not match "
                f"merged batch {merged.total_samples}"
            )
        segments: dict[int, np.ndarray] = {}
        offset = 0
        for worker_id, size in zip(merged.worker_ids, merged.segment_sizes):
            segments[worker_id] = merged_gradient[offset:offset + size]
            offset += size
        return segments

    def merge_by_depth(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
        depths: dict[int, int],
    ) -> list[tuple[int, MergedBatch]]:
        """Merge features into per-depth groups, one :meth:`merge` each.

        Features uploaded from different cut depths have different shapes
        and cannot be concatenated directly; workers sharing a depth merge
        within their group exactly like :meth:`merge`.  Groups come back in
        ascending depth order; within a group, workers keep their original
        (plan) order, so the grouping is deterministic -- and a cohort at
        one depth (the global cut) is one group in plan order.

        Args:
            worker_ids: Ids of the contributing workers.
            features: One feature tensor per worker (batch axis 0).
            labels: One label vector per worker.
            depths: Cut depth per worker id; every worker must have one.

        Raises:
            ShapeError: On empty input, mismatched inputs, or a worker
                without an assigned depth.
        """
        if not worker_ids:
            raise ShapeError("cannot merge an empty set of workers")
        if not (len(worker_ids) == len(features) == len(labels)):
            raise ShapeError("worker_ids, features and labels must align")
        grouped: dict[int, tuple[list, list, list]] = {}
        for worker_id, feat, lab in zip(worker_ids, features, labels):
            if worker_id not in depths:
                raise ShapeError(f"worker {worker_id} has no assigned cut depth")
            ids, feats, labs = grouped.setdefault(depths[worker_id], ([], [], []))
            ids.append(worker_id)
            feats.append(feat)
            labs.append(lab)
        return [
            (depth, self.merge(*grouped[depth]))
            for depth in sorted(grouped)
        ]
