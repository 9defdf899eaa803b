"""Parameter-server side of split federated learning."""

from __future__ import annotations

import numpy as np

from repro.core.merging import FeatureMerger, MergedBatch
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.optim import SGD
from repro.nn.serialization import (
    average_state_dicts,
    load_module_extra_state,
    module_extra_state,
)
from repro.nn.split import carve_bridge, shift_state_keys


def evaluate_classifier(
    stages: list[Sequential],
    loss_fn: CrossEntropyLoss,
    data: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
) -> tuple[float, float]:
    """Accuracy and mean loss of a model over a test set, in batches.

    ``stages`` are applied one after another (bottom then top, or the one
    full model).  They run in evaluation mode and come back in training
    mode without the forward state of the last test batch, which would
    otherwise sit on the global model -- tens of MB of im2col columns and
    pool masks -- until the next evaluation.
    """
    for stage in stages:
        stage.eval()
    correct = 0
    losses = []
    for start in range(0, data.shape[0], batch_size):
        stop = start + batch_size
        labels = targets[start:stop]
        logits = data[start:stop]
        for stage in stages:
            logits = stage.forward(logits)
        losses.append(loss_fn.forward(logits, labels) * labels.shape[0])
        correct += int((logits.argmax(axis=1) == labels).sum())
    for stage in stages:
        stage.train()
        stage.clear_forward_state()
    total = data.shape[0]
    if total == 0:
        return 0.0, 0.0
    return correct / total, float(np.sum(losses) / total)


class SplitServer:
    """Hosts the top model, merges features and aggregates bottom models.

    The server provides two update paths that mirror the paper's SFL-FM and
    SFL-T behaviours:

    * :meth:`update_top_merged` -- one forward/backward pass of the top
      model over the merged feature sequence (Eq. 16), returning per-worker
      gradient segments for dispatching.
    * :meth:`update_top_per_worker` -- sequential per-worker updates of the
      top model (typical SFL without feature merging).
    """

    def __init__(
        self,
        bottom_template: Sequential,
        top_model: Sequential,
        learning_rate: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = 5.0,
    ) -> None:
        self.global_bottom = bottom_template.clone()
        self.top = top_model.clone()
        self.top.train()
        self.loss_fn = CrossEntropyLoss()
        self.top_optimizer = SGD(
            self.top.parameters(),
            lr=learning_rate,
            momentum=momentum,
            weight_decay=weight_decay,
            max_grad_norm=max_grad_norm,
        )
        self.merger = FeatureMerger()
        # Per-depth server-side bridges (heterogeneous split points); carved
        # from the current global bottom at every install, so the uniform
        # path never allocates any.
        self._bridges: dict[int, tuple[Sequential, SGD]] = {}

    # -- per-depth bridges (heterogeneous split points) ------------------------
    def install_bridges(self, depths: set[int]) -> None:
        """Carve a server-side bridge for every non-tail cut depth.

        A depth-``d`` bridge is ``global_bottom.layers[d:]``: it completes a
        shallow worker's forward pass up to the shared split layer and is
        trained server-side with the same SGD hyperparameters as the top
        model.  Bridges are re-carved from the *current* global bottom at
        every install (mirroring workers, which receive a fresh prefix), so
        aggregation folds their updates back before the next carve.
        """
        self._bridges = {}
        for depth in sorted(depths):
            if depth >= len(self.global_bottom):
                continue
            bridge = carve_bridge(self.global_bottom, depth)
            bridge.train()
            optimizer = SGD(
                bridge.parameters(),
                lr=self.top_optimizer.lr,
                momentum=self.top_optimizer.momentum,
                weight_decay=self.top_optimizer.weight_decay,
                max_grad_norm=self.top_optimizer.max_grad_norm,
            )
            self._bridges[depth] = (bridge, optimizer)

    def update_top_multidepth(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
        depths: dict[int, int],
        merge_features: bool,
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Top-model update for features arriving from heterogeneous depths.

        With merging, workers sharing a cut depth merge within their group,
        every non-tail group is completed through its bridge, and the
        completed groups concatenate into one mixed sequence for a single
        top-model update (the multi-depth generalization of Eq. 16).  The
        back-propagated gradient is sliced per group, pushed back through
        each bridge (which then takes its SGD step), and dispatched to
        workers rescaled to the mean over their own samples, exactly like
        the uniform path.
        """
        tail = len(self.global_bottom)
        if all(depths[worker_id] == tail for worker_id in worker_ids):
            # Degenerate single tail group: identical to the global cut.
            if merge_features:
                return self.update_top_merged(worker_ids, features, labels)
            return self.update_top_per_worker(worker_ids, features, labels)
        if not merge_features:
            return self._update_multidepth_per_worker(
                worker_ids, features, labels, depths
            )
        groups = self.merger.merge_by_depth(worker_ids, features, labels, depths)
        self.top_optimizer.zero_grad()
        completed = []
        for depth, merged in groups:
            if depth == tail:
                completed.append(merged.features)
            else:
                bridge, optimizer = self._bridges[depth]
                optimizer.zero_grad()
                completed.append(bridge.forward(merged.features))
        mixed = np.concatenate(completed, axis=0)
        mixed_labels = np.concatenate(
            [merged.labels for _, merged in groups], axis=0
        )
        logits = self.top.forward(mixed)
        loss = self.loss_fn.forward(logits, mixed_labels)
        mixed_gradient = self.top.backward(self.loss_fn.backward())
        self.top_optimizer.step()
        total = int(mixed.shape[0])
        gradients: dict[int, np.ndarray] = {}
        offset = 0
        for depth, merged in groups:
            size = merged.total_samples
            segment = mixed_gradient[offset:offset + size]
            offset += size
            if depth == tail:
                group_gradient = segment
            else:
                bridge, optimizer = self._bridges[depth]
                # Rescale to the mean over the group's own samples so the
                # bridge trains like a depth-d cohort, then undo the factor
                # for the dispatched worker segments below.
                group_gradient = bridge.backward(segment * (total / size))
                optimizer.step()
                group_gradient = group_gradient * (size / total)
            segments = self.merger.dispatch(merged, group_gradient)
            for worker_id, worker_segment in segments.items():
                gradients[worker_id] = worker_segment * (
                    total / worker_segment.shape[0]
                )
        return loss, gradients

    def _update_multidepth_per_worker(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
        depths: dict[int, int],
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Typical-SFL sequential updates with heterogeneous cut depths."""
        tail = len(self.global_bottom)
        gradients: dict[int, np.ndarray] = {}
        losses = []
        for worker_id, feats, labs in zip(worker_ids, features, labels):
            depth = depths[worker_id]
            bridge_pair = self._bridges.get(depth) if depth < tail else None
            self.top_optimizer.zero_grad()
            if bridge_pair is not None:
                bridge, optimizer = bridge_pair
                optimizer.zero_grad()
                feats = bridge.forward(feats)
            logits = self.top.forward(feats)
            losses.append(self.loss_fn.forward(logits, labs))
            gradient = self.top.backward(self.loss_fn.backward())
            if bridge_pair is not None:
                gradient = bridge.backward(gradient)
                optimizer.step()
            gradients[worker_id] = gradient
            self.top_optimizer.step()
        mean_loss = float(np.mean(losses)) if losses else 0.0
        return mean_loss, gradients

    def complete_bottom_states(
        self,
        worker_ids: list[int],
        states: list[dict[str, np.ndarray]],
        depths: dict[int, int],
    ) -> list[dict[str, np.ndarray]]:
        """Extend per-depth prefix states to full bottom state dicts.

        A depth-``d`` worker returns parameters for layers ``0..d-1`` only;
        its bridge holds the server-trained layers ``d..`` (named from
        ``layer0``, hence the key shift).  Completing every state to the
        full keyset lets the existing weighted aggregation, delta caches
        and elastic folding run unchanged.
        """
        tail = len(self.global_bottom)
        completed = []
        for worker_id, state in zip(worker_ids, states):
            depth = depths[worker_id]
            if depth >= tail:
                completed.append(state)
                continue
            bridge, _ = self._bridges[depth]
            full = dict(state)
            full.update(shift_state_keys(bridge.state_dict(), depth))
            completed.append(full)
        return completed

    # -- top-model updates ---------------------------------------------------
    def update_top_merged(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Feature merging update (Eq. 16) followed by gradient dispatching.

        Returns:
            ``(loss, gradients)`` where ``gradients`` maps each worker id to
            the gradient segment of its features.
        """
        merged: MergedBatch = self.merger.merge(worker_ids, features, labels)
        self.top_optimizer.zero_grad()
        logits = self.top.forward(merged.features)
        loss = self.loss_fn.forward(logits, merged.labels)
        merged_gradient = self.top.backward(self.loss_fn.backward())
        self.top_optimizer.step()
        segments = self.merger.dispatch(merged, merged_gradient)
        # The merged loss is averaged over the whole mixed sequence, so each
        # segment carries a 1/M scale.  Re-normalise every worker's segment to
        # the mean gradient over its own d_i samples, so bottom models update
        # with the same magnitude as in typical SFL (Eq. 15).
        total = merged.total_samples
        rescaled = {
            worker_id: segment * (total / segment.shape[0])
            for worker_id, segment in segments.items()
        }
        return loss, rescaled

    def update_top_per_worker(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Typical-SFL update: the top model is updated once per worker, in turn."""
        gradients: dict[int, np.ndarray] = {}
        losses = []
        for worker_id, feats, labs in zip(worker_ids, features, labels):
            self.top_optimizer.zero_grad()
            logits = self.top.forward(feats)
            losses.append(self.loss_fn.forward(logits, labs))
            gradients[worker_id] = self.top.backward(self.loss_fn.backward())
            self.top_optimizer.step()
        mean_loss = float(np.mean(losses)) if losses else 0.0
        return mean_loss, gradients

    # -- bottom-model aggregation ---------------------------------------------
    def aggregate_bottoms(
        self,
        states: list[dict[str, np.ndarray]],
        weights: list[float] | None = None,
    ) -> None:
        """Aggregate worker bottom models into the global bottom (Eq. 4 / Eq. 17)."""
        aggregated = average_state_dicts(states, weights)
        self.global_bottom.load_state_dict(aggregated)

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Model weights, optimizer state and layer RNGs for checkpointing."""
        return {
            "bottom": self.global_bottom.state_dict(),
            "top": self.top.state_dict(),
            "optimizer": self.top_optimizer.state_dict(),
            "bottom_extra": module_extra_state(self.global_bottom),
            "top_extra": module_extra_state(self.top),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.global_bottom.load_state_dict(state["bottom"])
        self.top.load_state_dict(state["top"])
        self.top_optimizer.load_state_dict(state["optimizer"])
        load_module_extra_state(self.global_bottom, state["bottom_extra"])
        load_module_extra_state(self.top, state["top_extra"])

    # -- evaluation -------------------------------------------------------------
    def evaluate(
        self, data: np.ndarray, targets: np.ndarray, batch_size: int = 256
    ) -> tuple[float, float]:
        """Accuracy and mean loss of the current global model on a test set."""
        return evaluate_classifier(
            [self.global_bottom, self.top], self.loss_fn, data, targets, batch_size
        )

    # -- learning-rate control -----------------------------------------------
    def set_learning_rate(self, learning_rate: float) -> None:
        """Set the top-model learning rate (per-round decay)."""
        self.top_optimizer.lr = learning_rate
