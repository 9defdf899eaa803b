"""Parameter-server side of split federated learning.

A split round has one data path: every worker cuts the bottom model at a
depth, and the paper's global cut is the case where every depth is the tail
(``len(global_bottom)``; what ``depths`` omitted means).  A worker cut above
the tail uploads shallower features, which the server completes through
that depth's *bridge* (``global_bottom.layers[depth:]``, trained
server-side) before the shared top model.  The tail has no bridge:
``install_bridges`` and ``complete_bottom_states`` then do nothing and the
update is Eq. 16 as printed.
"""

from __future__ import annotations

import numpy as np

from repro.core.merging import Dispatched, FeatureMerger
from repro.data.dataset import Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.optim import SGD
from repro.nn.serialization import (
    average_state_dicts,
    load_module_extra_state,
    module_extra_state,
)
from repro.nn.split import carve_bridge, shift_state_keys


#: Rows per chunk of a model's leading per-sample layers in
#: :func:`evaluate_classifier`: the first convolution's im2col columns of 16
#: images stay cache-sized where a whole test batch's run to tens of MB.
EVAL_CHUNK_ROWS = 16


def _forward_dropping_state(layers, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` through ``layers``, each layer's forward state dropped as
    soon as it has produced its output."""
    for layer in layers:
        inputs = layer.forward(inputs)
        layer.clear_forward_state()
    return inputs


def evaluate_classifier(
    stages: list[Sequential],
    loss_fn: CrossEntropyLoss,
    dataset: Dataset,
    batch_size: int,
) -> tuple[float, float]:
    """Accuracy and mean loss of a model over a test set, in batches.

    The test samples are read through :meth:`Dataset.gather
    <repro.data.dataset.Dataset.gather>`, as float64 rows, one chunk (or
    one batch) at a time: the float32 store is never cast whole.

    ``stages`` are applied one after another (bottom then top, or the one
    full model), layer by layer: nothing runs a backward here, so each
    layer's forward state is dropped as soon as the layer has produced its
    output.  The leading layers flagged
    :attr:`~repro.nn.module.Module.per_sample` run over each test batch in
    chunks of ``EVAL_CHUNK_ROWS`` rows, concatenated before the first layer
    that is not -- bit-identical to running them over the whole batch --
    and the rest runs over the batch, so the logits and the loss reduction
    are those of ``batch_size`` batches.  The stages run in evaluation mode
    and come back in training mode with no forward state left on them.
    """
    layers = [layer for stage in stages for layer in stage.layers]
    split = next(
        (index for index, layer in enumerate(layers) if not layer.per_sample),
        len(layers),
    )
    head, tail = layers[:split], layers[split:]
    for stage in stages:
        stage.eval()
    correct = 0
    losses = []
    total = len(dataset)
    for start in range(0, total, batch_size):
        rows = np.arange(start, min(start + batch_size, total))
        labels = dataset.targets[rows]
        if head:
            logits = np.concatenate([
                _forward_dropping_state(
                    head, dataset.gather(rows[row:row + EVAL_CHUNK_ROWS])
                )
                for row in range(0, rows.size, EVAL_CHUNK_ROWS)
            ])
        else:
            logits = dataset.gather(rows)
        logits = _forward_dropping_state(tail, logits)
        losses.append(loss_fn.forward(logits, labels) * labels.shape[0])
        correct += int((logits.argmax(axis=1) == labels).sum())
    for stage in stages:
        stage.train()
    if total == 0:
        return 0.0, 0.0
    return correct / total, float(np.sum(losses) / total)


class SplitServer:
    """Hosts the top model, merges features and aggregates bottom models.

    The server provides two update paths that mirror the paper's SFL-FM and
    SFL-T behaviours, each taking the workers' cut depths:

    * :meth:`update_top_merged` -- one forward/backward pass of the top
      model over the merged feature sequence (Eq. 16), returning per-worker
      gradient segments for dispatching.
    * :meth:`update_top_per_worker` -- sequential per-worker updates of the
      top model (typical SFL without feature merging).

    It adopts ``bottom_template`` / ``top_model`` as ``global_bottom`` /
    ``top`` and trains them in place (hand it clones to keep originals).
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
        self.global_bottom = bottom_template
        self.top = top_model
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
        # Per-depth server-side bridges, carved from the current global
        # bottom at every install; empty while every worker cuts at the tail.
        self._bridges: dict[int, tuple[Sequential, SGD]] = {}

    # -- per-depth bridges -------------------------------------------------------
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
        full keyset lets the existing weighted aggregation and elastic
        folding (rejoin deltas) run unchanged.
        """
        tail = len(self.global_bottom)
        completed = []
        for worker_id, state in zip(worker_ids, states):
            depth = depths[worker_id]
            if depth < tail:
                bridge, _ = self._bridges[depth]
                state = {**state, **shift_state_keys(bridge.state_dict(), depth)}
            completed.append(state)
        return completed

    # -- top-model updates ---------------------------------------------------
    def update_top_merged(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
        depths: dict[int, int] | None = None,
    ) -> tuple[float, Dispatched]:
        """Feature merging update (Eq. 16) followed by gradient dispatching.

        Workers sharing a cut depth merge within their group, every non-tail
        group is completed through its bridge, and the completed groups
        form one mixed sequence for a single top-model update.  The
        back-propagated gradient is sliced per group, pushed back through
        each bridge (which then takes its SGD step) and dispatched.  The
        global cut is the one-group case: one merge, no bridge.

        Returns:
            ``(loss, gradients)`` where ``gradients`` maps each worker id to
            the gradient segment of its features
            (:class:`~repro.core.merging.Dispatched`, in merge order).
        """
        if depths is None:
            depths = dict.fromkeys(worker_ids, len(self.global_bottom))
        tail = len(self.global_bottom)
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
        if len(groups) == 1:
            mixed, mixed_labels = completed[0], groups[0][1].labels
        else:
            mixed = np.concatenate(completed, axis=0)
            mixed_labels = np.concatenate(
                [merged.labels for _, merged in groups], axis=0
            )
        logits = self.top.forward(mixed)
        loss = self.loss_fn.forward(logits, mixed_labels)
        mixed_gradient = self.top.backward(self.loss_fn.backward())
        self.top_optimizer.step()
        total = int(mixed.shape[0])
        dispatched = []
        offset = 0
        for depth, merged in groups:
            size = merged.total_samples
            group_gradient = mixed_gradient[offset:offset + size]
            offset += size
            if depth != tail:
                bridge, optimizer = self._bridges[depth]
                # Rescale to the mean over the group's own samples so the
                # bridge trains like a depth-d cohort, then undo the factor
                # for the dispatched worker segments below.
                group_gradient = bridge.backward(group_gradient * (total / size))
                optimizer.step()
                group_gradient = group_gradient * (size / total)
            # The merged loss is averaged over the whole mixed sequence, so
            # each segment carries a 1/M scale.  Re-normalise every worker's
            # segment to the mean gradient over its own d_i samples, so
            # bottom models update with the same magnitude as in typical
            # SFL (Eq. 15): one pass, each row times its worker's factor.
            factors = np.repeat(total / merged.sizes, merged.sizes)
            dispatched.append(self.merger.dispatch(
                merged,
                group_gradient
                * factors.reshape(-1, *(1,) * (group_gradient.ndim - 1)),
            ))
        return loss, Dispatched.join(dispatched)

    def update_top_per_worker(
        self,
        worker_ids: list[int],
        features: list[np.ndarray],
        labels: list[np.ndarray],
        depths: dict[int, int] | None = None,
    ) -> tuple[float, Dispatched]:
        """Typical-SFL update: the top model is updated once per worker, in turn.

        A worker cut above the tail goes through its depth's bridge, which
        steps with it; at the tail (``depths`` omitted) there is none.
        """
        if depths is None:
            depths = dict.fromkeys(worker_ids, len(self.global_bottom))
        tail = len(self.global_bottom)
        gradients: list[np.ndarray] = []
        losses = []
        for worker_id, feats, labs in zip(worker_ids, features, labels):
            bridge_pair = (
                self._bridges[depths[worker_id]]
                if depths[worker_id] < tail else None
            )
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
            gradients.append(gradient)
            self.top_optimizer.step()
        mean_loss = float(np.mean(losses)) if losses else 0.0
        return mean_loss, Dispatched(list(worker_ids), gradients)

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
    def evaluate(self, dataset: Dataset, batch_size: int = 256) -> tuple[float, float]:
        """Accuracy and mean loss of the current global model on a test set."""
        return evaluate_classifier(
            [self.global_bottom, self.top], self.loss_fn, dataset, batch_size
        )

    # -- learning-rate control -----------------------------------------------
    def set_learning_rate(self, learning_rate: float) -> None:
        """Set the top-model learning rate (per-round decay)."""
        self.top_optimizer.lr = learning_rate
