"""Worker-side training of the bottom model."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, Shard, as_shard
from repro.data.loader import BatchLoader
from repro.data.partition import label_distribution
from repro.nn.module import Sequential
from repro.nn.optim import SGD


class SplitWorker:
    """A federated worker holding a bottom model and a local data shard.

    The worker performs the worker side of split training: forward
    propagation of the bottom model on a local mini-batch (producing the
    features sent to the PS) and backward propagation from the gradient the
    PS dispatches back, followed by a local SGD step whose learning rate is
    scaled with the worker's batch size (Section IV-B).  Its shard
    (``dataset``) is rows of the one training array, not a copy of them
    (:class:`~repro.data.dataset.Shard`); a plain ``Dataset`` is taken as the
    shard of all its rows.
    """

    def __init__(
        self,
        worker_id: int,
        dataset: Dataset | Shard,
        num_classes: int,
        seed: int = 0,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = 5.0,
    ) -> None:
        self.worker_id = worker_id
        self.dataset = as_shard(dataset)
        self.num_classes = num_classes
        self.loader = BatchLoader(self.dataset, seed=seed)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.bottom: Sequential | None = None
        self.optimizer: SGD | None = None
        self.participation_count = 0
        self._pending_batch_size = 0

    # -- state -------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Size of the local data shard."""
        return len(self.dataset)

    def local_label_distribution(self) -> np.ndarray:
        """Label distribution V_i of the whole local shard."""
        return label_distribution(
            self.dataset.targets, np.arange(len(self.dataset)), self.num_classes
        )

    def receive_bottom_model(self, bottom: Sequential, learning_rate: float) -> None:
        """Install a fresh copy of the global bottom model for this round.

        Its forward waits at the merge barrier, so its convolutions keep
        no im2col columns (:meth:`~repro.nn.module.Sequential.without_kept_columns`).
        """
        self.bottom, self.optimizer = local_training_copy(
            bottom, learning_rate, self.momentum, self.weight_decay,
            self.max_grad_norm,
        )
        self.bottom.without_kept_columns()

    def state_dict(self) -> dict:
        """Round-persistent state for checkpointing.

        The bottom model and its optimizer are re-installed from the global
        model at the start of every round, so only the sampling state and
        the participation counter survive across rounds.
        """
        return {
            "participation_count": self.participation_count,
            "loader": self.loader.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.participation_count = int(state["participation_count"])
        self.loader.load_state_dict(state["loader"])

    def bottom_state(self) -> dict[str, np.ndarray]:
        """State dict of the locally updated bottom model."""
        if self.bottom is None:
            raise RuntimeError("worker has no bottom model installed")
        return self.bottom.state_dict()

    # -- split training ------------------------------------------------------
    def draw_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next local mini-batch without running the bottom model.

        The sampling state stays on the worker, where it is checkpointed,
        regardless of where the arithmetic happens.
        """
        data, labels = self.loader.next_batch(batch_size)
        self._pending_batch_size = data.shape[0]
        return data, labels

    def draw_batch_indices(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next mini-batch as ``(rows, labels)``.

        ``rows`` index the shard's *source* (``dataset.source.gather(rows)``
        is the float64 mini-batch :meth:`draw_batch` returns), not the
        shard's own positions.  For executors that gather the samples next
        to the compute: only the rows need to travel, and the sampling RNG
        advances exactly as in :meth:`draw_batch`.
        """
        rows = self.loader.next_indices(batch_size)
        self._pending_batch_size = rows.shape[0]
        return rows, self.dataset.source.targets[rows]

    def forward_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Run the bottom model on the next local mini-batch.

        Returns:
            ``(features, labels)`` where ``features`` is the split-layer
            activation sent to the PS.
        """
        if self.bottom is None:
            raise RuntimeError("worker has no bottom model installed")
        data, labels = self.draw_batch(batch_size)
        features = self.bottom.forward(data)
        return features, labels

    def backward_and_step(self, feature_gradient: np.ndarray) -> None:
        """Back-propagate the dispatched gradient and take a local SGD step
        (:func:`local_step`)."""
        if self.bottom is None or self.optimizer is None:
            raise RuntimeError("worker has no bottom model installed")
        local_step(
            self.bottom, self.optimizer, feature_gradient, self._pending_batch_size
        )

    # -- local (non-split) training for FL baselines -------------------------
    def train_full_model(
        self,
        model: Sequential,
        loss_fn,
        iterations: int,
        batch_size: int,
        learning_rate: float,
    ) -> tuple[dict[str, np.ndarray], float]:
        """Train a full model locally (used by FedAvg / PyramidFL baselines).

        Returns ``(state, loss)``: the locally updated state dict (the
        caller owns aggregation) and the mean training loss over the
        ``iterations`` mini-batches.
        """
        return train_local_model(
            model,
            loss_fn,
            (self.loader.next_batch(batch_size) for __ in range(iterations)),
            learning_rate,
            self.momentum,
            self.weight_decay,
            self.max_grad_norm,
        )


def local_training_copy(
    model: Sequential,
    learning_rate: float,
    momentum: float,
    weight_decay: float,
    max_grad_norm: float | None,
) -> tuple[Sequential, SGD]:
    """A worker's private training copy of ``model`` and its fresh optimizer.

    The single worker-side install recipe: a worker's bottom model, the
    bottom a process-executor child hosts for it and the full model of the
    FL path all start a round this way, so the three cannot drift.  The
    copy skips the gradient w.r.t. its input, which is raw data.  The two
    split bottoms then also stop keeping im2col columns
    (:meth:`~repro.nn.module.Sequential.without_kept_columns`); the FL copy,
    whose backward follows its forward at once, keeps them.
    """
    local = model.clone().without_input_grad()
    local.train()
    optimizer = SGD(
        local.parameters(),
        lr=learning_rate,
        momentum=momentum,
        weight_decay=weight_decay,
        max_grad_norm=max_grad_norm,
    )
    return local, optimizer


def local_step(
    model: Sequential,
    optimizer: SGD,
    feature_gradient: np.ndarray,
    batch_size: int,
) -> None:
    """Back-propagate a dispatched gradient and take the local SGD step.

    The single worker-side step recipe, shared like
    :func:`local_training_copy`: a worker and the bottom a process-executor
    child hosts for it both step this way.  ``batch_size`` is that of the
    forward the gradient answers.  The forward state is dropped once the
    step is taken, so from its step to its next forward a bottom holds its
    weights and optimizer only.
    """
    if feature_gradient.shape[0] != batch_size:
        raise ValueError(
            f"gradient batch {feature_gradient.shape[0]} does not match the "
            f"pending forward batch {batch_size}"
        )
    optimizer.zero_grad()
    model.backward(feature_gradient)
    optimizer.step()
    model.clear_forward_state()


def train_local_model(
    model: Sequential,
    loss_fn,
    batches,
    learning_rate: float,
    momentum: float,
    weight_decay: float,
    max_grad_norm: float | None,
) -> tuple[dict[str, np.ndarray], float]:
    """One worker's local full-model training: SGD over ``batches``.

    The single local-training loop of the FL path -- a worker runs it on
    mini-batches drawn from its loader, a process-executor child on the rows
    it is sent, gathered from the source -- so the arithmetic and the
    reported loss cannot drift between the two.  ``model`` is left
    untouched (a private copy is trained); ``batches`` yields ``(data,
    labels)`` pairs and is consumed lazily, one mini-batch per step.

    Returns:
        ``(state, loss)``: the trained copy's state dict and the mean of the
        per-iteration training losses (``0.0`` for an empty ``batches``).
        The mean is a left-to-right running sum divided by the count, which
        the stacked kernels reproduce bit for bit.
    """
    local, optimizer = local_training_copy(
        model, learning_rate, momentum, weight_decay, max_grad_norm
    )
    total, steps = 0.0, 0
    for data, labels in batches:
        optimizer.zero_grad()
        logits = local.forward(data)
        total += loss_fn.forward(logits, labels)
        local.backward(loss_fn.backward())
        optimizer.step()
        steps += 1
    return local.state_dict(), total / max(steps, 1)
