"""Vectorized executor: all selected workers in one stacked numpy kernel.

The batched executor removes the per-worker Python loop from the hot path:
the selected workers' bottom models are stacked along a leading worker axis
and each local iteration runs one vectorized forward/backward (see
:mod:`repro.parallel.kernels`) instead of one per worker.  Because batch
size regulation assigns *different* batch sizes per worker, workers are
grouped by their drawn mini-batch shape and each shape group is stacked
into its own rectangular tensor, within its cut depth
(``install(..., depths)``; the global cut is one depth over the cohort).

Sampling state never leaves the workers: mini-batches are drawn from every
worker's own :class:`~repro.data.loader.BatchLoader` in the main process,
so checkpoints are identical to serial execution.  An iteration costs
O(shape groups), not O(workers): told how many forwards follow the install
(``install(..., iterations=tau)``), the first forward draws each worker's
whole round with one
:meth:`~repro.data.loader.BatchLoader.next_indices_many` call and keeps a
``(tau, members, batch)`` row array per group, so every iteration gathers a
group's samples and labels with one ``take`` each.  Later forwards of the
round must ask for the same batch sizes
(:class:`~repro.exceptions.BatchSizeMismatchError`); one past ``tau``, or
any forward without ``iterations``, draws afresh.

A stacked cohort holds each parameter once.  Between a local step and the
next forward a group keeps its parameters, gradients and optimizer, and no
forward state (as a serial worker does).  ``bottom_states`` hands out
read-only row views of the stacked parameters, not copies, so the
aggregation's one gather per key is the only copy of the cohort.  From
then on only an install can follow: each group drops its gradients and
optimizer, and a ``backward_step`` raises until the next install.

Only the dense layers have a stacked kernel
(:data:`~repro.parallel.kernels.BATCHED_LAYER_TYPES`).  Models containing
any other layer -- convolution, pooling, BatchNorm2d, third-party plugins
-- transparently fall back to serial execution, with a one-time warning
per layer-type set; ``executor="auto"`` never picks this backend for them
(:func:`~repro.parallel.resolve_executor` asks the same table).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BatchSizeMismatchError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.split import carve_prefix
from repro.parallel.base import Executor
from repro.parallel.kernels import (
    BatchedModel,
    BatchedSGD,
    batched_cross_entropy,
    unsupported_layers,
)
from repro.parallel.serial import SerialExecutor
from repro.utils.logging import get_logger

logger = get_logger("parallel.batched")


class _Group:
    """One shape group: a stacked model + optimizer for a subset of workers.

    ``sgd`` is ``None`` once the group's states have been collected.
    ``rows`` and ``labels`` are the drawn ``(forwards, members, batch)``
    source rows and their labels.
    """

    def __init__(self, slots: list[int], model: BatchedModel, sgd: BatchedSGD) -> None:
        self.slots = slots
        self.model = model
        self.sgd: BatchedSGD | None = sgd
        self.pending_batch = 0
        self.rows: np.ndarray | None = None
        self.labels: np.ndarray | None = None


class _DepthRound:
    """The workers of the installed cohort that share one cut depth.

    ``slots`` are their positions in the cohort; a uniform round is a
    single depth round over every slot.  They stack into one (or more, by
    mini-batch shape) vectorized kernels once the first forward has shown
    the shapes.
    """

    def __init__(self, slots, snapshot, learning_rates, hyperparams) -> None:
        self.slots = slots
        self.snapshot = snapshot
        self.learning_rates = np.asarray(learning_rates, dtype=np.float64)
        self.hyperparams = hyperparams
        self.groups: list[_Group] | None = None

    def build_groups(self, keys: list[tuple]) -> None:
        """Partition the cohort slots by :func:`_group_key` and stack each
        group."""
        by_key: dict[tuple, list[int]] = {}
        for member, key in enumerate(keys):
            by_key.setdefault(key, []).append(member)
        momentum, weight_decay, max_grad_norm = self.hyperparams
        self.groups = []
        for members in by_key.values():
            model = BatchedModel(self.snapshot, len(members))
            sgd = BatchedSGD(
                model.parameters(),
                self.learning_rates[members],
                momentum=momentum,
                weight_decay=weight_decay,
                max_grad_norm=max_grad_norm,
            )
            self.groups.append(
                _Group([self.slots[member] for member in members], model, sgd)
            )


def uniform_worker_hyperparams(workers) -> tuple | None:
    """The shared ``(momentum, weight_decay, max_grad_norm)``, or ``None``.

    The stacked optimizer shares scalar hyper-parameters across the group;
    heterogeneous settings (possible for hand-wired workers) use the serial
    fallback instead.
    """
    settings = {
        (worker.momentum, worker.weight_decay, worker.max_grad_norm)
        for worker in workers
    }
    if len(settings) != 1:
        return None
    return next(iter(settings))


def _group_key(worker, drawn: np.ndarray) -> tuple:
    """What a stacked group shares: the batch size, and the source array
    its members' rows index (and so the sample shape), so one ``take``
    gathers the group."""
    return (drawn.shape[-1], id(worker.dataset.source))


def _stack_rows(source, drawn, slots) -> tuple[np.ndarray, np.ndarray]:
    """The drawn rows of ``slots`` as one ``(forwards, members, batch)``
    array, and their labels.

    ``mode="clip"`` only skips the bounds check: the rows are the shards',
    range-checked against this very source when they were cut.
    """
    rows = np.stack([drawn[slot] for slot in slots], axis=1)
    return rows, source.targets.take(rows, mode="clip")


class BatchedExecutor(Executor):
    """Vectorize the per-worker compute across the worker axis."""

    name = "batched"

    def __init__(self) -> None:
        self._serial = SerialExecutor()
        #: The installed cohort's worker ids, and its depth rounds.
        self._worker_ids: list[int] | None = None
        self._depth_rounds: list[_DepthRound] = []
        self._fallback_active = False
        self._warned: set[tuple[str, ...]] = set()
        #: Forwards the next draw covers (``None``: one), then the drawn
        #: batch sizes, forwards, and the index of the next one to run.
        self._predraw: int | None = None
        self._drawn_sizes: list[int] = []
        self._drawn_forwards = 0
        self._next_forward = 0

    # -- fallback -------------------------------------------------------------
    def _fallback_reason(self, workers, model) -> str | None:
        unsupported = unsupported_layers(model)
        if unsupported:
            return f"no batched kernels for layer types: {unsupported}"
        if uniform_worker_hyperparams(workers) is None:
            return "workers have heterogeneous optimizer hyper-parameters"
        return None

    def _warn_fallback(self, reason: str) -> None:
        key = (reason,)
        if key not in self._warned:
            self._warned.add(key)
            logger.warning("batched executor falling back to serial: %s", reason)

    # -- split training -------------------------------------------------------
    def install(self, workers, bottom, learning_rates, depths=None, wait=True,
                loads=None, iterations=None) -> None:
        """Stack workers *within* each cut-depth group; one group at the tail.

        ``iterations`` forwards are drawn at the first one.
        """
        if depths is None:
            depths = [len(bottom)] * len(workers)
        self._worker_ids = None
        self._predraw = iterations
        self._drawn_forwards = self._next_forward = 0
        reason = self._fallback_reason(workers, bottom)
        self._fallback_active = reason is not None
        if reason is not None:
            self._warn_fallback(reason)
            self._serial.install(workers, bottom, learning_rates, depths)
            return
        hyperparams = uniform_worker_hyperparams(workers)
        self._depth_rounds = []
        for depth in sorted(set(depths)):
            slots = [slot for slot, d in enumerate(depths) if d == depth]
            # Snapshot the global bottom now (one clone per depth instead
            # of one per worker), so later mutation of the server's model
            # cannot leak into this round's stacked parameters.
            self._depth_rounds.append(_DepthRound(
                slots,
                carve_prefix(bottom, depth).train(),
                [learning_rates[slot] for slot in slots],
                hyperparams,
            ))
        self._worker_ids = [worker.worker_id for worker in workers]

    def _require_round(self, workers, after_forward: str | None = None):
        """The installed depth rounds; ``after_forward`` names a caller that
        needs the groups the first forward builds."""
        if self._worker_ids is None:
            raise RuntimeError("no bottom model installed on the batched executor")
        if [worker.worker_id for worker in workers] != self._worker_ids:
            raise RuntimeError(
                "worker set changed since install(); re-install the bottom model"
            )
        if after_forward and any(
            depth_round.groups is None for depth_round in self._depth_rounds
        ):
            raise RuntimeError(f"{after_forward} called before forward")
        return self._depth_rounds

    def forward(self, workers, batch_sizes):
        if self._fallback_active:
            return self._serial.forward(workers, batch_sizes)
        depth_rounds = self._require_round(workers)
        if self._next_forward == self._drawn_forwards:
            self._draw(workers, batch_sizes, depth_rounds)
        elif list(batch_sizes) != self._drawn_sizes:
            raise BatchSizeMismatchError(
                f"forward asked for batch sizes {list(batch_sizes)}, but the "
                f"install drew {self._drawn_sizes}"
            )
        forward = self._next_forward
        self._next_forward += 1
        features: list[np.ndarray | None] = [None] * len(workers)
        labels: list[np.ndarray | None] = [None] * len(workers)
        for depth_round in depth_rounds:
            for group in depth_round.groups:
                source = workers[group.slots[0]].dataset.source
                stacked = source.gather(group.rows[forward])
                group.pending_batch = stacked.shape[1]
                outputs = group.model.forward(stacked)
                for position, slot in enumerate(group.slots):
                    features[slot] = outputs[position]
                    labels[slot] = group.labels[forward, position]
        return features, labels

    def _draw(self, workers, batch_sizes, depth_rounds) -> None:
        """Draw the next forwards' rows: the installed ``iterations`` at
        the first forward of a round, one at any other.

        Each worker draws from its own loader, so the rows and the loader
        states are those of drawing one forward at a time, in any order.
        """
        count = self._predraw or 1
        self._predraw = None
        drawn = [
            worker.loader.next_indices_many(batch_size, count)
            for worker, batch_size in zip(workers, batch_sizes)
        ]
        for depth_round in depth_rounds:
            if depth_round.groups is None:
                depth_round.build_groups([
                    _group_key(workers[slot], drawn[slot])
                    for slot in depth_round.slots
                ])
            for group in depth_round.groups:
                group.rows, group.labels = _stack_rows(
                    workers[group.slots[0]].dataset.source, drawn, group.slots
                )
        self._drawn_sizes = list(batch_sizes)
        self._drawn_forwards, self._next_forward = count, 0

    def backward_step(self, workers, gradients, wait=True) -> None:
        if self._fallback_active:
            self._serial.backward_step(workers, gradients)
            return
        depth_rounds = self._require_round(workers, "backward_step")
        if any(group.sgd is None
               for depth_round in depth_rounds for group in depth_round.groups):
            raise RuntimeError(
                "backward_step called after bottom_states; re-install the "
                "bottom model"
            )
        for depth_round in depth_rounds:
            for group in depth_round.groups:
                for slot in group.slots:
                    got = gradients[slot].shape[0]
                    if got != group.pending_batch:
                        raise ValueError(
                            f"gradient batch {got} does not match the pending "
                            f"forward batch {group.pending_batch}"
                        )
                stacked = np.stack([gradients[slot] for slot in group.slots])
                # The stacked backward writes every parameter gradient.
                group.model.backward(stacked)
                group.sgd.step()
                group.model.clear_forward_state()

    def bottom_states(self, workers):
        if self._fallback_active:
            return self._serial.bottom_states(workers)
        states: list[dict[str, np.ndarray] | None] = [None] * len(workers)
        for depth_round in self._require_round(workers, "bottom_states"):
            for group in depth_round.groups:
                for position, slot in enumerate(group.slots):
                    states[slot] = group.model.state_dict_for(position)
                # The states are views of the parameters, so no step may
                # follow: only an install can.
                group.model.keep_parameters_only()
                group.sgd = None
        return states

    # -- full-model (FL) training ---------------------------------------------
    def train_full(self, workers, model, loss_fn, iterations, batch_size, learning_rate):
        reason = self._fallback_reason(workers, model)
        if reason is None and type(loss_fn) is not CrossEntropyLoss:
            reason = f"no batched gradient for loss {type(loss_fn).__name__}"
        if reason is not None:
            self._warn_fallback(reason)
            return self._serial.train_full(
                workers, model, loss_fn, iterations, batch_size, learning_rate
            )
        momentum, weight_decay, max_grad_norm = uniform_worker_hyperparams(workers)
        # Draw every worker's mini-batch sequence (the per-loader draw order
        # of the serial loop).
        drawn = [
            worker.loader.next_indices_many(batch_size, iterations)
            for worker in workers
        ]
        by_key: dict[tuple, list[int]] = {}
        for slot, worker in enumerate(workers):
            by_key.setdefault(_group_key(worker, drawn[slot]), []).append(slot)

        states: list[dict[str, np.ndarray] | None] = [None] * len(workers)
        losses = [0.0] * len(workers)
        for slots in by_key.values():
            source = workers[slots[0]].dataset.source
            rows, labels = _stack_rows(source, drawn, slots)
            stacked_model = BatchedModel(model, len(slots))
            sgd = BatchedSGD(
                stacked_model.parameters(),
                np.full(len(slots), learning_rate, dtype=np.float64),
                momentum=momentum,
                weight_decay=weight_decay,
                max_grad_norm=max_grad_norm,
            )
            # Running per-worker loss sums, added in iteration order like
            # the serial loop's scalar accumulator.
            totals = np.zeros(len(slots))
            for iteration in range(iterations):
                logits = stacked_model.forward(source.gather(rows[iteration]))
                step_losses, grad = batched_cross_entropy(logits, labels[iteration])
                totals += step_losses
                stacked_model.backward(grad)
                sgd.step()
            means = (totals / iterations).tolist()
            for position, slot in enumerate(slots):
                states[slot] = stacked_model.state_dict_for(position)
                losses[slot] = means[position]
            stacked_model.keep_parameters_only()
        return states, losses
