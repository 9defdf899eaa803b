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
so checkpoints are identical to serial execution.

An iteration of a cohort at one cut depth costs O(shape groups), not
O(workers), in Python steps: every per-worker quantity is a numpy array
or a C-level ``map``.  The one per-worker Python loop left is the round's
draw.  Told how many forwards follow the install
(``install(..., iterations=tau)``), the first forward draws each shape
group's whole round with one :func:`~repro.data.loader.draw_cohort` call,
which visits each loader once for its own reshuffles (its
``permutation`` calls, new order and cursor), and keeps a
``(tau, members, width)`` row array per group and the round's labels in
merge order, so every iteration gathers a group's samples with one
``take``.  A forward writes every group's features into one
:class:`~repro.core.merging.Segments` array in cohort order, which the
server merges as it is, and a backward reads each group's gradients out
of the dispatched segments with one ``take``.  A cohort cut at several
depths hands its segments over one view per worker.  Later forwards of
the round must ask for the same batch sizes
(:class:`~repro.exceptions.BatchSizeMismatchError`); one past ``tau``,
or any forward without ``iterations``, draws afresh.

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

from operator import attrgetter

import numpy as np

from repro.core.merging import Segments
from repro.data.loader import draw_cohort
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

_shard = attrgetter("dataset")
_shard_rows = attrgetter("rows")
_source = attrgetter("source")
_loader = attrgetter("loader")
_worker_id = attrgetter("worker_id")


class _Group:
    """One shape group: a stacked model + optimizer for a subset of workers.

    ``sgd`` is ``None`` once the group's states have been collected.
    ``rows`` are the drawn ``(forwards, members, width)`` source rows, and
    ``segment_rows`` where the members' rows sit in their depth round's
    :class:`~repro.core.merging.Segments` (features out, gradients in).
    """

    def __init__(self, slots, width, source, loaders, segment_rows,
                 model, sgd) -> None:
        self.slots = slots
        self.width = width
        self.source = source
        self.loaders = loaders
        self.segment_rows = segment_rows
        self.model = model
        self.sgd: BatchedSGD | None = sgd
        self.rows: np.ndarray | None = None


class _DepthRound:
    """The workers of the installed cohort that share one cut depth.

    ``slots`` are their positions in the cohort; a uniform round is a
    single depth round over every slot.  They stack into one (or more, by
    mini-batch shape) vectorized kernels once the first forward has shown
    the shapes.  ``widths`` are the slots' draw widths, the segment sizes
    of the round's features and gradients, and ``labels`` the drawn
    ``(forwards, samples)`` labels in segment order.
    """

    def __init__(self, slots, snapshot, learning_rates, hyperparams) -> None:
        self.slots = slots
        self.snapshot = snapshot
        self.learning_rates = np.asarray(learning_rates, dtype=np.float64)
        self.hyperparams = hyperparams
        self.groups: list[_Group] | None = None
        self.widths: np.ndarray | None = None
        self.labels: np.ndarray | None = None

    def build_groups(self, workers, widths: np.ndarray) -> None:
        """Partition the round's slots by :func:`_shape_groups` and stack
        each group."""
        momentum, weight_decay, max_grad_norm = self.hyperparams
        self.widths = widths[self.slots]
        starts = np.cumsum(self.widths) - self.widths
        self.groups = []
        for members, width, source in _shape_groups(workers, widths, self.slots):
            model = BatchedModel(self.snapshot, len(members))
            sgd = BatchedSGD(
                model.parameters(),
                self.learning_rates[members],
                momentum=momentum,
                weight_decay=weight_decay,
                max_grad_norm=max_grad_norm,
            )
            slots = [self.slots[member] for member in members]
            self.groups.append(_Group(
                slots, width, source,
                list(map(_loader, map(workers.__getitem__, slots))),
                (starts[members, None] + np.arange(width)).ravel(),
                model, sgd,
            ))


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


def _draw_widths(workers, batch_sizes) -> np.ndarray:
    """Each worker's draw width: its batch size, capped at its shard."""
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    if batch_sizes.size and batch_sizes.min() <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_sizes.min()}")
    lengths = np.fromiter(
        map(len, map(_shard_rows, map(_shard, workers))),
        dtype=np.int64, count=len(workers),
    )
    return np.minimum(batch_sizes, lengths)


def _shape_groups(workers, widths: np.ndarray, slots: list[int]):
    """``slots`` partitioned by what a stacked group shares: the draw
    width, and the source array its members' rows index (and so the
    sample shape), so one ``take`` gathers the group.

    Yields ``(members, width, source)``, ``members`` ascending positions
    in ``slots``.
    """
    sources = list(map(_source, map(_shard, map(workers.__getitem__, slots))))
    codes = {id(source): code for code, source in enumerate(sources)}
    keys = widths[slots] * len(sources) + np.fromiter(
        map(codes.__getitem__, map(id, sources)),
        dtype=np.int64, count=len(sources),
    )
    order = np.argsort(keys, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        first = members[0]
        yield members, int(widths[slots[first]]), sources[first]


class BatchedExecutor(Executor):
    """Vectorize the per-worker compute across the worker axis."""

    name = "batched"
    never_dies = True

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
        self._worker_ids = list(map(_worker_id, workers))

    def _require_round(self, workers, after_forward: str | None = None):
        """The installed depth rounds; ``after_forward`` names a caller that
        needs the groups the first forward builds."""
        if self._worker_ids is None:
            raise RuntimeError("no bottom model installed on the batched executor")
        if list(map(_worker_id, workers)) != self._worker_ids:
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
        parts = []
        for depth_round in depth_rounds:
            features = None
            for group in depth_round.groups:
                outputs = group.model.forward(group.source.gather(group.rows[forward]))
                if features is None:
                    features = np.empty(
                        (depth_round.labels.shape[1], *outputs.shape[2:]),
                        dtype=outputs.dtype,
                    )
                features[group.segment_rows] = outputs.reshape(-1, *outputs.shape[2:])
            parts.append((
                Segments(features, depth_round.widths),
                Segments(depth_round.labels[forward], depth_round.widths),
            ))
        if len(parts) == 1:
            return parts[0]
        # Workers cut at several depths: interleave their segments back
        # into cohort order, one view per worker.
        features: list[np.ndarray | None] = [None] * len(workers)
        labels: list[np.ndarray | None] = [None] * len(workers)
        for depth_round, (round_features, round_labels) in zip(depth_rounds, parts):
            for slot, feature, label in zip(
                depth_round.slots, round_features, round_labels
            ):
                features[slot] = feature
                labels[slot] = label
        return features, labels

    def _draw(self, workers, batch_sizes, depth_rounds) -> None:
        """Draw the next forwards' rows: the installed ``iterations`` at
        the first forward of a round, one at any other.

        Each worker draws from its own loader, so the rows and the loader
        states are those of drawing one forward at a time, in any order;
        :func:`~repro.data.loader.draw_cohort` draws a whole shape group.
        """
        count = self._predraw or 1
        self._predraw = None
        widths = _draw_widths(workers, batch_sizes)
        for depth_round in depth_rounds:
            if depth_round.groups is None:
                depth_round.build_groups(workers, widths)
            elif not np.array_equal(widths[depth_round.slots], depth_round.widths):
                raise BatchSizeMismatchError(
                    f"forward asked for batch sizes {list(batch_sizes)}, but "
                    f"the installed groups were stacked for "
                    f"{self._drawn_sizes}"
                )
            labels = None
            for group in depth_round.groups:
                group.rows = draw_cohort(group.loaders, group.width, count)
                # ``mode="clip"`` only skips the bounds check: the rows are
                # the shards', range-checked against this very source when
                # they were cut.
                drawn = group.source.targets.take(group.rows, mode="clip")
                if labels is None:
                    labels = np.empty(
                        (count, int(depth_round.widths.sum())), dtype=drawn.dtype
                    )
                labels[:, group.segment_rows] = drawn.reshape(count, -1)
            depth_round.labels = labels
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
            received = Segments.of(
                gradients if len(depth_rounds) == 1
                else [gradients[slot] for slot in depth_round.slots]
            )
            if len(received) != len(depth_round.slots):
                raise ValueError(
                    f"{len(received)} gradients for {len(depth_round.slots)} workers"
                )
            mismatched = np.flatnonzero(received.sizes != depth_round.widths)
            if mismatched.size:
                first = mismatched[0]
                raise ValueError(
                    f"gradient batch {received.sizes[first]} does not match "
                    f"the pending forward batch {depth_round.widths[first]}"
                )
            trailing = received.flat.shape[1:]
            for group in depth_round.groups:
                # The stacked backward writes every parameter gradient.
                group.model.backward(received.flat[group.segment_rows].reshape(
                    len(group.slots), group.width, *trailing
                ))
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
        # Draw every worker's mini-batch sequence, a shape group at a time
        # (each loader draws as the serial loop's calls would).
        states: list[dict[str, np.ndarray] | None] = [None] * len(workers)
        losses = [0.0] * len(workers)
        widths = _draw_widths(workers, [batch_size] * len(workers))
        for members, width, source in _shape_groups(
            workers, widths, list(range(len(workers)))
        ):
            slots = members.tolist()
            rows = draw_cohort(
                list(map(_loader, map(workers.__getitem__, slots))), width, iterations
            )
            labels = source.targets.take(rows, mode="clip")
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
