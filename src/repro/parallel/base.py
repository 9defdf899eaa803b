"""The executor interface: how engines run per-worker computation.

MergeSFL models workers as physically distinct devices whose bottom-model
computation happens concurrently; the training engines, however, only
describe *what* every selected worker must compute each iteration.  An
:class:`Executor` decides *how* that per-worker computation is carried
out -- one worker after another in the calling thread
(:class:`~repro.parallel.serial.SerialExecutor`), vectorized across the
worker axis in single numpy kernels
(:class:`~repro.parallel.batched.BatchedExecutor`), or fanned out to a pool
of OS processes (:class:`~repro.parallel.process.ProcessExecutor`).

All executors are *semantically interchangeable*: for a fixed seed they
must produce bit-identical training trajectories.  The contract keeps every
piece of checkpointed state (data loaders, participation counters, RNG
streams) inside the engine/worker objects; executors only hold per-round
scratch state that is rebuilt by :meth:`Executor.install` (the one install:
cut depths and the acknowledgement are arguments, the paper's global cut
omits both), which is why switching executors never invalidates a checkpoint.

Split-training call sequence, per round, as the scheduler drives it
(``SplitTrainingEngine._run_stages``)::

    install(workers, bottom, lrs, depths)  # distribute the bottom prefixes
    repeat tau times:
        forward(workers, batch_sizes)      # features for the PS
        ... top-model update on the PS ...
        backward_step(workers, gradients)  # dispatched gradients + SGD step
    bottom_states(workers)                 # collect for aggregation

Backends that set :attr:`Executor.supports_async_dispatch` also run the
scheduler's aggregate window (:mod:`repro.parallel.pipeline`), the same
sequence with fewer waits::

    install(..., depths, wait=False)       # no acknowledgement
    repeat tau times:
        launch_forward(workers, batch_sizes)   # forward, in two halves
        collect_forward(workers)
        backward_step(workers, gradients, wait=False)
    request_states(workers)                # ask for the bottom states ...
    collect_states(workers)                # ... block for them later

Full-model call sequence, per round (``FLTrainingEngine._run_stages``)::

    train_full(workers, model, loss_fn, iterations, batch_size, lr)
        -> (states, losses)                # updated models + mean train loss
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.worker import SplitWorker
    from repro.nn.module import Sequential


class Executor(abc.ABC):
    """Execution backend for the per-worker compute of one training round."""

    #: Registry name of the backend (also used in logs and error messages).
    name: str = "abstract"

    #: Whether the backend implements the asynchronous protocol of the
    #: scheduler's aggregate window: ``install(wait=False)``,
    #: ``launch_forward`` + ``collect_forward``,
    #: ``backward_step(..., wait=False)`` and ``request_states`` +
    #: ``collect_states``.  The contract is ordering, not timing: commands
    #: execute per worker in dispatch order, so skipping an acknowledgement
    #: never changes the numbers.  Backends without the capability leave
    #: this ``False``; the scheduler then runs its blocking order.
    supports_async_dispatch: bool = False

    # -- split training -------------------------------------------------------
    @abc.abstractmethod
    def install(
        self,
        workers: "list[SplitWorker]",
        bottom: "Sequential",
        learning_rates: list[float],
        depths: list[int] | None = None,
        wait: bool = True,
    ) -> None:
        """Distribute fresh copies of the global bottom model to ``workers``.

        Worker ``i`` receives the prefix ``bottom.layers[:depths[i]]``;
        ``depths`` omitted puts every worker at ``len(bottom)``, the
        paper's global cut.  Equivalent to
        ``worker.receive_bottom_model(prefix, lr)`` for every worker: each
        starts the round from the global parameters and a freshly zeroed
        optimizer, with its own (batch-size-scaled) learning rate.

        ``wait=False`` lets a backend with :attr:`supports_async_dispatch`
        skip the acknowledgement (the scheduler's aggregate window asks for
        that); every other backend ignores it.
        """

    @abc.abstractmethod
    def forward(
        self, workers: "list[SplitWorker]", batch_sizes: list[int]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Run every worker's bottom model on its next local mini-batch.

        Returns:
            ``(features, labels)`` lists aligned with ``workers``; the
            features are the split-layer activations sent to the PS.
        """

    @abc.abstractmethod
    def backward_step(
        self,
        workers: "list[SplitWorker]",
        gradients: list[np.ndarray],
        wait: bool = True,
    ) -> None:
        """Back-propagate dispatched gradients and take the local SGD steps.

        ``wait`` means what it means for :meth:`install`.
        """

    @abc.abstractmethod
    def bottom_states(
        self, workers: "list[SplitWorker]"
    ) -> list[dict[str, np.ndarray]]:
        """State dicts of the locally updated bottom models, for aggregation."""

    # -- full-model (FL) training ---------------------------------------------
    @abc.abstractmethod
    def train_full(
        self,
        workers: "list[SplitWorker]",
        model: "Sequential",
        loss_fn,
        iterations: int,
        batch_size: int,
        learning_rate: float,
    ) -> tuple[list[dict[str, np.ndarray]], list[float]]:
        """Train the full ``model`` locally on every worker (FedAvg-style).

        Returns:
            ``(states, losses)``, both aligned with ``workers``: the locally
            updated state dicts (the caller owns aggregation) and each
            worker's mean training loss over its ``iterations`` mini-batches
            -- the per-iteration ``loss_fn.forward`` values the training
            loop computes anyway, so the engine never runs a second forward
            pass to report :attr:`RoundRecord.train_loss`.  Like the states,
            the losses are bit-identical across backends.
        """

    # -- lifecycle ------------------------------------------------------------
    def drain(self) -> None:
        """Block until no asynchronously dispatched work is in flight.

        Engines call this before capturing checkpoint state so such a round
        can never race the state capture.  Backends without asynchronous
        dispatch have nothing to wait for.
        """

    def close(self) -> None:
        """Release backend resources (worker processes, pools); idempotent."""

    # -- transport accounting -------------------------------------------------
    def transport_stats(self) -> dict[str, int] | None:
        """Cumulative wire traffic, or ``None`` for in-process backends.

        Backends that move payloads across a process boundary return
        ``{"bytes_on_wire": ..., "logical_bytes": ...}`` monotonic
        counters; engines record per-round deltas in
        :class:`~repro.metrics.history.RoundRecord`.
        """
        return None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
