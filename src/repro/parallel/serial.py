"""Sequential executor: one worker after another in the calling thread.

This is the reference backend.  It delegates straight to the
:class:`~repro.core.worker.SplitWorker` methods, so its behaviour *defines*
what the other executors must reproduce bit-exactly -- ``install``
included: every worker receives ``bottom.layers[:depth]``, and at the
global cut every depth is ``len(bottom)``.  Every call runs to completion
before it returns, so there is no acknowledgement for ``wait`` to skip.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.base import Executor


class SerialExecutor(Executor):
    """Run every worker's computation sequentially (the historical semantics)."""

    name = "serial"
    never_dies = True

    def install(self, workers, bottom, learning_rates, depths=None, wait=True,
                loads=None, iterations=None) -> None:
        if depths is None:
            depths = [len(bottom)] * len(workers)
        for worker, lr, depth in zip(workers, learning_rates, depths):
            worker.receive_bottom_model(bottom[:depth], lr)

    def forward(self, workers, batch_sizes):
        features: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for worker, batch_size in zip(workers, batch_sizes):
            feats, labs = worker.forward_batch(batch_size)
            features.append(feats)
            labels.append(labs)
        return features, labels

    def backward_step(self, workers, gradients, wait=True) -> None:
        for worker, gradient in zip(workers, gradients):
            worker.backward_and_step(gradient)

    def bottom_states(self, workers):
        return [worker.bottom_state() for worker in workers]

    def train_full(self, workers, model, loss_fn, iterations, batch_size, learning_rate):
        trained = [
            worker.train_full_model(
                model, loss_fn, iterations, batch_size, learning_rate
            )
            for worker in workers
        ]
        return [state for state, __ in trained], [loss for __, loss in trained]
