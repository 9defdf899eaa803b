"""Sequential executor: one worker after another in the calling thread.

This is the reference backend.  It delegates straight to the
:class:`~repro.core.worker.SplitWorker` methods, so its behaviour *defines*
what the other executors must reproduce bit-exactly -- ``install``
included: every worker receives ``bottom.layers[:depth]``, and at the
global cut every depth is ``len(bottom)``.

The backend also implements the asynchronous dispatch protocol of the
scheduler's graph body (``supports_async_dispatch``): every primitive
executes immediately in call order, which is exactly the per-worker
ordering the protocol promises, and forwards that overtake pending
backwards go through the shared in-flight snapshot mechanics
(:mod:`repro.parallel.staleness`).  A serial run of the graph order is
therefore the *reference semantics* for process runs of it at every
staleness bound, just as the blocking serial run is for the exact ones.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.parallel.base import Executor
from repro.parallel.staleness import InflightQueue


class SerialExecutor(Executor):
    """Run every worker's computation sequentially (the historical semantics)."""

    name = "serial"
    supports_async_dispatch = True

    def __init__(self) -> None:
        #: The installed cohort's in-flight forwards of the async protocol.
        self._inflight: dict[int, InflightQueue] = {}
        #: Staged-but-unlaunched mini-batches, oldest first.
        self._staged: deque[list[tuple[np.ndarray, np.ndarray]]] = deque()
        #: Completed-but-uncollected forward results, oldest first.
        self._features: deque[tuple[list, list]] = deque()
        #: Completed-but-uncollected state collections, oldest first.
        self._states: deque[list] = deque()

    def install(self, workers, bottom, learning_rates, depths=None, wait=True) -> None:
        if depths is None:
            depths = [len(bottom)] * len(workers)
        # Runs immediately: in-process there is no acknowledgement for
        # ``wait`` to skip.  A failed graph-order round may leave
        # uncollected results behind; installing starts the round from a
        # clean slate, mirroring the process executor's recovery drain.
        self._staged.clear()
        self._features.clear()
        self._states.clear()
        for worker, lr, depth in zip(workers, learning_rates, depths):
            worker.receive_bottom_model(bottom[:depth], lr)
        # Rebuilt, not updated: queues of workers outside this cohort would
        # otherwise pile up, one per distinct participant of a lazy population.
        self._inflight = {worker.worker_id: InflightQueue() for worker in workers}

    def forward(self, workers, batch_sizes):
        features: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for worker, batch_size in zip(workers, batch_sizes):
            feats, labs = worker.forward_batch(batch_size)
            features.append(feats)
            labels.append(labs)
        return features, labels

    def backward_step(self, workers, gradients) -> None:
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

    # -- asynchronous dispatch (see repro.parallel.pipeline) ------------------
    def stage_forward(self, workers, batch_sizes) -> None:
        """Draw the next forward's mini-batches (in cohort order)."""
        self._staged.append([
            worker.draw_batch(batch_size)
            for worker, batch_size in zip(workers, batch_sizes)
        ])

    def launch_forward(self, workers) -> None:
        """Run the oldest staged forward now; it may overtake pending backwards."""
        if not self._staged:
            raise RuntimeError("launch_forward called with nothing staged")
        features: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for worker, (data, labs) in zip(workers, self._staged.popleft()):
            queue = self._inflight[worker.worker_id]
            features.append(queue.forward(worker.bottom, data))
            labels.append(labs)
        self._features.append((features, labels))

    def collect_forward(self, workers):
        """Oldest launched-but-uncollected forward's results."""
        if not self._features:
            raise RuntimeError("collect_forward called with no forward in flight")
        return self._features.popleft()

    def backward_step_nowait(self, workers, gradients) -> None:
        """Apply the oldest pending forward's (possibly delayed) backward."""
        for worker, gradient in zip(workers, gradients):
            self._inflight[worker.worker_id].backward(
                worker.bottom, worker.optimizer, gradient
            )

    def request_states(self, workers) -> None:
        """Capture the bottom states now; collected by ``collect_states``."""
        self._states.append(self.bottom_states(workers))

    def collect_states(self, workers):
        if not self._states:
            raise RuntimeError("collect_states called with no request in flight")
        return self._states.popleft()
