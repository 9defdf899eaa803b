"""Worker-local mechanics of bounded-staleness execution.

Under a relaxed schedule (the graph body of
:class:`~repro.parallel.pipeline.PipelineScheduler` at ``staleness >= 1``)
the bottom forward of iteration ``k+1`` may execute *before* the backward of
iteration ``k`` has been applied.  That breaks the invariant the plain
``forward -> backward -> step`` path relies on: a layer's ``backward``
consumes the activation caches of its matching ``forward``, and a newer
forward overwrites them.

:class:`InflightQueue` restores well-defined semantics with per-iteration
snapshots, the worker-side equivalent of activation stashing in
asynchronous pipeline training:

* A forward that runs while an older forward still awaits its backward is
  executed on a *snapshot* (a clone) of the current weights.  The snapshot
  keeps both the weights the forward used and its activation caches alive
  until the delayed gradient arrives.  Stateful forward effects -- RNG
  streams, BatchNorm running statistics -- are mirrored back onto the
  master model, so they advance exactly once per forward in execution
  order regardless of snapshotting.
* A delayed backward back-propagates through its own snapshot (consistent
  weights and caches), then applies the resulting gradient to the *master*
  weights through the master optimizer -- classic delayed-gradient
  semantics: a gradient computed at version ``k - s`` updates version
  ``k`` (clipping, weight decay and momentum all act on the master).

When no forward is in flight, both paths collapse to the ordinary direct
``forward``/``backward`` on the master model, bit-identical to the
synchronous executors -- which is why the process executor can route *all*
its traffic through this queue without perturbing exact schedules.

Everything here is deterministic: the numbers depend only on the dispatch
order, never on timing, so a serial and a process run of the same relaxed
schedule stay bit-identical.  The queue holds only intra-round scratch
state; every relaxed schedule drains it before aggregation, so checkpoints
(taken at round boundaries) never see an in-flight snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.nn.module import Sequential
from repro.nn.optim import SGD
from repro.nn.serialization import load_module_extra_state, module_extra_state


@dataclass
class InflightForward:
    """One forward awaiting its (possibly delayed) backward.

    ``snapshot`` is ``None`` when the forward ran directly on the master
    model (no older forward was pending); otherwise it is the clone that
    holds the forward's weights and activation caches.
    """

    snapshot: Sequential | None
    batch_size: int


class InflightQueue:
    """FIFO of forwards whose backwards have not been applied yet.

    A stepped master holds no forward state: the direct path clears it
    after the step, and a snapshot's state goes with its popped entry.
    """

    def __init__(self) -> None:
        self._entries: deque[InflightForward] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all in-flight snapshots (fresh install / recovery)."""
        self._entries.clear()

    def forward(self, master: Sequential, data: np.ndarray) -> np.ndarray:
        """Run one bottom forward, snapshotting when it overtakes a backward."""
        if not self._entries:
            features = master.forward(data)
            self._entries.append(InflightForward(None, data.shape[0]))
            return features
        snapshot = master.clone()
        features = snapshot.forward(data)
        # Stateful forward effects advance on the master exactly once per
        # forward; only the *weights* the forward saw are stale.
        load_module_extra_state(master, module_extra_state(snapshot))
        self._entries.append(InflightForward(snapshot, data.shape[0]))
        return features

    def backward(
        self, master: Sequential, optimizer: SGD, gradient: np.ndarray
    ) -> None:
        """Apply the oldest pending forward's backward and step the master."""
        if not self._entries:
            raise RuntimeError("no forward is pending a backward")
        entry = self._entries.popleft()
        if gradient.shape[0] != entry.batch_size:
            raise ValueError(
                f"gradient batch {gradient.shape[0]} does not "
                f"match the pending forward batch {entry.batch_size}"
            )
        if entry.snapshot is None:
            optimizer.zero_grad()
            master.backward(gradient)
            optimizer.step()
            master.clear_forward_state()
            return
        snapshot = entry.snapshot
        snapshot.zero_grad()
        snapshot.backward(gradient)
        # Delayed gradient: computed on the snapshot's (stale) weights,
        # applied to the master's current ones.  Clone preserves parameter
        # order, so a positional transfer is exact.
        for target, source in zip(master.parameters(), snapshot.parameters()):
            target.grad = source.grad
        optimizer.step()
