"""Multiprocess executor: per-worker compute fanned out to OS processes.

A small pool of persistent child processes each hosts the bottom models of
a subset of the selected workers.  Messages cross the process boundary
over :class:`~repro.parallel.transport.SharedMemoryTransport` channels:
the feature, gradient and state arrays go through shared-memory ring
buffers and only headers through a pipe.  The children run the very same
serial layer kernels, so the training trajectory is bit-identical to the
serial executor.

All checkpointed state stays in the parent: mini-batches are drawn from the
workers' loaders there, which keeps sampling RNG streams out of the
children.  Every payload crosses as it is -- a lossy link is simulated by
the round, in the parent -- and a child keeps nothing across rounds but the
datasets it was sent, so each round deals its workers out over the
children afresh.  A worker's shard is rows of a *source* dataset
(:class:`~repro.data.dataset.Shard`); messages carry the drawn rows, 8
bytes a sample, and the child gathers ``source.gather(rows)`` itself, the
same float64 rows as the parent's.  The pool starts its children with the
sources of its first install's workers as ``Process`` arguments: a forked
child reads the parent's float32 stores copy-on-write and never writes them,
a spawned one unpickles them once, float32 as they are (half the bytes of a
float64 copy).  A source a child lacks -- a worker built on another
dataset -- is sent to it once with the uncounted ``load_source`` command.
A forked child maps every page resident in the parent, so the pool first
returns the parent's free heap to the OS
(:func:`~repro.utils.mp.release_free_heap`).  For the same reason -- every
ring page is resident in both of its processes -- the pool fits its
rings to the largest message a round can carry before it opens the
channels (:meth:`ProcessExecutor._largest_message`), unless ``capacity``
(``extras["transport_capacity"]``) fixes their size.

Every message is ``(command, payload, wants_reply)``: whether a command is
acknowledged is data in the message.  A split round is four child
commands, one message per child each:

    ===============  ==========================================  ============
    call             message                                     reply
    ===============  ==========================================  ============
    install          ``install`` bottom + per-worker specs       ack
    forward          ``forward`` drawn rows                      features
    backward_step    ``backward`` dispatched gradients           ack
    bottom_states    ``states`` worker ids                       state dicts
    train_full       ``train_full`` model + row sequences        states+losses
    ===============  ==========================================  ============

An install spec is always ``(lr, momentum, weight_decay, max_grad_norm,
depth)``: the child carves ``bottom.layers[:depth]`` for every worker, and
the global cut is the spec whose depth is ``len(bottom)``.  A hosted bottom
steps exactly as a :class:`~repro.core.worker.SplitWorker` does
(:func:`~repro.core.worker.local_step`).

Each round deals its workers out by load: the engine passes every
worker's batch times its per-sample forward FLOPs through ``install``, and
:meth:`ProcessExecutor._assign` places the heaviest first, each on the
child with the least load so far (LPT).  Without loads every worker
weighs the same, which deals them out in turn.

Every round with local iterations and one aggregation runs in the
scheduler's aggregate window (``supports_async_dispatch``; see
:mod:`repro.parallel.pipeline`): it sends ``install`` and ``backward`` with
``wait=False`` -- no reply -- and calls ``forward`` and ``bottom_states``
as their two halves: ``launch_forward`` / ``request_states`` send
``forward`` / ``states`` and return, ``collect_forward`` /
``collect_states`` block for the reply.  Sent-but-uncollected requests are
tracked in a FIFO *completion queue*: per-child channels are ordered, so
popping the oldest entry and receiving one reply per involved child always
pairs replies with the right request.  A command sent without ``wants_reply``
defers any error it raises to the next replying command's reply slot, and
leaves the channel "dirty" until the next reply from that child;
:meth:`ProcessExecutor.drain` consumes the completion queue and pings
dirty children so checkpointing never races in-flight work.
"""

from __future__ import annotations

import math
import os
import traceback
from collections import deque

import numpy as np

from repro.exceptions import ExecutorDeathError, TransportError
from repro.utils.mp import get_mp_context, release_free_heap
from repro.parallel.base import Executor
from repro.parallel.transport import ChildConnector, SharedMemoryTransport
from repro.utils.logging import get_logger

logger = get_logger("parallel.process")

#: Upper bound on the default pool size; beyond this, process and transfer
#: overhead outweighs any parallelism at simulation scale.
DEFAULT_MAX_PROCESSES = 8

#: The command whose traffic is excluded from the wire-byte counters: a
#: source reaches a child at most once per pool lifetime, so counting it
#: would make per-round byte deltas depend on pool restarts.
_UNCOUNTED_COMMAND = "load_source"


def _child_main(connector: ChildConnector, sources: dict) -> None:
    """Child process loop: host bottom models / run local training on demand.

    ``sources`` maps a source key to the dataset the parent's shards index;
    the parent names the key beside every batch of rows it sends.
    """
    from repro.core.worker import local_step, local_training_copy, train_local_model

    endpoint = connector.connect()
    #: Worker id -> ``(model, optimizer)`` of the hosted bottoms.
    bottoms: dict[int, tuple] = {}
    #: Worker id -> batch size of the forward awaiting its backward.
    pending: dict[int, int] = {}

    def run_install(payload) -> None:
        bottom, specs = payload
        bottoms.clear()
        pending.clear()
        for worker_id, (*hyperparams, depth) in specs.items():
            # Exactly what ``SplitWorker.receive_bottom_model`` does with
            # the prefix the serial executor hands it.
            model, optimizer = local_training_copy(bottom[:depth], *hyperparams)
            bottoms[worker_id] = (model.without_kept_columns(), optimizer)

    def run_forward(worker_id: int, key: int, rows: np.ndarray) -> np.ndarray:
        pending[worker_id] = rows.shape[0]
        return bottoms[worker_id][0].forward(sources[key].gather(rows))

    #: Traceback of a failed no-reply command, delivered with the next
    #: replying command so reply pairing stays one-to-one.
    deferred_errors: list[str] = []
    try:
        while True:
            try:
                message = endpoint.recv()
            except (EOFError, OSError):
                break
            command, payload, wants_reply = message
            if command == "close":
                break
            if deferred_errors and wants_reply:
                # A fire-and-forget command failed earlier; report it in
                # this command's reply slot instead of executing (the
                # round's state is already inconsistent).
                endpoint.send(("error", "\n".join(deferred_errors)))
                deferred_errors.clear()
                continue
            try:
                reply = None
                if command == "load_source":
                    sources.update(payload)
                elif command == "install":
                    run_install(payload)
                elif command == "forward":
                    reply = {
                        worker_id: run_forward(worker_id, *drawn)
                        for worker_id, drawn in payload.items()
                    }
                elif command == "backward":
                    for worker_id, gradient in payload.items():
                        local_step(
                            *bottoms[worker_id], gradient, pending.pop(worker_id, 0)
                        )
                elif command == "states":
                    reply = {
                        worker_id: bottoms[worker_id][0].state_dict()
                        for worker_id in payload
                    }
                elif command == "ping":
                    pass
                elif command == "train_full":
                    # One reply frame: every hosted worker's
                    # ``(state, mean training loss)``.
                    model, loss_fn, __, tasks = payload
                    reply = {}
                    for worker_id, (key, row_batches, *hyperparams) in tasks.items():
                        source = sources[key]
                        reply[worker_id] = train_local_model(
                            model,
                            loss_fn,
                            ((source.gather(rows), source.targets[rows])
                             for rows in row_batches),
                            *hyperparams,
                        )
                else:
                    raise RuntimeError(f"unknown executor command {command!r}")
                if wants_reply:
                    endpoint.send(("ok", reply))
            except Exception:  # noqa: BLE001 - forwarded to the parent
                if wants_reply:
                    endpoint.send(("error", traceback.format_exc()))
                else:
                    deferred_errors.append(traceback.format_exc())
    finally:
        endpoint.close()


def _sources_of(workers) -> dict:
    """``{source key: dataset}`` of the datasets ``workers``' shards index."""
    return {id(worker.dataset.source): worker.dataset.source for worker in workers}


def _aligned(replies, workers) -> list:
    """Per-child ``{worker_id: value}`` replies, as a list aligned with
    ``workers``."""
    merged: dict[int, object] = {}
    for reply in replies:
        merged.update(reply)
    return [merged[worker.worker_id] for worker in workers]


class _Child:
    """Parent-side handle of one pool process.

    Tracks how many fire-and-forget commands are possibly still in flight:
    the channel is FIFO, so a reply to request R proves the child processed
    everything sent *before* R -- but not no-reply commands sent after R
    while its reply was pending.  Each replying request therefore snapshots
    the no-reply send counter, and its reply acknowledges exactly that
    prefix.
    """

    __slots__ = ("process", "endpoint", "sources", "noreply_sent",
                 "noreply_acked", "_request_snapshots", "dead")

    def __init__(self, process, endpoint, sources: dict) -> None:
        self.process = process
        self.endpoint = endpoint
        #: Source key -> dataset the child holds.  The references keep each
        #: key (the dataset's ``id``) unique for the child's lifetime.
        self.sources = sources
        self.noreply_sent = 0
        self.noreply_acked = 0
        self._request_snapshots: deque[int] = deque()
        #: Set when an exchange detects the process died; a dead channel is
        #: never read again (its pending replies will not arrive) and the
        #: process is terminated instead of gracefully closed.
        self.dead = False

    def record_send(self, expects_reply: bool) -> None:
        if expects_reply:
            self._request_snapshots.append(self.noreply_sent)
        else:
            self.noreply_sent += 1

    def record_reply(self) -> None:
        if self._request_snapshots:
            self.noreply_acked = self._request_snapshots.popleft()

    @property
    def dirty(self) -> bool:
        """Whether a no-reply command may still be unprocessed."""
        return self.noreply_sent > self.noreply_acked


class ProcessExecutor(Executor):
    """Run per-worker compute on a pool of persistent child processes."""

    name = "process"

    #: Over shared memory a no-reply install or gradient lands in a ring
    #: and the parent moves on, so every round can run the aggregate window.
    supports_async_dispatch = True

    def __init__(
        self,
        processes: int | None = None,
        start_method: str | None = None,
        capacity: int | None = None,
        max_batch_size: int | None = None,
        max_cohort: int | None = None,
    ) -> None:
        """``capacity`` fixes the per-direction ring size.  Without it,
        ``max_batch_size`` and ``max_cohort`` bound a round's traffic: with
        both given, the pool fits its rings to the largest message a round
        can carry (:meth:`_largest_message`); without, the rings keep
        ``DEFAULT_RING_CAPACITY``."""
        if processes is not None and processes <= 0:
            raise ValueError(f"processes must be positive, got {processes}")
        self._requested = processes
        self._start_method = start_method
        self._transport = SharedMemoryTransport(capacity)
        self._max_batch_size = max_batch_size
        self._max_cohort = max_cohort
        self._children: list[_Child] | None = None
        self._assignment: dict[int, int] = {}
        #: Completion queue: each launched forward or requested state
        #: collection not collected yet, oldest first, as ``(command, child
        #: indices, labels)``; only a forward has labels.
        self._completions: deque[tuple[str, tuple[int, ...], dict | None]] = deque()
        #: Wire and overflow byte totals of endpoints already closed, so
        #: the counters stay monotonic across pool restarts.
        self._retired_wire = 0
        self._retired_overflow = 0

    # -- pool lifecycle -------------------------------------------------------
    def _pool_size(self) -> int:
        if self._requested is not None:
            return self._requested
        return max(1, min(os.cpu_count() or 1, DEFAULT_MAX_PROCESSES))

    def _largest_message(self, model, workers) -> int | None:
        """Array bytes of the largest message one child sends or receives in
        a round, or ``None`` when the constructor was given no bounds.

        A child hosts about its share of the largest cohort (placement by
        load may deal it a few more; the ring's doubling absorbs them), and
        per hosted worker a message carries either its model's state (the
        ``states`` and ``train_full`` replies) or one iteration's features
        or gradients at ``max_batch_size`` and the deepest cut (``model``'s
        output; a policy that cuts shallower may overflow into the pipe,
        which :meth:`overflow_bytes` counts).  The mini-batch rows are 8
        bytes a sample and stay inline.
        """
        if self._max_batch_size is None or self._max_cohort is None or not workers:
            return None
        share = math.ceil(self._max_cohort / self._pool_size())
        state = sum(param.data.nbytes for param in model.parameters())
        probe = model.clone().eval()
        sample = np.zeros((1, *workers[0].dataset.feature_shape))
        features = probe.forward(sample).nbytes * self._max_batch_size
        return share * max(state, features)

    def _ensure_pool(self, workers, model) -> None:
        """Start the pool if it is not running, holding ``workers``' sources
        and with its channels fitted to ``model``'s traffic."""
        if self._children is None:
            largest = self._largest_message(model, workers)
            if largest is not None:
                self._transport.fit(largest)
            context = get_mp_context(self._start_method)
            if context.get_start_method() == "fork":
                release_free_heap()
            sources = _sources_of(workers)
            children = []
            for __ in range(self._pool_size()):
                endpoint, connector = self._transport.pair(context)
                process = context.Process(
                    target=_child_main, args=(connector, sources), daemon=True
                )
                process.start()
                connector.conn.close()
                endpoint.peer_check = self._make_peer_check(process)
                children.append(_Child(process, endpoint, dict(sources)))
            self._children = children
            logger.debug(
                "started %d executor processes (start method %s, rings of %d bytes)",
                len(children), context.get_start_method(), self._transport.capacity,
            )

    @staticmethod
    def _make_peer_check(process):
        def check() -> None:
            if not process.is_alive():
                raise TransportError(
                    f"executor process (pid {process.pid}) died mid-transfer"
                )
        return check

    def close(self) -> None:
        if self._children is None:
            return
        # Once any process died, the dirty siblings' protocol state cannot
        # be trusted either: a child may be blocked mid-reply on a channel
        # nobody will read again and would never process a graceful close.
        # Terminate those promptly instead of waiting out the join timeout.
        pool_dead = any(
            child.dead or not child.process.is_alive()
            for child in self._children
        )
        for child in self._children:
            if (child.dead or not child.process.is_alive()
                    or (pool_dead and child.dirty)):
                child.process.terminate()
                continue
            try:
                child.endpoint.send(("close", None, False))
            except (BrokenPipeError, OSError, TransportError):
                child.process.terminate()
        for child in self._children:
            child.process.join(timeout=5.0)
            if child.process.is_alive():  # pragma: no cover - defensive cleanup
                child.process.terminate()
                child.process.join(timeout=5.0)
            self._retired_wire += child.endpoint.bytes_on_wire
            self._retired_overflow += child.endpoint.bytes_overflowed
            child.endpoint.close(unlink=True)
        self._children = None
        self._assignment = {}
        self._completions.clear()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # -- messaging ------------------------------------------------------------
    def _assign(self, workers, loads=None) -> dict[int, dict]:
        """Distribute the round's workers over the running pool; returns
        per-child ``{worker_id: worker}``.

        Longest processing time first: the workers in decreasing ``loads``
        (ties in the order given), each to the child with the least load so
        far (ties to the lowest index).  Equal loads -- ``loads`` omitted --
        deal the workers out in turn.  Nothing a child holds outlives the
        round but the sources it was sent, so placement needs no memory
        across rounds.
        """
        if loads is None:
            loads = [1] * len(workers)
        placed: dict[int, dict] = {index: {} for index in range(len(self._children))}
        carried = [0] * len(self._children)
        self._assignment = {}
        for position in sorted(range(len(workers)), key=lambda i: -loads[i]):
            child = carried.index(min(carried))
            carried[child] += loads[position]
            worker = workers[position]
            self._assignment[worker.worker_id] = child
            placed[child][worker.worker_id] = worker
        return placed

    def _ship_sources(self, placed: dict[int, dict]) -> None:
        """Send each child the sources of its workers it does not hold yet
        (the pool starts with its first install's): once per child and source."""
        messages = {}
        for index, hosted in placed.items():
            held = self._children[index].sources
            missing = {
                key: source for key, source in _sources_of(hosted.values()).items()
                if key not in held
            }
            if missing:
                messages[index] = ("load_source", missing)
                held.update(missing)
        if messages:
            self._broadcast(messages)

    def _workers_on(self, index: int) -> list[int]:
        """Worker ids of the current round homed on one pool process."""
        return sorted(
            worker_id for worker_id, child_index in self._assignment.items()
            if child_index == index
        )

    def _send(self, index: int, message: tuple, expects_reply: bool) -> None:
        child = self._children[index]
        command = message[0]
        try:
            child.endpoint.send(
                (*message, expects_reply), count=command != _UNCOUNTED_COMMAND
            )
        except (BrokenPipeError, OSError, TransportError) as error:
            child.dead = True
            raise ExecutorDeathError(
                f"executor process {index} (pid {child.process.pid}) died",
                worker_ids=self._workers_on(index),
            ) from error
        child.record_send(expects_reply)

    def _recv(self, index: int, count: bool = True):
        child = self._children[index]
        try:
            status, payload = child.endpoint.recv(count=count)
        except (EOFError, OSError, TransportError) as error:
            child.dead = True
            raise ExecutorDeathError(
                f"executor process {index} (pid {child.process.pid}) died",
                worker_ids=self._workers_on(index),
            ) from (None if isinstance(error, EOFError) else error)
        child.record_reply()
        if status == "error":
            raise RuntimeError(f"executor process {index} failed:\n{payload}")
        return payload

    def _broadcast(self, messages: dict[int, tuple]) -> dict[int, object]:
        """Send one message per child, then collect every reply."""
        for index, message in messages.items():
            self._send(index, message, expects_reply=True)
        return self._gather(messages)

    def _gather(self, indices) -> dict[int, object]:
        """One reply from each child of ``indices``.

        Every reply slot is consumed before the first failure is raised, so
        a failed exchange (a deferred error, a dead child) leaves no reply
        behind to pair with a later request.
        """
        replies: dict[int, object] = {}
        failure: RuntimeError | None = None
        for index in indices:
            try:
                replies[index] = self._recv(index)
            except RuntimeError as error:
                failure = failure or error
        if failure is not None:
            raise failure
        return replies

    def _dispatch(self, messages: dict[int, tuple], wait: bool) -> None:
        """Send one message per child; block for the acknowledgements only
        when ``wait`` (without, errors defer to the next reply)."""
        if wait:
            self._broadcast(messages)
            return
        for index, message in messages.items():
            self._send(index, message, expects_reply=False)

    def _by_child(self, workers, values) -> dict[int, dict[int, object]]:
        """Group ``{worker_id: value}`` by the child hosting each worker."""
        grouped: dict[int, dict[int, object]] = {}
        for worker, value in zip(workers, values):
            grouped.setdefault(
                self._assignment[worker.worker_id], {}
            )[worker.worker_id] = value
        return grouped

    def _draw(self, workers, batch_sizes):
        """Draw the next mini-batches: per-child ``{worker_id: (source key,
        rows)}`` payloads and ``{worker_id: labels}``."""
        drawn = [
            worker.draw_batch_indices(batch_size)
            for worker, batch_size in zip(workers, batch_sizes)
        ]
        keyed = [(id(w.dataset.source), rows) for w, (rows, __) in zip(workers, drawn)]
        labels = {w.worker_id: batch for w, (__, batch) in zip(workers, drawn)}
        return self._by_child(workers, keyed), labels

    # -- split training -------------------------------------------------------
    def _consume_abandoned_replies(self, tolerate_death: bool = False) -> None:
        """Discard replies a failed round left between dispatch and collect.

        The completion queue's replies must be consumed before any new
        request, or every later reply would pair with the wrong command.
        As in collect_states, each entry is popped before receiving: the
        reply slots are spent even when _recv raises.

        With ``tolerate_death`` the drain keeps going past dead children
        (their channel is dirty and will never produce the reply) instead
        of re-raising: a checkpoint after a child death must not hang on
        replies that cannot arrive.  Genuine remote errors ("error"-status
        replies from live children) still raise either way.
        """
        while self._completions:
            __, indices, __ = self._completions.popleft()
            for index in indices:
                if tolerate_death and self._children[index].dead:
                    continue
                try:
                    self._recv(index)
                except ExecutorDeathError:
                    if not tolerate_death:
                        raise

    def install(self, workers, bottom, learning_rates, depths=None, wait=True,
                loads=None, iterations=None) -> None:
        """Assign workers by ``loads``, send unseen sources, send one install
        per child.

        Every worker's spec is ``(lr, momentum, weight_decay, max_grad_norm,
        depth)`` and the child carves ``bottom.layers[:depth]`` before
        cloning.  One message per child keeps the install atomic there: a
        child resets all its hosted bottoms on every install command, so
        per-depth-group messages would wipe each other.  Sending a source
        always synchronises -- it happens at most once per child and
        source -- but with ``wait`` false the install itself is
        fire-and-forget; errors defer to the next reply.
        """
        if depths is None:
            depths = [len(bottom)] * len(workers)
        self._consume_abandoned_replies()
        self._ensure_pool(workers, bottom)
        placed = self._assign(workers, loads)
        self._ship_sources(placed)
        specs = {
            worker.worker_id: (
                lr, worker.momentum, worker.weight_decay, worker.max_grad_norm,
                depth,
            )
            for worker, lr, depth in zip(workers, learning_rates, depths)
        }
        messages = {
            index: (
                "install",
                (bottom, {worker_id: specs[worker_id] for worker_id in hosted}),
            )
            for index, hosted in placed.items() if hosted
        }
        self._dispatch(messages, wait)

    def forward(self, workers, batch_sizes):
        self.launch_forward(workers, batch_sizes)
        return self.collect_forward(workers)

    def backward_step(self, workers, gradients, wait=True) -> None:
        self._dispatch({
            index: ("backward", shard)
            for index, shard in self._by_child(workers, gradients).items()
        }, wait)

    def bottom_states(self, workers):
        self.request_states(workers)
        return self.collect_states(workers)

    # -- the aggregate window's halves (see repro.parallel.pipeline) ---------
    def launch_forward(self, workers, batch_sizes) -> None:
        """Draw the next mini-batches and start the bottom forward.

        :meth:`collect_forward` blocks for the features.  The scheduler's
        aggregate window calls the two halves itself, so the parent's wait
        on the children is a call of its own.
        """
        by_child, labels = self._draw(workers, batch_sizes)
        self._request("forward", by_child, labels)

    def collect_forward(self, workers):
        """Block for the launched forward's features (and labels)."""
        labels, features = self._collect("forward", workers)
        return features, [labels[worker.worker_id] for worker in workers]

    def request_states(self, workers) -> None:
        """Ask for the bottom states; the reply is collected later.

        Dispatched after the round's final backwards: per-child FIFO means
        the states the children capture include every local update, while
        the parent is free to run accounting and next-round planning before
        blocking in :meth:`collect_states`.
        """
        by_child = self._by_child(workers, [w.worker_id for w in workers])
        self._request("states", {index: list(ids) for index, ids in by_child.items()})

    def collect_states(self, workers):
        """Block for the oldest in-flight state collection."""
        return self._collect("states", workers)[1]

    def _request(self, command: str, payloads: dict[int, object], labels=None) -> None:
        """Send ``command`` to each child of ``payloads``; its replies wait in
        the completion queue."""
        indices = tuple(sorted(payloads))
        for index in indices:
            self._send(index, (command, payloads[index]), expects_reply=True)
        self._completions.append((command, indices, labels))

    def _collect(self, command: str, workers) -> tuple[dict | None, list]:
        """``(labels, replies aligned with workers)`` of the oldest request,
        which must be a ``command``."""
        if not self._completions or self._completions[0][0] != command:
            raise RuntimeError(f"collect called with no {command} request in flight")
        # Pop before receiving: whatever the replies are, these slots are
        # spent -- leaving the entry queued would make install()'s recovery
        # drain block on replies that will never come.
        __, indices, labels = self._completions.popleft()
        return labels, _aligned(self._gather(indices).values(), workers)

    def drain(self) -> None:
        """Wait until every child has processed all in-flight commands.

        Replies abandoned by a failed round (the scheduler always collects
        within a healthy one) are consumed and discarded, so checkpointing
        right after a round error still works -- all checkpointable state
        lives in the parent.
        """
        if self._children is None:
            return
        self._consume_abandoned_replies(tolerate_death=True)
        for index, child in enumerate(self._children):
            if child.dirty and not child.dead:
                try:
                    self._send(index, ("ping", None), expects_reply=True)
                    self._recv(index)
                except ExecutorDeathError:
                    # The child died with commands in flight; there is
                    # nothing to wait for and all checkpointable state is
                    # parent-side, so draining the survivors suffices.
                    continue

    # -- transport accounting -------------------------------------------------
    def transport_stats(self) -> dict[str, int]:
        """Cumulative array-payload bytes moved across the process boundary.

        Sums both directions over every channel of the pool, including
        channels already retired by a pool restart, so engines can take
        per-round deltas.  Sources sent to a child are excluded (see
        ``_UNCOUNTED_COMMAND``), which keeps the deltas identical across
        pool sizes, ring sizes and checkpoint/resume.  Arrays cross raw, so
        the logical bytes are the wire bytes.
        """
        wire = self._retired_wire
        if self._children is not None:
            wire += sum(child.endpoint.bytes_on_wire for child in self._children)
        return {"bytes_on_wire": wire, "logical_bytes": wire}

    def overflow_bytes(self) -> int:
        """Cumulative array bytes that missed a ring and took the pipe.

        Counted as :meth:`transport_stats` counts (both directions, every
        channel, sources excluded).  Nonzero means the rings are smaller
        than the traffic: see ``extras["transport_capacity"]``.
        """
        overflow = self._retired_overflow
        if self._children is not None:
            overflow += sum(
                child.endpoint.bytes_overflowed for child in self._children
            )
        return overflow

    # -- full-model (FL) training ---------------------------------------------
    def train_full(self, workers, model, loss_fn, iterations, batch_size, learning_rate):
        self._ensure_pool(workers, model)
        placed = self._assign(workers)
        self._ship_sources(placed)
        messages = {}
        for index, hosted in placed.items():
            if not hosted:
                continue
            tasks = {
                worker_id: (
                    id(worker.dataset.source),
                    [worker.loader.next_indices(batch_size)
                     for __ in range(iterations)],
                    learning_rate, worker.momentum, worker.weight_decay,
                    worker.max_grad_norm,
                )
                for worker_id, worker in hosted.items()
            }
            messages[index] = ("train_full", (model, loss_fn, iterations, tasks))
        trained = _aligned(self._broadcast(messages).values(), workers)
        return [state for state, __ in trained], [loss for __, loss in trained]
