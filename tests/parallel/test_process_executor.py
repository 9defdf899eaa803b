"""The process executor's child loop and failure handling.

``_child_main`` is normally unreachable for coverage (it runs in forked
children), so these tests drive it in-process through a scripted connector;
the death tests kill real pool processes mid-round and assert the parent
fails loudly instead of hanging.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.worker import SplitWorker
from repro.data.dataset import Dataset
from repro.data.synthetic import make_blobs
from repro.nn.layers import Linear, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.parallel.process import ProcessExecutor, _child_main
from repro.utils.rng import new_rng


class _ScriptedEndpoint:
    """Feeds a fixed command sequence to ``_child_main`` and records replies."""

    def __init__(self, script: list) -> None:
        self.script = list(script)
        self.replies: list = []
        self.closed = False

    def recv(self):
        if not self.script:
            raise EOFError
        return self.script.pop(0)

    def send(self, message, count=True) -> None:
        self.replies.append(message)

    def close(self, unlink: bool = False) -> None:
        self.closed = True


class _ScriptedConnector:
    def __init__(self, endpoint: _ScriptedEndpoint) -> None:
        self.endpoint = endpoint

    def connect(self) -> _ScriptedEndpoint:
        return self.endpoint


def _bottom() -> Sequential:
    return Sequential([Linear(32, 16, rng=new_rng(1)), ReLU()])


def _install_spec(worker_ids, lr=0.1, depth=2):
    """``(lr, momentum, weight_decay, max_grad_norm, depth)`` per worker;
    ``_bottom()`` has two layers, so the default depth is its tail."""
    return {wid: (lr, 0.0, 0.0, None, depth) for wid in worker_ids}


def _drive(script: list, sources: dict | None = None) -> _ScriptedEndpoint:
    """Run the child loop over ``(command, payload[, wants_reply])`` messages,
    holding ``sources`` as a pool child inherits them; the reply flag
    defaults to true."""
    endpoint = _ScriptedEndpoint(
        [message if len(message) == 3 else (*message, True) for message in script]
    )
    _child_main(_ScriptedConnector(endpoint), {} if sources is None else sources)
    assert endpoint.closed
    return endpoint


def _source(num_samples=16, features=32, classes=3, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(num_samples, features)),
        rng.integers(0, classes, size=num_samples),
        classes,
    )


def _rows(*values, key=0) -> tuple[int, np.ndarray]:
    """A drawn mini-batch as the parent sends it: ``(source key, rows)``."""
    return key, np.asarray(values, dtype=np.int64)


class TestChildLoop:
    def test_install_forward_backward_states_cycle(self):
        endpoint = _drive([
            ("install", (_bottom(), _install_spec([0]))),
            ("forward", {0: _rows(*range(8))}),
            ("backward", {0: 0.1 * np.ones((8, 16))}),
            ("states", [0]),
            ("close", None),
        ], sources={0: _source()})
        statuses = [status for status, __ in endpoint.replies]
        assert statuses == ["ok", "ok", "ok", "ok"]
        features = endpoint.replies[1][1][0]
        assert features.shape == (8, 16)
        states = endpoint.replies[3][1][0]
        assert set(states) == {"layer0.weight", "layer0.bias"}

    def test_forward_slices_the_held_shard(self):
        """The child's forward on sent rows equals forwarding the
        parent-side gather of the same rows of the source."""
        source = _source(seed=7)
        key, rows = _rows(3, 1, 4, 1)
        bottom = _bottom()
        endpoint = _drive([
            ("install", (bottom, _install_spec([0]))),
            ("forward", {0: (key, rows)}),
            ("close", None),
        ], sources={key: source})
        expected = bottom.clone().train().forward(source.gather(rows))
        assert np.array_equal(endpoint.replies[1][1][0], expected)

    def test_load_source_adds_a_source_the_child_did_not_inherit(self):
        source = _source(seed=3)
        key, rows = _rows(2, 0, 5, key=9)
        bottom = _bottom()
        endpoint = _drive([
            ("load_source", {key: source}),
            ("install", (bottom, _install_spec([0]))),
            ("forward", {0: (key, rows)}),
            ("close", None),
        ], sources={0: _source()})
        assert [status for status, __ in endpoint.replies] == ["ok", "ok", "ok"]
        expected = bottom.clone().train().forward(source.gather(rows))
        assert np.array_equal(endpoint.replies[2][1][0], expected)

    def test_install_carves_the_prefix_at_the_spec_depth(self):
        """A spec depth above the tail hosts ``bottom.layers[:depth]`` only."""
        source = _source(seed=7)
        key, rows = _rows(3, 1, 4, 1)
        bottom = Sequential([*_bottom().layers, Linear(16, 4, rng=new_rng(2))])
        endpoint = _drive([
            ("install", (bottom, {**_install_spec([0]), **_install_spec([1], depth=3)})),
            ("forward", {0: (key, rows), 1: (key, rows)}),
            ("states", [0, 1]),
            ("close", None),
        ], sources={key: source})
        features, states = endpoint.replies[1][1], endpoint.replies[2][1]
        for worker_id, depth in ((0, 2), (1, 3)):
            prefix = Sequential(bottom.layers[:depth]).clone().train()
            assert np.array_equal(
                features[worker_id], prefix.forward(source.gather(rows))
            )
            assert sorted(states[worker_id]) == sorted(prefix.state_dict())

    def test_aggregate_window_cycle(self):
        zeros = {0: np.zeros((4, 16)), 1: np.zeros((4, 16))}
        endpoint = _drive([
            ("install", (_bottom(), _install_spec([0, 1])), False),
            ("forward", {0: _rows(0, 1, 2, 3), 1: _rows(4, 5, 6, 7, key=1)}),
            ("backward", zeros, False),
            ("forward", {0: _rows(8, 9, 10, 11), 1: _rows(12, 13, 14, 15, key=1)}),
            ("backward", zeros, False),
            ("states", [0, 1]),
            ("close", None),
        ], sources={0: _source(), 1: _source(seed=1)})
        statuses = [status for status, __ in endpoint.replies]
        # install and backward were sent without wants_reply: only the two
        # forwards and the states answer.
        assert statuses == ["ok", "ok", "ok"]
        assert set(endpoint.replies[0][1]) == {0, 1}   # first forward's features
        assert set(endpoint.replies[1][1]) == {0, 1}   # second forward's features
        assert set(endpoint.replies[2][1]) == {0, 1}   # both stepped states

    def test_gradient_batch_mismatch_reported(self):
        endpoint = _drive([
            ("install", (_bottom(), _install_spec([0]))),
            ("forward", {0: _rows(*range(8))}),
            ("backward", {0: np.zeros((3, 16))}),
            ("close", None),
        ], sources={0: _source()})
        status, payload = endpoint.replies[-1]
        assert status == "error"
        assert "does not match the pending forward batch" in payload

    def test_unknown_command_reported(self):
        endpoint = _drive([("warp", None), ("close", None)])
        status, payload = endpoint.replies[-1]
        assert status == "error"
        assert "unknown executor command" in payload

    def test_a_hosted_bottom_steps_like_its_worker(self):
        """The child installs and steps a bottom with its worker's recipe
        (``local_training_copy``, ``local_step``): same rows and gradients,
        same features and weights."""
        source = _source(seed=5)
        bottom = _bottom()
        worker = SplitWorker(0, source, num_classes=3, momentum=0.9,
                             weight_decay=1e-3)
        worker.receive_bottom_model(bottom, 0.1)
        spec = {0: (0.1, 0.9, 1e-3, worker.max_grad_norm, 2)}
        script, features = [("install", (bottom, spec))], []
        rng = np.random.default_rng(2)
        for __ in range(2):
            rows, __ = worker.draw_batch_indices(4)
            features.append(worker.bottom.forward(source.gather(rows)))
            gradient = rng.normal(size=features[-1].shape)
            worker.backward_and_step(gradient)
            script += [("forward", {0: (0, rows)}), ("backward", {0: gradient})]
        endpoint = _drive([*script, ("states", [0]), ("close", None)],
                          sources={0: source})
        replies = [payload for __, payload in endpoint.replies]
        for expected, reply in zip(features, replies[1:5:2]):
            assert np.array_equal(reply[0], expected)
        hosted, expected = replies[-1][0], worker.bottom_state()
        assert sorted(hosted) == sorted(expected)
        for key in expected:
            assert np.array_equal(hosted[key], expected[key]), key

    @pytest.mark.parametrize("command", ["stage", "forward_staged"])
    def test_a_retired_round_command_is_unknown(self, command):
        """A round is ``install``, ``forward``, ``backward`` and ``states``;
        the staged forward of the retired bounded-staleness dispatch is no
        command at all."""
        endpoint = _drive([
            ("install", (_bottom(), _install_spec([0]))),
            (command, {0: _rows(0, 1, 2, 3)}),
            ("close", None),
        ], sources={0: _source()})
        status, payload = endpoint.replies[-1]
        assert status == "error"
        assert f"unknown executor command {command!r}" in payload

    def test_train_full_runs_local_iterations(self):
        model = Sequential([Linear(8, 3, rng=new_rng(4))])
        index_batches = [
            np.asarray([0, 1, 2, 3], dtype=np.int64),
            np.asarray([4, 5, 6, 7], dtype=np.int64),
        ]
        endpoint = _drive([
            ("train_full", (model, CrossEntropyLoss(), 2,
                            {5: (0, index_batches, 0.05, 0.0, 0.0, None)})),
            ("close", None),
        ], sources={0: _source(num_samples=8, features=8)})
        status, trained = endpoint.replies[-1]
        assert status == "ok"
        # One reply carries the worker's state and its mean training loss.
        state, loss = trained[5]
        assert not np.array_equal(
            state["layer0.weight"], model.state_dict()["layer0.weight"]
        )
        assert isinstance(loss, float) and 0.0 < loss < 10.0

    def test_no_reply_command_error_is_deferred_to_next_reply_slot(self):
        """A failing fire-and-forget command must not emit an unpaired reply;
        its error surfaces in the next replying command's slot."""
        endpoint = _drive([
            ("install", (_bottom(), _install_spec([0]))),
            ("forward", {0: _rows(*range(8))}),
            ("backward", {0: np.zeros((3, 16))}, False),  # wrong batch: fails
            ("ping", None),
            ("states", [0]),
            ("close", None),
        ], sources={0: _source()})
        statuses = [status for status, __ in endpoint.replies]
        # Exactly one reply per replying command: the ping slot carries the
        # deferred error, and states still answers afterwards.
        assert statuses == ["ok", "ok", "error", "ok"]
        assert "does not match the pending forward batch" in endpoint.replies[2][1]

    def test_install_resets_the_pending_forward(self):
        endpoint = _drive([
            ("install", (_bottom(), _install_spec([0]))),
            ("forward", {0: _rows(0, 1, 2, 3)}),
            ("install", (_bottom(), _install_spec([0]))),
            ("backward", {0: np.zeros((4, 16))}),   # nothing pending -> error
            ("close", None),
        ], sources={0: _source()})
        status, payload = endpoint.replies[-1]
        assert status == "error"
        assert "does not match the pending forward batch 0" in payload


def test_assignment_places_the_heaviest_first_on_the_least_loaded_child():
    """LPT over the loads ``install`` passes: heaviest worker first, each to
    the child carrying the least so far; equal loads (or none) deal the
    workers out in turn, whatever ids they carry and wherever they computed
    before."""
    from types import SimpleNamespace

    executor = ProcessExecutor(processes=2)
    executor._children = [SimpleNamespace() for __ in range(2)]  # no spawn
    try:
        def assign(ids, loads=None):
            executor._assign([SimpleNamespace(worker_id=i) for i in ids], loads)
            return [executor._assignment[wid] for wid in ids]

        # 7 -> child 0; 5 -> 1; 4 -> 1 (5 < 7); 3 -> 0 (7 < 9); 1 -> 1 (9 < 10).
        assert assign([10, 11, 12, 13, 14], [3, 7, 4, 5, 1]) == [0, 0, 1, 1, 1]
        # Round-robin by position would carry 8 and 12; LPT carries 10 and 10.
        assert assign([0, 1, 2, 3], [2, 2, 2, 2]) == [0, 1, 0, 1]
        assert assign([6, 4, 2], [5, 5, 9]) == [1, 1, 0]  # 9 -> 0; ties in order
        assert set(executor._assignment) == {6, 4, 2}

        executor._children = [SimpleNamespace() for __ in range(4)]
        assert assign([0, 8, 16, 24]) == [0, 1, 2, 3]   # all congruent mod 4
        assert assign([24, 16, 8, 0]) == [0, 1, 2, 3]   # no memory of homes
        assert assign([5, 6, 7, 8, 9, 10]) == [0, 1, 2, 3, 0, 1]
    finally:
        executor._children = None


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="only a forking pool inherits the parent's pages")
def test_a_forking_pool_releases_free_heap_before_each_spawn(monkeypatch):
    """Forked children map every page resident in the parent, so each pool
    start first hands the parent's free heap back to the OS."""
    from repro.parallel import process

    executor = ProcessExecutor(processes=1, start_method="fork")
    spawned_at_call: list[bool] = []
    monkeypatch.setattr(process, "release_free_heap",
                        lambda: spawned_at_call.append(executor._children is not None))
    workers = _make_workers()
    try:
        executor.install(workers, _bottom(), [0.1, 0.1])
        executor.install(workers, _bottom(), [0.1, 0.1])
        assert spawned_at_call == [False]
        executor.close()
        executor.install(workers, _bottom(), [0.1, 0.1])
        assert spawned_at_call == [False, False]
    finally:
        executor.close()


def _make_workers(count: int = 2) -> list[SplitWorker]:
    data = make_blobs(train_samples=40 * count, test_samples=20, seed=8)
    shard = len(data.train) // count
    return [
        SplitWorker(
            worker_id=index,
            dataset=data.train.subset(np.arange(index * shard, (index + 1) * shard)),
            num_classes=data.num_classes,
            seed=400 + index,
        )
        for index in range(count)
    ]


def test_child_error_in_asynchronous_round_is_recoverable():
    """A child-side error of a no-reply command surfaces through the next
    forward -- on every child, with every reply slot consumed -- and the
    next install recovers without blocking."""
    workers = _make_workers()
    bottom = _bottom()
    executor = ProcessExecutor(processes=2)
    try:
        executor.install(workers, bottom, [0.1, 0.1], wait=False)
        executor.forward(workers, [8, 8])
        bad = [np.zeros((3, 16)), np.zeros((3, 16))]   # wrong batch size
        executor.backward_step(workers, bad, wait=False)
        with pytest.raises(RuntimeError, match="does not match the pending"):
            executor.forward(workers, [8, 8])
        assert not executor._completions
        executor.install(workers, bottom, [0.1, 0.1])  # must not hang
        features, __ = executor.forward(workers, [8, 8])
        assert features[0].shape == (8, 16)
        executor.drain()
    finally:
        executor.close()


def test_completion_queue_pairs_replies_with_two_forwards_in_flight():
    """Two launched forwards and a state request in flight at once: each
    collection receives the reply of the oldest request, in dispatch order,
    and equals the blocking protocol's results."""
    bottom = _bottom()
    executor = ProcessExecutor(processes=2, capacity=1 << 20)
    reference = ProcessExecutor(processes=1)
    try:
        workers, twins = _make_workers(), _make_workers()
        executor.install(workers, bottom, [0.1, 0.1], wait=False)
        for __ in range(2):
            executor.launch_forward(workers, [8, 8])
        executor.request_states(workers)
        assert [entry[0] for entry in executor._completions] == [
            "forward", "forward", "states"
        ]
        first = executor.collect_forward(workers)
        second = executor.collect_forward(workers)
        states = executor.collect_states(workers)
        assert not executor._completions

        reference.install(twins, bottom, [0.1, 0.1])
        for features, labels in (first, second):
            expected, expected_labels = reference.forward(twins, [8, 8])
            for got, want in zip(features + labels, expected + expected_labels):
                assert np.array_equal(got, want)
        for got, want in zip(states, reference.bottom_states(twins)):
            assert all(np.array_equal(got[key], want[key]) for key in want)
    finally:
        executor.close()
        reference.close()


def test_install_recovery_survives_an_errored_abandoned_forward():
    """If the abandoned forward's queued reply is an error, the recovering
    install raises it -- and the *next* install proceeds instead of hanging
    on an already-consumed reply slot."""
    workers = _make_workers()
    bottom = _bottom()
    executor = ProcessExecutor(processes=1)
    try:
        executor.install(workers, bottom, [0.1, 0.1])
        bad = [np.zeros((3, 16)), np.zeros((3, 16))]   # nothing to step: fails
        executor.backward_step(workers, bad, wait=False)
        executor.launch_forward(workers, [8, 8])   # its reply slot: the error
        with pytest.raises(RuntimeError, match="does not match the pending"):
            executor.install(workers, bottom, [0.1, 0.1])
        assert not executor._completions
        executor.install(workers, bottom, [0.1, 0.1])  # must not hang
        features, __ = executor.forward(workers, [8, 8])
        assert features[0].shape == (8, 16)
    finally:
        executor.close()


def test_install_reconciles_abandoned_forward():
    """If a round dies between launch and collect (e.g. the top update
    raised), the next install consumes the orphaned features replies and
    the executor keeps working with correctly paired replies."""
    workers = _make_workers()
    bottom = _bottom()
    executor = ProcessExecutor(processes=1)
    try:
        executor.install(workers, bottom, [0.1, 0.1])
        executor.launch_forward(workers, [8, 8])
        # Parent-side failure here; collect_forward never happens.
        executor.install(workers, bottom, [0.1, 0.1])
        features, labels = executor.forward(workers, [8, 8])
        assert len(features) == 2 and features[0].shape == (8, 16)
        executor.backward_step(workers, [0.1 * f for f in features])
        assert len(executor.bottom_states(workers)) == 2
        executor.drain()
    finally:
        executor.close()


class TestWorkerDeath:
    def test_child_death_mid_round_raises(self):
        """Killing a pool process between commands surfaces as a RuntimeError
        on the next exchange (never a hang)."""
        workers = _make_workers()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, _bottom(), [0.1, 0.1])
            executor.forward(workers, [8, 8])
            child = executor._children[0]
            child.process.terminate()
            child.process.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died"):
                executor.forward(workers, [8, 8])
        finally:
            executor.close()

    def test_death_while_forward_in_flight(self):
        workers = _make_workers()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, _bottom(), [0.1, 0.1], wait=False)
            features, __ = executor.forward(workers, [8, 8])
            executor.backward_step(workers, [0.1 * f for f in features], wait=False)
            child = executor._children[0]
            child.process.terminate()
            child.process.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died"):
                executor.launch_forward(workers, [8, 8])
                executor.collect_forward(workers)
        finally:
            executor.close()

    def test_death_error_names_the_lost_workers(self):
        from repro.exceptions import ExecutorDeathError

        workers = _make_workers()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, _bottom(), [0.1, 0.1])
            child = executor._children[0]
            child.process.kill()
            child.process.join(timeout=5.0)
            with pytest.raises(ExecutorDeathError) as excinfo:
                executor.forward(workers, [8, 8])
            assert excinfo.value.worker_ids == [0, 1]
        finally:
            executor.close()

    def test_drain_and_checkpoint_after_death_do_not_hang(self):
        """The satellite regression: a dead child with work in flight used
        to make ``drain()`` block on a reply that would never come (and
        ``close()`` wait on a wedged queue).  Both must now return promptly
        so the engine can checkpoint after recovering the round."""
        workers = _make_workers()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, _bottom(), [0.1, 0.1])
            executor.launch_forward(workers, [8, 8])   # replies now in flight
            child = executor._children[0]
            child.process.kill()
            child.process.join(timeout=5.0)
            executor.drain()                   # must not raise or hang
            executor.drain()                   # idempotent on a dead pool
        finally:
            executor.close()                   # must not hang either
        assert executor._children is None

    def test_close_terminates_a_dirty_dead_pool_promptly(self):
        workers = _make_workers()
        executor = ProcessExecutor(processes=2)
        executor.install(workers, _bottom(), [0.1, 0.1], wait=False)
        executor.launch_forward(workers, [8, 8])
        executor._children[0].process.kill()
        executor._children[0].process.join(timeout=5.0)
        executor.close()
        assert executor._children is None
        assert executor._assignment == {}

    def test_pool_respawns_after_a_death_recovery_close(self):
        """After ``close()`` buries a dead pool, the next call lazily
        respawns children and reships shards -- the engine-level recovery
        path depends on this."""
        workers = _make_workers()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, _bottom(), [0.1, 0.1])
            child = executor._children[0]
            child.process.kill()
            child.process.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died"):
                executor.forward(workers, [8, 8])
            executor.close()
            executor.install(workers, _bottom(), [0.1, 0.1])
            features, __ = executor.forward(workers, [8, 8])
            assert features[0].shape == (8, 16)
        finally:
            executor.close()
