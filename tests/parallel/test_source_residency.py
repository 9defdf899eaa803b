"""What crosses the process executor's boundary now that shards are rows.

A forked pool's children read the training array they inherited, so no
message carries a sample; a spawned pool unpickles it once per child and
trains to the serial records; a worker built on a dataset the pool has not
seen gets that dataset once per child, with the uncounted ``load_source``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core.worker import SplitWorker
from repro.data.dataset import Dataset
from repro.data.synthetic import make_blobs
from repro.metrics.history import WIRE_FIELDS
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Sequential
from repro.parallel.process import ProcessExecutor
from repro.utils.rng import new_rng


def _spy_sends(monkeypatch) -> list[tuple]:
    """Record every ``(command, payload)`` the parent sends a child."""
    sent: list[tuple] = []
    send = ProcessExecutor._send

    def spied(self, index, message, expects_reply):
        sent.append(message)
        return send(self, index, message, expects_reply)

    monkeypatch.setattr(ProcessExecutor, "_send", spied)
    return sent


def _arrays_and_datasets(payload):
    """Every ndarray and ``Dataset`` inside a message payload's containers."""
    if isinstance(payload, (np.ndarray, Dataset)):
        yield payload
    elif isinstance(payload, dict):
        for value in payload.values():
            yield from _arrays_and_datasets(value)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            yield from _arrays_and_datasets(value)


def _records(session) -> list[dict]:
    return [
        {k: v for k, v in asdict(record).items() if k not in WIRE_FIELDS}
        for record in session.history.records
    ]


def _run(config) -> list[dict]:
    with Session.from_config(config) as session:
        session.run()
        return _records(session)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="only a forked child inherits the parent's arrays")
def test_a_forked_pool_sends_no_sample(monkeypatch):
    config = ExperimentConfig(
        algorithm="mergesfl", dataset="cifar10", model="alexnet_s",
        model_width=0.25, num_workers=4, num_rounds=2, local_iterations=2,
        max_batch_size=8, base_batch_size=4, train_samples=96,
        test_samples=16, seed=5, executor="process",
        extras={"executor_processes": 2, "executor_start_method": "fork"},
    )
    sent = _spy_sends(monkeypatch)
    records = _run(config)
    commands = {command for command, __ in sent}
    assert {"install", "forward"} <= commands
    assert "load_source" not in commands
    sample_shape = (3, 32, 32)
    for command, payload in sent:
        for value in _arrays_and_datasets(payload):
            assert not isinstance(value, Dataset), command
            assert value.shape[1:] != sample_shape, (command, value.shape)
            assert len(value) < config.train_samples, (command, value.shape)
    monkeypatch.undo()
    assert records == _run(config.replace(executor="serial", extras={}))


@pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot spawn")
def test_a_spawned_pool_trains_to_the_serial_records():
    config = ExperimentConfig(
        dataset="blobs", model="mlp", num_workers=4, num_rounds=2,
        local_iterations=2, train_samples=120, test_samples=30, seed=3,
        executor="process",
        extras={"executor_processes": 1, "executor_start_method": "spawn"},
    )
    assert _run(config) == _run(config.replace(executor="serial", extras={}))


def _workers_on(source: Dataset, ids) -> list[SplitWorker]:
    return [
        SplitWorker(worker_id, source.subset(np.arange(8 * i, 8 * i + 8)),
                    source.num_classes, seed=worker_id)
        for i, worker_id in enumerate(ids)
    ]


def test_a_source_the_pool_has_not_seen_is_sent_once_per_child(monkeypatch):
    """The pool starts with its first install's source; another dataset is
    sent to the children whose workers read it, once, and the forwards on
    it equal the serial executor's."""
    first = make_blobs(train_samples=32, test_samples=4, seed=1).train
    other = make_blobs(train_samples=32, test_samples=4, seed=2).train
    bottom = Sequential([Linear(32, 8, rng=new_rng(1)), ReLU()])
    sent = _spy_sends(monkeypatch)
    executor = ProcessExecutor(processes=2)
    try:
        executor.install(_workers_on(first, [0, 1]), bottom, [0.1, 0.1])
        assert [command for command, __ in sent] == ["install", "install"]
        workers = _workers_on(first, [0, 1]) + _workers_on(other, [2, 3])
        for __ in range(2):
            executor.install(workers, bottom, [0.1] * 4)
        shipped = [payload for command, payload in sent if command == "load_source"]
        assert len(shipped) == 2 and all(set(p) == {id(other)} for p in shipped)
        features, labels = executor.forward(workers, [4] * 4)
    finally:
        executor.close()
    twins = _workers_on(first, [0, 1]) + _workers_on(other, [2, 3])
    for twin in twins:
        twin.receive_bottom_model(bottom, 0.1)
    for twin, got, got_labels in zip(twins, features, labels):
        want, want_labels = twin.forward_batch(4)
        assert np.array_equal(got, want) and np.array_equal(got_labels, want_labels)
