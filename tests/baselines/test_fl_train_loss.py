"""The FL engine's ``train_loss``: what local training computed, nothing more.

``RoundRecord.train_loss`` of a FedAvg / PyramidFL round is the mean, over
the workers whose reply was observed, of each worker's mean per-iteration
training loss -- handed back by ``Executor.train_full``.  The engine used to
deep-copy the global model and forward a 64-sample probe through every
returned state instead; the forward-count guard below keeps that pass from
coming back unnoticed.  (A round that observes no reply at all still records
``0.0``: ``tests/core/test_elastic_rounds.py::TestTotalDropout``.)
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.api.registry import EXECUTORS, register_executor
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.parallel import SerialExecutor


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="fedavg",
        dataset="blobs",
        model="mlp",
        num_workers=5,
        num_rounds=3,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=300,
        test_samples=80,
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        seed=3,
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _records(history) -> list[dict]:
    return [
        {key: value for key, value in dataclasses.asdict(record).items()
         if key not in WIRE_FIELDS}
        for record in history.records
    ]


def _hand_rolled_loss(worker, model: Sequential, config) -> float:
    """Mean per-iteration training loss of one worker's local round, written
    out longhand against ``worker``'s own loader."""
    local = model.clone()
    local.train()
    optimizer = SGD(
        local.parameters(), lr=config.learning_rate, momentum=worker.momentum,
        weight_decay=worker.weight_decay, max_grad_norm=worker.max_grad_norm,
    )
    loss_fn = CrossEntropyLoss()
    losses = []
    for __ in range(config.local_iterations):
        data, labels = worker.loader.next_batch(config.base_batch_size)
        optimizer.zero_grad()
        losses.append(loss_fn.forward(local.forward(data), labels))
        local.backward(loss_fn.backward())
        optimizer.step()
    return float(np.mean(losses))


# -- equivalence -----------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["fedavg", "pyramidfl"])
def test_sessions_agree_on_every_backend_including_train_loss(algorithm):
    """``auto`` (the stacked kernels on this dense model), ``serial`` and
    ``process`` give equal records -- ``train_loss`` included -- and weights."""
    runs = {}
    for executor in ("auto", "serial", "process"):
        config = _config(algorithm=algorithm, executor=executor)
        with Session.from_config(config) as session:
            history = session.run()
            runs[executor] = (
                session.components.executor.name, _records(history),
                session.global_model().state_dict(),
            )
    assert runs["auto"][0] == "batched"
    __, reference, reference_state = runs["serial"]
    assert all(record["train_loss"] > 0.0 for record in reference)
    for executor in ("auto", "process"):
        __, records, state = runs[executor]
        assert records == reference, executor
        for key, value in reference_state.items():
            assert np.array_equal(state[key], value), f"{executor}: {key}"


@pytest.mark.parametrize("algorithm", ["fedavg", "pyramidfl"])
def test_checkpoint_at_round_two_resumes_to_the_same_records(algorithm, tmp_path):
    config = _config(algorithm=algorithm, num_rounds=4)
    with Session.from_config(config) as session:
        reference = _records(session.run())
    path = tmp_path / "round2.ckpt.json"
    with Session.from_config(config) as session:
        session.run(2)
        session.save_checkpoint(path)
    with Session.load_checkpoint(path) as resumed:
        assert _records(resumed.run()) == reference


# -- oracle ----------------------------------------------------------------------

@pytest.mark.parametrize("executor", ["serial", "auto", "process"])
def test_train_loss_is_the_mean_of_the_workers_iteration_losses(executor):
    """Oracle: one round's ``train_loss`` equals the mean, over the selected
    workers, of a hand-rolled loop's mean per-iteration cross-entropy."""
    config = _config(executor=executor)
    with Session.from_config(config) as session:
        workers = copy.deepcopy(session.components.workers)
        model = session.global_model()
        record = session.step()
    assert record.selected_ids == [worker.worker_id for worker in workers]
    expected = np.mean([
        _hand_rolled_loss(worker, model, config) for worker in workers
    ])
    np.testing.assert_allclose(record.train_loss, expected, rtol=1e-12)


class _RecordingExecutor(SerialExecutor):
    """Serial, and remembers what every ``train_full`` call returned."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[list[int], list[float]]] = []

    def train_full(self, workers, *args, **kwargs):
        states, losses = super().train_full(workers, *args, **kwargs)
        self.calls.append(([worker.worker_id for worker in workers], losses))
        return states, losses


@pytest.fixture
def recording_executor():
    name = "recording_fl_test"
    built: list[_RecordingExecutor] = []

    @register_executor(name, description="serial + a train_full log (test)")
    def build(config):
        built.append(_RecordingExecutor())
        return built[-1]

    yield name, built
    EXECUTORS.unregister(name)


def test_a_dropped_worker_contributes_no_loss(recording_executor):
    """Elastic rule: a missing reply carries no loss observation -- the
    round's ``train_loss`` averages the completed workers' losses only."""
    name, built = recording_executor
    config = _config(
        executor=name, num_workers=8, num_rounds=4, dropout_rate=0.4,
    )
    with Session.from_config(config) as session:
        history = session.run()
    (executor,) = built
    assert any(record.dropped_ids for record in history.records)
    assert len(executor.calls) == len(history.records)
    for record, (worker_ids, losses) in zip(history.records, executor.calls):
        dropped = set(record.dropped_ids)
        observed = [
            loss for worker_id, loss in zip(worker_ids, losses)
            if worker_id not in dropped
        ]
        assert len(observed) + len(dropped) == len(worker_ids)
        expected = float(np.mean(observed)) if observed else 0.0
        assert record.train_loss == expected


# -- guard: one forward per trained sample -----------------------------------------

def test_one_round_forwards_each_trained_batch_once_and_clones_once_per_worker(
    monkeypatch,
):
    """A FedAvg round runs exactly ``workers x local_iterations`` training
    forwards plus ``ceil(test_samples / eval_batch_size)`` evaluation
    forwards, and clones the global model once per trained worker -- no
    probe pass over the returned states.  Training forwards run on clones
    through ``Sequential.forward``; evaluation walks the global model layer
    by layer, so its forwards are counted at the global model's first layer."""
    config = _config(executor="serial", test_samples=80, eval_batch_size=32)
    forwards: list[tuple[bool, int]] = []
    evaluation: list[int] = []
    clones: list[Module] = []
    forward, clone = Sequential.forward, Module.clone

    def counting_forward(self, inputs):
        forwards.append((self.training, inputs.shape[0]))
        return forward(self, inputs)

    def counting_clone(self):
        clones.append(self)
        return clone(self)

    with Session.from_config(config) as session:
        first_layer = session.algorithm.model.layers[0]
        layer_forward = type(first_layer).forward

        def counting_layer_forward(self, inputs):
            if self is first_layer:
                assert not self.training
                evaluation.append(inputs.shape[0])
            return layer_forward(self, inputs)

        monkeypatch.setattr(Sequential, "forward", counting_forward)
        monkeypatch.setattr(type(first_layer), "forward", counting_layer_forward)
        monkeypatch.setattr(Module, "clone", counting_clone)
        record = session.step()
        monkeypatch.undo()

    training = [batch for is_training, batch in forwards if is_training]
    assert len(training) == len(forwards)
    assert len(training) == record.num_selected * config.local_iterations
    assert sum(training) == (
        record.num_selected * config.local_iterations * config.base_batch_size
    )
    assert len(evaluation) == math.ceil(
        config.test_samples / config.eval_batch_size
    )
    assert sum(evaluation) == config.test_samples
    assert len(clones) == record.num_selected


# -- bounded failure for third-party backends ------------------------------------

class _LegacyExecutor(SerialExecutor):
    """A backend written against the old contract: bare list of states."""

    name = "legacy_fl_test"

    def train_full(self, *args, **kwargs):
        states, __ = super().train_full(*args, **kwargs)
        return states


@pytest.mark.parametrize("num_workers", [2, 5])
def test_an_executor_returning_bare_states_fails_the_first_round_by_name(
    num_workers,
):
    """Two workers is the shape a silent ``states, losses = [s0, s1]``
    mis-unpack would have slipped through."""
    name = _LegacyExecutor.name
    register_executor(name, description="old train_full contract (test)")(
        lambda config: _LegacyExecutor()
    )
    try:
        config = _config(executor=name, num_workers=num_workers)
        with Session.from_config(config) as session:
            with pytest.raises(TypeError) as error:
                session.step()
            assert session.rounds_completed == 0
    finally:
        EXECUTORS.unregister(name)
    message = str(error.value)
    assert "'legacy_fl_test' (_LegacyExecutor).train_full" in message
    assert "(states, losses)" in message
    assert "mean training loss" in message
    assert "got list" in message
