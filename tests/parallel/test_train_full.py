"""``Executor.train_full``: ``(states, losses)``, bit-equal on every backend.

Local full-model training hands back, next to each worker's updated state,
the mean of the training losses it computed on the way -- the FL engine
reports that instead of forwarding a probe batch through every returned
state.  These tests pin the executor-level contract: the return shape, that
serial / batched / process agree on states *and* losses bit for bit
(including a shard smaller than the batch, which splits the batched
executor's shape groups), and that the one shared loop
(:func:`repro.core.worker.train_local_model`) reports what a hand-rolled
loop computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.worker import SplitWorker, train_local_model
from repro.data.dataset import Dataset
from repro.nn.layers import BatchNorm1d, Dropout, Linear, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_alexnet_s, build_mlp
from repro.nn.module import Sequential
from repro.nn.optim import SGD
from repro.parallel import BatchedExecutor, ProcessExecutor, SerialExecutor
from repro.utils.rng import new_rng

CLASSES = 4
BATCH = 8
ITERATIONS = 3
LEARNING_RATE = 0.1

#: Per-worker shard sizes: every shard at least one batch, and one shard
#: (5 samples) smaller than the batch, whose draws are 5-sample batches.
SHARDS = {
    "full-batches": (40, 24, 16, 17),
    "short-shard": (40, 24, 5, 17),
}


def _mlp() -> Sequential:
    return build_mlp(12, CLASSES, hidden_dims=(16, 8), seed=1)


def _mlp_bn_dropout() -> Sequential:
    rngs = [new_rng(seed) for seed in (11, 12, 13)]
    return Sequential([
        Linear(12, 16, rng=rngs[0]),
        BatchNorm1d(16),
        ReLU(),
        Dropout(0.3, rng=rngs[1]),
        Linear(16, CLASSES, rng=rngs[2]),
    ])


def _alexnet_s() -> Sequential:
    return build_alexnet_s(num_classes=CLASSES, width=0.25, seed=2)


MODELS = {
    "mlp": (_mlp, (12,)),
    "mlp_bn_dropout": (_mlp_bn_dropout, (12,)),
    "alexnet_s": (_alexnet_s, (3, 32, 32)),
}


def _workers(shards, feature_shape) -> list[SplitWorker]:
    """Fresh workers with fixed shards and sampling seeds."""
    rng = new_rng(29)
    return [
        SplitWorker(
            worker_id,
            Dataset(
                rng.normal(size=(samples, *feature_shape)),
                rng.integers(0, CLASSES, size=samples),
                CLASSES,
            ),
            CLASSES,
            seed=100 + worker_id,
            momentum=0.9,
            weight_decay=1e-4,
        )
        for worker_id, samples in enumerate(shards)
    ]


def _train(executor, model_name: str, shards):
    build, feature_shape = MODELS[model_name]
    workers = _workers(shards, feature_shape)
    with executor:
        trained = executor.train_full(
            workers, build(), CrossEntropyLoss(), ITERATIONS, BATCH,
            LEARNING_RATE,
        )
    return trained, [worker.loader.state_dict() for worker in workers]


def _assert_same_training(reference, candidate, label: str) -> None:
    (ref_states, ref_losses), ref_loaders = reference
    (states, losses), loaders = candidate
    assert losses == ref_losses, label
    assert len(states) == len(ref_states)
    for ref_state, state in zip(ref_states, states):
        assert set(state) == set(ref_state)
        for key, value in ref_state.items():
            assert np.array_equal(state[key], value), f"{label}: {key}"
    # The sampling streams advanced identically, wherever the draws went.
    for ref_loader, loader in zip(ref_loaders, loaders):
        assert loader["cursor"] == ref_loader["cursor"], label
        assert np.array_equal(loader["order"], ref_loader["order"]), label


_BACKENDS = {
    "serial": SerialExecutor,
    "batched": BatchedExecutor,
    "process": lambda: ProcessExecutor(processes=2),
}
#: Everything that must reproduce the serial reference.
_CANDIDATES = sorted(set(_BACKENDS) - {"serial"})


@pytest.mark.parametrize("shards", sorted(SHARDS))
@pytest.mark.parametrize("backend", _CANDIDATES)
@pytest.mark.parametrize("model_name", ["mlp", "mlp_bn_dropout"])
def test_losses_and_states_bit_equal_on_dense_models(model_name, backend, shards):
    reference = _train(SerialExecutor(), model_name, SHARDS[shards])
    candidate = _train(_BACKENDS[backend](), model_name, SHARDS[shards])
    _assert_same_training(
        reference, candidate, f"{model_name}/{backend}/{shards}"
    )


@pytest.mark.parametrize("shards", sorted(SHARDS))
def test_losses_and_states_bit_equal_on_alexnet_s(shards):
    """Serial vs process on the conv model (``auto`` never stacks it)."""
    reference = _train(SerialExecutor(), "alexnet_s", SHARDS[shards])
    candidate = _train(ProcessExecutor(processes=2), "alexnet_s", SHARDS[shards])
    _assert_same_training(reference, candidate, f"alexnet_s/process/{shards}")


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_return_shape(backend):
    (states, losses), __ = _train(
        _BACKENDS[backend](), "mlp", SHARDS["short-shard"]
    )
    assert isinstance(states, list) and isinstance(losses, list)
    assert len(states) == len(losses) == len(SHARDS["short-shard"])
    assert all(type(loss) is float and np.isfinite(loss) for loss in losses)
    assert all(isinstance(state, dict) for state in states)


def test_loss_is_the_mean_of_the_iterations_losses():
    """Oracle: the reported loss is the mean of the per-iteration
    ``CrossEntropyLoss`` values of a hand-rolled loop on the same draws."""
    (states, losses), __ = _train(SerialExecutor(), "mlp", SHARDS["short-shard"])
    for worker, state, loss in zip(
        _workers(SHARDS["short-shard"], (12,)), states, losses
    ):
        local = _mlp()
        optimizer = SGD(
            local.parameters(), lr=LEARNING_RATE, momentum=worker.momentum,
            weight_decay=worker.weight_decay, max_grad_norm=worker.max_grad_norm,
        )
        loss_fn = CrossEntropyLoss()
        per_iteration = []
        for __ in range(ITERATIONS):
            data, labels = worker.loader.next_batch(BATCH)
            optimizer.zero_grad()
            per_iteration.append(loss_fn.forward(local.forward(data), labels))
            local.backward(loss_fn.backward())
            optimizer.step()
        np.testing.assert_allclose(loss, np.mean(per_iteration), rtol=1e-12)
        for key, value in local.state_dict().items():
            assert np.array_equal(state[key], value), key


def test_shared_loop_leaves_the_global_model_untouched():
    model = _mlp()
    before = {key: value.copy() for key, value in model.state_dict().items()}
    worker = _workers((16,), (12,))[0]
    state, loss = train_local_model(
        model, CrossEntropyLoss(),
        (worker.loader.next_batch(BATCH) for __ in range(2)),
        LEARNING_RATE, 0.0, 0.0, None,
    )
    assert loss > 0.0
    for key, value in before.items():
        assert np.array_equal(model.state_dict()[key], value)
        assert not np.array_equal(state[key], value)
    # No mini-batch, no loss observation.
    assert train_local_model(
        model, CrossEntropyLoss(), (), LEARNING_RATE, 0.0, 0.0, None
    )[1] == 0.0
