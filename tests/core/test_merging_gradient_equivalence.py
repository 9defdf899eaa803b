"""Oracle for the paper's central claim: feature merging is one large batch.

N workers with unequal batch sizes ``d_i`` forward identical bottom models,
the PS merges the features, takes one top-model step and dispatches the
gradient segments (``forward`` -> ``SplitServer.update_top_merged`` ->
``backward``).  Then

* the top model's gradient equals the unsplit model's top gradient on the
  concatenated batch, and
* the ``d_i``-weighted mean of the workers' bottom gradients equals the
  unsplit model's bottom gradient on the concatenated batch

(Eq. 15-17: each dispatched segment is rescaled to the mean over the
worker's own samples, and aggregation weights by ``d_i``).  Typical SFL's
sequential per-worker top updates (``update_top_per_worker``) satisfy
neither, which is the point of merging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.server import SplitServer
from repro.core.worker import SplitWorker
from repro.data.dataset import Dataset
from repro.experiments.gradients import _flat_grads
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_cnn_h, build_mlp, default_split_layer
from repro.nn.module import Sequential
from repro.nn.split import split_model

NUM_CLASSES = 4
BATCH_SIZES = [3, 7, 5, 11]

#: name -> (registry name, model without Dropout, per-sample input shape).
MODELS = {
    "mlp": ("mlp", lambda: build_mlp(12, NUM_CLASSES, (16, 8), seed=1), (12,)),
    "conv": (
        "cnn_h",
        lambda: build_cnn_h(NUM_CLASSES, in_channels=2, sequence_length=16,
                            width=0.5, seed=1),
        (2, 16),
    ),
}


def _split_round(split, input_shape, update: str):
    """One split iteration; returns the drawn batches and both gradients."""
    rng = np.random.default_rng(5)
    # No gradient clipping anywhere: SGD clips ``param.grad`` in place.
    server = SplitServer(split.bottom, split.top, learning_rate=0.1,
                         max_grad_norm=None)
    workers = []
    for worker_id in range(len(BATCH_SIZES)):
        shard = Dataset(
            rng.normal(size=(40, *input_shape)),
            rng.integers(0, NUM_CLASSES, size=40), NUM_CLASSES,
        )
        worker = SplitWorker(worker_id, shard, NUM_CLASSES, seed=worker_id,
                             max_grad_norm=None)
        worker.receive_bottom_model(server.global_bottom, learning_rate=0.1)
        workers.append(worker)
    batches = [
        worker.draw_batch(batch) for worker, batch in zip(workers, BATCH_SIZES)
    ]
    features = [
        worker.bottom.forward(data) for worker, (data, _) in zip(workers, batches)
    ]
    worker_ids = [worker.worker_id for worker in workers]
    _, gradients = getattr(server, update)(
        worker_ids, features, [labels for _, labels in batches]
    )
    for worker in workers:
        worker.backward_and_step(gradients[worker.worker_id])
    weights = np.asarray(BATCH_SIZES, dtype=np.float64)
    bottom = sum(
        weight * _flat_grads(worker.bottom)
        for weight, worker in zip(weights, workers)
    ) / weights.sum()
    return batches, _flat_grads(server.top), bottom


def _unsplit_gradients(split, batches):
    """Top and bottom gradients of the whole model on the concatenated batch."""
    bottom, top = split.bottom.clone(), split.top.clone()
    full = Sequential(list(bottom.layers) + list(top.layers))
    full.train()
    loss_fn = CrossEntropyLoss()
    loss_fn.forward(
        full.forward(np.concatenate([data for data, _ in batches])),
        np.concatenate([labels for _, labels in batches]),
    )
    full.backward(loss_fn.backward())
    return _flat_grads(top), _flat_grads(bottom)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_merged_update_is_the_concatenated_batch_gradient(name):
    registry_name, build, input_shape = MODELS[name]
    model = build()
    split = split_model(model, default_split_layer(registry_name, model))
    batches, top, bottom = _split_round(split, input_shape, "update_top_merged")
    expected_top, expected_bottom = _unsplit_gradients(split, batches)
    assert np.abs(expected_top).max() > 1e-3 and np.abs(expected_bottom).max() > 1e-3
    np.testing.assert_allclose(top, expected_top, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(bottom, expected_bottom, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_per_worker_updates_are_not_the_concatenated_batch_gradient(name):
    registry_name, build, input_shape = MODELS[name]
    model = build()
    split = split_model(model, default_split_layer(registry_name, model))
    batches, top, bottom = _split_round(split, input_shape, "update_top_per_worker")
    expected_top, expected_bottom = _unsplit_gradients(split, batches)
    assert not np.allclose(top, expected_top, rtol=1e-3, atol=1e-6)
    assert not np.allclose(bottom, expected_bottom, rtol=1e-3, atol=1e-6)
