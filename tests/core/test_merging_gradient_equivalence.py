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

The same holds with per-worker cut depths: workers cut above the tail
upload shallower features the server completes through a bridge, and the
merged update is still the unsplit model's step on the concatenated batch
-- every dispatched segment is the unsplit per-sample gradient *at that
worker's own cut*, rescaled to the worker's own mean.
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
from repro.nn.split import candidate_split_depths, split_model

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


def _cohort(split, input_shape, depths=None):
    """A server and workers holding its bottom -- each worker's prefix of it
    under ``depths`` -- with their drawn batches and uploaded features."""
    rng = np.random.default_rng(5)
    # No gradient clipping anywhere: SGD clips ``param.grad`` in place.  The
    # server trains what it is handed, and ``split`` stays the reference.
    server = SplitServer(split.bottom.clone(), split.top.clone(),
                         learning_rate=0.1, max_grad_norm=None)
    workers = []
    for worker_id in range(len(BATCH_SIZES)):
        shard = Dataset(
            rng.normal(size=(40, *input_shape)),
            rng.integers(0, NUM_CLASSES, size=40), NUM_CLASSES,
        )
        worker = SplitWorker(worker_id, shard, NUM_CLASSES, seed=worker_id,
                             max_grad_norm=None)
        bottom = server.global_bottom
        worker.receive_bottom_model(
            bottom if depths is None else bottom[:depths[worker_id]],
            learning_rate=0.1,
        )
        workers.append(worker)
    batches = [
        worker.draw_batch(batch) for worker, batch in zip(workers, BATCH_SIZES)
    ]
    features = [
        worker.bottom.forward(data) for worker, (data, _) in zip(workers, batches)
    ]
    return server, workers, batches, features


def _split_round(split, input_shape, update: str):
    """One split iteration; returns the drawn batches and both gradients."""
    server, workers, batches, features = _cohort(split, input_shape)
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


def _per_depth_round(update: str):
    """One iteration on ``cnn_h`` with workers cut at depth 3 and at the tail.

    Depths interleave, so the per-depth merge groups reorder the cohort.
    Returns the split, the depths, the drawn batches, the top gradient and
    the dispatched per-worker segments.
    """
    __, build, input_shape = MODELS["conv"]
    model = build()
    split = split_model(model, default_split_layer("cnn_h", model))
    tail = len(split.bottom)
    assert 3 in candidate_split_depths(split.bottom) and tail > 3
    depths = {0: 3, 1: tail, 2: 3, 3: tail}
    server, __, batches, features = _cohort(split, input_shape, depths)
    server.install_bridges(set(depths.values()))
    __, gradients = getattr(server, update)(
        list(depths), features, [labels for __, labels in batches], depths
    )
    return split, depths, batches, _flat_grads(server.top), gradients


def _unsplit_gradients_at(split, batches, depth):
    """The unsplit model on the concatenated batch: its top gradient and the
    per-sample gradient w.r.t. the activations after ``depth`` bottom layers."""
    bottom, top = split.bottom.clone(), split.top.clone()
    head = Sequential(bottom.layers[:depth])
    rest = Sequential(list(bottom.layers[depth:]) + list(top.layers))
    head.train(), rest.train()
    loss_fn = CrossEntropyLoss()
    loss_fn.forward(
        rest.forward(head.forward(np.concatenate([data for data, __ in batches]))),
        np.concatenate([labels for __, labels in batches]),
    )
    at_cut = rest.backward(loss_fn.backward())
    return _flat_grads(top), at_cut


def _expected_segments(split, depths, batches):
    """Each worker's rows of the unsplit gradient at its own cut, rescaled
    from the concatenated batch's mean to the worker's own."""
    total = sum(BATCH_SIZES)
    offsets = np.concatenate([[0], np.cumsum(BATCH_SIZES)])
    at_cut = {
        depth: _unsplit_gradients_at(split, batches, depth)[1]
        for depth in set(depths.values())
    }
    return {
        worker_id: at_cut[depth][offsets[worker_id]:offsets[worker_id + 1]]
        * (total / BATCH_SIZES[worker_id])
        for worker_id, depth in depths.items()
    }


def test_merged_update_at_per_worker_depths_is_the_concatenated_batch_gradient():
    split, depths, batches, top, gradients = _per_depth_round("update_top_merged")
    expected_top, __ = _unsplit_gradients_at(split, batches, len(split.bottom))
    assert np.abs(expected_top).max() > 1e-3
    np.testing.assert_allclose(top, expected_top, rtol=1e-10, atol=1e-14)
    for worker_id, expected in _expected_segments(split, depths, batches).items():
        assert np.abs(expected).max() > 1e-3
        np.testing.assert_allclose(
            gradients[worker_id], expected, rtol=1e-10, atol=1e-14
        )


def test_per_worker_updates_at_per_worker_depths_are_not():
    """Through a bridge as at the tail: only the first worker sees the
    weights the concatenated batch would have."""
    split, depths, batches, top, gradients = _per_depth_round("update_top_per_worker")
    expected_top, __ = _unsplit_gradients_at(split, batches, len(split.bottom))
    assert not np.allclose(top, expected_top, rtol=1e-3, atol=1e-6)
    expected = _expected_segments(split, depths, batches)
    np.testing.assert_allclose(gradients[0], expected[0], rtol=1e-10, atol=1e-14)
    for worker_id in (2, 3):  # one through the depth-3 bridge, one at the tail
        assert not np.allclose(
            gradients[worker_id], expected[worker_id], rtol=1e-3, atol=1e-6
        )
