"""Tests for feature merging, gradient dispatching, workers and the server."""

import numpy as np
import pytest

from repro.core.merging import Dispatched, FeatureMerger, Segments
from repro.core.server import SplitServer
from repro.core.worker import SplitWorker
from repro.data.synthetic import make_blobs
from repro.exceptions import ShapeError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_mlp
from repro.nn.split import split_model
from repro.utils.rng import new_rng


@pytest.fixture
def merger():
    return FeatureMerger()


class TestFeatureMerger:
    def test_merge_concatenates_in_worker_order(self, merger):
        feats = [np.ones((2, 4)), np.zeros((3, 4))]
        labels = [np.array([0, 1]), np.array([2, 2, 2])]
        merged = merger.merge([7, 9], feats, labels)
        assert merged.total_samples == 5
        assert merged.worker_ids == [7, 9]
        assert merged.segment_sizes == [2, 3]
        assert np.allclose(merged.features[:2], 1.0)
        assert np.allclose(merged.features[2:], 0.0)

    def test_dispatch_inverts_merge(self, merger):
        feats = [np.ones((2, 4)), np.zeros((3, 4))]
        labels = [np.array([0, 1]), np.array([2, 2, 2])]
        merged = merger.merge([1, 2], feats, labels)
        gradient = np.arange(20, dtype=np.float64).reshape(5, 4)
        segments = merger.dispatch(merged, gradient)
        assert np.allclose(np.concatenate([segments[1], segments[2]]), gradient)
        assert segments[1].shape == (2, 4)
        assert segments[2].shape == (3, 4)

    def test_merge_rejects_empty(self, merger):
        with pytest.raises(ShapeError):
            merger.merge([], [], [])

    def test_merge_rejects_feature_label_mismatch(self, merger):
        with pytest.raises(ShapeError):
            merger.merge([0], [np.ones((2, 4))], [np.array([1])])

    def test_merge_rejects_inconsistent_feature_shapes(self, merger):
        with pytest.raises(ShapeError):
            merger.merge(
                [0, 1], [np.ones((2, 4)), np.ones((2, 5))],
                [np.zeros(2, dtype=int), np.zeros(2, dtype=int)],
            )

    def test_dispatch_rejects_wrong_batch(self, merger):
        merged = merger.merge([0], [np.ones((2, 4))], [np.array([0, 1])])
        with pytest.raises(ShapeError):
            merger.dispatch(merged, np.ones((3, 4)))


class TestSegments:
    def test_segments_are_views_of_one_array(self):
        arrays = [np.ones((2, 3)), np.zeros((0, 3)), np.full((4, 3), 2.0)]
        segments = Segments.of(arrays)
        assert segments.sizes.tolist() == [2, 0, 4]
        assert len(segments) == 3
        assert segments.flat.tobytes() == np.concatenate(arrays).tobytes()
        for got, array in zip(segments, arrays):
            assert np.shares_memory(got, segments.flat) or got.size == 0
            assert got.tobytes() == array.tobytes()
        assert segments[-1].tobytes() == arrays[-1].tobytes()
        with pytest.raises(IndexError):
            segments[3]
        assert Segments.of(segments) is segments

    def test_mismatched_trailing_shapes_are_a_shape_error(self):
        with pytest.raises(ShapeError, match="inconsistent shapes"):
            Segments.of([np.ones((2, 4)), np.ones((2, 5))])

    def test_merging_segments_takes_their_array_as_it_is(self, merger):
        features = Segments(np.arange(12.0).reshape(6, 2), [1, 3, 2])
        labels = Segments(np.arange(6), [1, 3, 2])
        merged = merger.merge([4, 2, 9], features, labels)
        assert merged.features is features.flat
        assert merged.labels is labels.flat
        assert merged.segment_sizes == [1, 3, 2]
        mismatched = Segments(np.arange(6), [2, 2, 2])
        with pytest.raises(ShapeError, match="worker 4"):
            merger.merge([4, 2, 9], features, mismatched)

    def test_a_dispatch_hands_out_its_segments_in_any_order(self, merger):
        merged = merger.merge(
            [4, 2, 9], [np.ones((1, 2)), np.ones((3, 2)), np.ones((2, 2))],
            [np.zeros(1), np.zeros(3), np.zeros(2)],
        )
        gradient = np.arange(12.0).reshape(6, 2)
        dispatched = merger.dispatch(merged, gradient)
        assert isinstance(dispatched, Dispatched)
        assert list(dispatched) == [4, 2, 9]
        assert dispatched.in_order([4, 2, 9]) is dispatched.segments
        reordered = dispatched.in_order([9, 4, 2])
        assert [segment.tobytes() for segment in reordered] == [
            gradient[4:].tobytes(), gradient[:1].tobytes(), gradient[1:4].tobytes()
        ]


def _worker(worker_id=0, samples=60, seed=0):
    data = make_blobs(train_samples=samples, test_samples=10, seed=seed)
    return SplitWorker(worker_id, data.train, num_classes=4, seed=seed), data


class TestSplitWorker:
    def test_label_distribution_sums_to_one(self):
        worker, __ = _worker()
        dist = worker.local_label_distribution()
        assert dist.shape == (4,)
        assert np.isclose(dist.sum(), 1.0)

    def test_forward_requires_model(self):
        worker, __ = _worker()
        with pytest.raises(RuntimeError):
            worker.forward_batch(4)

    def test_forward_backward_updates_bottom(self, tiny_mlp):
        worker, __ = _worker()
        split = split_model(tiny_mlp, 2)
        worker.receive_bottom_model(split.bottom, learning_rate=0.1)
        before = worker.bottom_state()
        features, labels = worker.forward_batch(8)
        assert features.shape[0] == 8 and labels.shape == (8,)
        worker.backward_and_step(np.ones_like(features))
        after = worker.bottom_state()
        assert any(
            not np.allclose(before[key], after[key]) for key in before
        )

    def test_backward_batch_mismatch_raises(self, tiny_mlp):
        worker, __ = _worker()
        split = split_model(tiny_mlp, 2)
        worker.receive_bottom_model(split.bottom, learning_rate=0.1)
        features, __labels = worker.forward_batch(8)
        with pytest.raises(ValueError):
            worker.backward_and_step(np.ones((4, features.shape[1])))

    def test_a_step_drops_the_forward_state(self, tiny_mlp):
        worker, __ = _worker()
        worker.receive_bottom_model(split_model(tiny_mlp, 2).bottom, learning_rate=0.1)
        features, __ = worker.forward_batch(8)
        assert any(layer._forward_state is not None for layer in worker.bottom.layers)
        worker.backward_and_step(np.ones_like(features))
        assert all(layer._forward_state is None for layer in worker.bottom.layers)

    def test_receive_bottom_model_is_a_copy(self, tiny_mlp):
        worker, __ = _worker()
        split = split_model(tiny_mlp, 2)
        worker.receive_bottom_model(split.bottom, learning_rate=0.1)
        worker.bottom.parameters()[0].data[:] = 0.0
        assert not np.allclose(split.bottom.parameters()[0].data, 0.0)

    def test_only_the_workers_copy_drops_the_input_gradient(self, tiny_mlp):
        """The model a worker was handed -- the server's global bottom, the
        FL engine's global model -- still differentiates w.r.t. its input."""
        worker, data = _worker()
        split = split_model(tiny_mlp, 2)
        worker.receive_bottom_model(split.bottom, learning_rate=0.1)
        features, __ = worker.forward_batch(8)
        assert worker.bottom.backward(np.ones_like(features)) is None
        worker.train_full_model(
            tiny_mlp, CrossEntropyLoss(), iterations=1, batch_size=8,
            learning_rate=0.1,
        )
        for model in (split.bottom, tiny_mlp):
            out = model.forward(data.train.data[:8])
            assert model.backward(np.ones_like(out)).shape == (8, 32)

    def test_train_full_model_reduces_loss(self, tiny_mlp):
        worker, data = _worker(samples=200)
        loss_fn = CrossEntropyLoss()
        state, loss = worker.train_full_model(
            tiny_mlp, loss_fn, iterations=30, batch_size=32, learning_rate=0.2
        )
        # The mean over the 30 training mini-batches: finite, and below the
        # untrained model's ln(4) because the later iterations fit better.
        assert 0.0 < loss < np.log(4)
        trained = tiny_mlp.clone()
        trained.load_state_dict(state)
        trained.eval()
        logits = trained.forward(data.train.data)
        accuracy = (logits.argmax(axis=1) == data.train.targets).mean()
        assert accuracy > 0.5


def _server_setup(seed=0):
    model = build_mlp(input_dim=32, num_classes=4, hidden_dims=(32, 16), seed=seed)
    split = split_model(model, 2)
    server = SplitServer(split.bottom, split.top, learning_rate=0.1)
    return server, split


class TestSplitServer:
    def test_merged_update_returns_per_worker_gradients(self):
        server, split = _server_setup()
        rng = new_rng(0)
        feats = [split.bottom.forward(rng.normal(size=(4, 32))) for __ in range(3)]
        labels = [rng.integers(0, 4, size=4) for __ in range(3)]
        loss, grads = server.update_top_merged([0, 1, 2], feats, labels)
        assert loss > 0
        assert set(grads) == {0, 1, 2}
        assert all(grads[w].shape == feats[i].shape for i, w in enumerate([0, 1, 2]))

    def test_merged_update_changes_top_parameters(self):
        server, split = _server_setup()
        before = server.top.state_dict()
        rng = new_rng(0)
        feats = [split.bottom.forward(rng.normal(size=(6, 32)))]
        server.update_top_merged([0], feats, [rng.integers(0, 4, size=6)])
        after = server.top.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_dispatched_gradients_are_rescaled_per_worker(self):
        # A worker's segment must equal the gradient of the loss averaged over
        # its own samples, independent of how many other workers merged.
        server_solo, split = _server_setup(seed=1)
        server_pair, __ = _server_setup(seed=1)
        rng = new_rng(3)
        x_a = rng.normal(size=(4, 32))
        y_a = rng.integers(0, 4, size=4)
        x_b = rng.normal(size=(8, 32))
        y_b = rng.integers(0, 4, size=8)
        feats_a = split.bottom.forward(x_a)
        feats_b = split.bottom.forward(x_b)
        __, solo = server_solo.update_top_merged([0], [feats_a], [y_a])
        __, pair = server_pair.update_top_merged([0, 1], [feats_a, feats_b], [y_a, y_b])
        assert np.allclose(solo[0], pair[0], atol=1e-9)

    def test_per_worker_update_path(self):
        server, split = _server_setup()
        rng = new_rng(0)
        feats = [split.bottom.forward(rng.normal(size=(4, 32))) for __ in range(2)]
        labels = [rng.integers(0, 4, size=4) for __ in range(2)]
        loss, grads = server.update_top_per_worker([5, 6], feats, labels)
        assert loss > 0 and set(grads) == {5, 6}

    def test_aggregate_bottoms_weighted(self):
        server, split = _server_setup()
        state_a = {k: np.zeros_like(v) for k, v in split.bottom.state_dict().items()}
        state_b = {k: np.ones_like(v) for k, v in split.bottom.state_dict().items()}
        server.aggregate_bottoms([state_a, state_b], weights=[1.0, 3.0])
        aggregated = server.global_bottom.state_dict()
        assert all(np.allclose(v, 0.75) for v in aggregated.values())

    def test_evaluate_returns_accuracy_and_loss(self):
        server, __ = _server_setup()
        data = make_blobs(train_samples=10, test_samples=40, seed=0)
        accuracy, loss = server.evaluate(data.test)
        assert 0.0 <= accuracy <= 1.0
        assert loss > 0

    def test_evaluate_leaves_no_forward_state_on_the_global_model(self):
        # The test batches are the largest the global model ever sees; their
        # columns and masks must not stay on it until the next evaluation.
        server, __ = _server_setup()
        data = make_blobs(train_samples=10, test_samples=40, seed=0)
        first = server.evaluate(data.test)
        for stage in (server.global_bottom, server.top):
            assert stage.training and all(layer.training for layer in stage)
            assert all(layer._forward_state is None for layer in stage)
        assert server.evaluate(data.test) == first

    def test_set_learning_rate(self):
        server, __ = _server_setup()
        server.set_learning_rate(0.01)
        assert server.top_optimizer.lr == 0.01
