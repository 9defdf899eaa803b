"""Chunked evaluation: the per-sample prefix of a model runs in small chunks
of rows, and the numbers are those of whole-batch evaluation, bit for bit.

The oracle is the whole-batch ``evaluate_classifier`` as it was before the
chunking, kept verbatim below; it is fed the whole test set gathered to
float64 at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.components import build_model_for
from repro.config import ExperimentConfig
from repro.core.server import evaluate_classifier
from repro.data.synthetic import make_dataset
from repro.nn import layers as nn_layers
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import default_split_layer
from repro.nn.module import Module
from repro.nn.split import split_model
from repro.utils.rng import new_rng

TEST_SAMPLES = 150


def _evaluate_whole_batches(stages, loss_fn, data, targets, batch_size):
    """Accuracy and mean loss of a model over a test set, in batches."""
    layers = [layer for stage in stages for layer in stage.layers]
    for stage in stages:
        stage.eval()
    correct = 0
    losses = []
    for start in range(0, data.shape[0], batch_size):
        stop = start + batch_size
        labels = targets[start:stop]
        logits = data[start:stop]
        for layer in layers:
            logits = layer.forward(logits)
            layer.clear_forward_state()
        losses.append(loss_fn.forward(logits, labels) * labels.shape[0])
        correct += int((logits.argmax(axis=1) == labels).sum())
    for stage in stages:
        stage.train()
    total = data.shape[0]
    if total == 0:
        return 0.0, 0.0
    return correct / total, float(np.sum(losses) / total)


#: model -> the dataset it is built for.
MODELS = {
    "alexnet_s": "cifar10",
    "vgg_s": "cifar10",
    "cnn_h": "har",
    "cnn_s": "speech",
    "mlp": "blobs",
}

_BUILT: dict[str, tuple] = {}


def _model_and_test_set(model: str):
    """The model split at its default cut, and a test set, built once."""
    if model not in _BUILT:
        config = ExperimentConfig(
            dataset=MODELS[model], model=model, model_width=0.25, seed=5,
            train_samples=40, test_samples=TEST_SAMPLES,
        )
        data = make_dataset(config.dataset, train_samples=40,
                            test_samples=TEST_SAMPLES, seed=5)
        full = build_model_for(config, data)
        split = split_model(full, default_split_layer(model, full))
        _BUILT[model] = (split, data.test)
    return _BUILT[model]


@pytest.mark.parametrize("batch_size", [1, 7, 128, TEST_SAMPLES + 50])
@pytest.mark.parametrize("model", list(MODELS))
def test_chunked_evaluation_equals_whole_batches_bitwise(model, batch_size):
    split, test = _model_and_test_set(model)
    stages = [split.bottom, split.top]
    expected = _evaluate_whole_batches(
        stages, CrossEntropyLoss(), test.gather(np.arange(len(test))),
        test.targets, batch_size)
    got = evaluate_classifier(stages, CrossEntropyLoss(), test, batch_size)
    assert got == expected
    for stage in stages:
        assert stage.training
        assert all(layer._forward_state is None for layer in stage.layers)


def test_the_chunked_prefix_stops_at_the_first_layer_that_is_not_per_sample():
    """AlexNet-S: every bottom layer is per-sample, the top's first Linear is
    not -- that is where the chunks are concatenated.  The MLP starts with a
    Linear: nothing of it is chunked."""
    split, __ = _model_and_test_set("alexnet_s")
    assert all(layer.per_sample for layer in split.bottom.layers)
    assert not split.top.layers[0].per_sample
    assert not _model_and_test_set("mlp")[0].bottom.layers[0].per_sample


# -- the per_sample flag ------------------------------------------------------
def _instances() -> list[tuple[Module, tuple[int, ...]]]:
    """One instance of every built-in layer flagged ``per_sample`` and the
    shape of one input row."""
    rng = new_rng(3)
    batch_norm_2d = nn_layers.BatchNorm2d(4)
    batch_norm_2d.running_mean = rng.normal(size=4)
    batch_norm_2d.running_var = rng.uniform(0.5, 2.0, size=4)
    batch_norm_1d = nn_layers.BatchNorm1d(6)
    batch_norm_1d.running_mean = rng.normal(size=6)
    batch_norm_1d.running_var = rng.uniform(0.5, 2.0, size=6)
    return [
        (nn_layers.Conv2d(4, 5, 3, padding=1, rng=rng), (4, 9, 9)),
        (nn_layers.Conv2d(4, 3, 3, stride=2, rng=rng), (4, 9, 9)),
        (nn_layers.Conv1d(4, 5, 5, padding=2, rng=rng), (4, 17)),
        (nn_layers.MaxPool2d(2), (4, 9, 9)),
        (nn_layers.MaxPool1d(2), (4, 17)),
        (nn_layers.AvgPool2d(2), (4, 9, 9)),
        (nn_layers.ReLU(), (4, 9)),
        (nn_layers.Tanh(), (4, 9)),
        (nn_layers.Sigmoid(), (4, 9)),
        (nn_layers.Flatten(), (4, 3, 3)),
        (nn_layers.Dropout(0.3, rng=rng), (6,)),
        (batch_norm_1d, (6,)),
        (batch_norm_2d, (4, 5, 5)),
    ]


def test_the_flagged_layers_are_exactly_those_with_a_case():
    flagged = {
        getattr(nn_layers, name) for name in nn_layers.__all__
        if getattr(nn_layers, name).per_sample
    }
    assert flagged == {type(layer) for layer, __ in _instances()}
    assert not nn_layers.Linear.per_sample


@pytest.mark.parametrize(
    "layer, row_shape", _instances(),
    ids=lambda case: type(case).__name__ if isinstance(case, Module) else "",
)
@pytest.mark.parametrize("rows", [(0, 1), (3, 19), (16, 32), (40, 48)])
def test_a_per_sample_layer_computes_each_row_alone(layer, row_shape, rows):
    """In evaluation mode, the forward of rows [a:b] equals those rows of
    the full-batch forward, bitwise."""
    inputs = np.random.default_rng(11).normal(size=(48, *row_shape))
    layer.eval()
    try:
        full = layer.forward(inputs)
        start, stop = rows
        assert np.array_equal(layer.forward(inputs[start:stop]), full[start:stop])
    finally:
        layer.train()
        layer.clear_forward_state()
