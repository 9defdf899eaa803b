"""Layer-level bit-exactness of the stacked dense kernels, and the serial
fallback every other model (conv/pool included) takes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_blobs, make_cifar10
from repro.core.worker import SplitWorker
from repro.nn.layers import (
    BatchNorm1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.models import build_alexnet_s
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.parallel.batched import BatchedExecutor
from repro.parallel.kernels import (
    BATCHED_LAYER_TYPES,
    BatchedModel,
    BatchedSGD,
    batched_cross_entropy,
    unsupported_layers,
)
from repro.parallel.serial import SerialExecutor
from repro.nn.losses import CrossEntropyLoss
from repro.utils.rng import new_rng

WORKERS = 4


def _layer_cases():
    rng = new_rng(77)
    return [
        ("linear", Linear(12, 7, rng=rng), (5, 12)),
        ("linear_nobias", Linear(12, 7, bias=False, rng=rng), (5, 12)),
        ("relu", ReLU(), (5, 11)),
        ("tanh", Tanh(), (5, 11)),
        ("sigmoid", Sigmoid(), (5, 11)),
        ("flatten", Flatten(), (5, 3, 4, 4)),
        ("dropout", Dropout(0.3, rng=new_rng(5)), (5, 11)),
        ("batchnorm1d", BatchNorm1d(9), (6, 9)),
    ]


@pytest.mark.parametrize(
    "layer,input_shape",
    [case[1:] for case in _layer_cases()],
    ids=[case[0] for case in _layer_cases()],
)
def test_batched_layer_bit_exact(layer, input_shape):
    """Forward, input gradient and parameter gradients match the serial layer
    run once per worker, bit for bit."""
    rng = new_rng(123)
    inputs = rng.normal(size=(WORKERS, *input_shape))

    # Serial references: one fresh clone per worker (same as a round install).
    serial_layers = [layer.clone() for _ in range(WORKERS)]
    serial_out, serial_gin = [], []
    for w, serial in enumerate(serial_layers):
        serial.zero_grad()
        serial_out.append(serial.forward(inputs[w]))
    out_shape = serial_out[0].shape
    grad_out = rng.normal(size=(WORKERS, *out_shape))
    for w, serial in enumerate(serial_layers):
        serial_gin.append(serial.backward(grad_out[w]))

    batched = BATCHED_LAYER_TYPES[type(layer)](layer, WORKERS)
    out = batched.forward(inputs)
    gin = batched.backward(grad_out)

    for w in range(WORKERS):
        assert np.array_equal(out[w], serial_out[w])
        assert np.array_equal(gin[w], serial_gin[w])
    for batched_param, *serial_params in zip(
        batched.params, *(s.parameters() for s in serial_layers)
    ):
        for w, serial_param in enumerate(serial_params):
            assert np.array_equal(batched_param.grad[w], serial_param.grad)


def test_stacked_first_layer_skips_only_the_input_gradient():
    """What ``BatchedModel`` sets on its first layer: ``backward`` returns
    ``None`` and the parameter gradients are the ones it had before."""
    layer, input_shape = next(
        case[1:] for case in _layer_cases() if case[0] == "linear"
    )
    rng = new_rng(31)
    inputs = rng.normal(size=(WORKERS, *input_shape))
    plain = BATCHED_LAYER_TYPES[type(layer)](layer, WORKERS)
    marked = BATCHED_LAYER_TYPES[type(layer)](layer, WORKERS)
    marked.needs_input_grad = False
    grad_out = rng.normal(size=plain.forward(inputs).shape)
    marked.forward(inputs)
    assert plain.backward(grad_out).shape == inputs.shape
    assert marked.backward(grad_out) is None
    for param, marked_param in zip(plain.params, marked.params):
        assert param.grad.tobytes() == marked_param.grad.tobytes()
    model = BatchedModel(Sequential([layer]), WORKERS)
    model.forward(inputs)
    assert model.layers[0].needs_input_grad is False
    assert model.backward(grad_out) is None and layer.needs_input_grad


@pytest.mark.parametrize("momentum,weight_decay,max_grad_norm", [
    (0.0, 0.0, None),
    (0.9, 1e-4, 5.0),
    (0.5, 0.0, 1e-3),   # tiny clip threshold: every worker clips
])
def test_batched_sgd_bit_exact(momentum, weight_decay, max_grad_norm):
    rng = new_rng(9)
    template = Sequential([Linear(8, 6, rng=rng), ReLU(), Linear(6, 3, rng=rng)])
    lrs = np.asarray([0.1, 0.05, 0.2, 0.15])

    serial_models = [template.clone() for _ in range(WORKERS)]
    serial_opts = [
        SGD(model.parameters(), lr=lr, momentum=momentum,
            weight_decay=weight_decay, max_grad_norm=max_grad_norm)
        for model, lr in zip(serial_models, lrs)
    ]
    batched_model = BatchedModel(template, WORKERS)
    batched_opt = BatchedSGD(
        batched_model.parameters(), lrs, momentum=momentum,
        weight_decay=weight_decay, max_grad_norm=max_grad_norm,
    )

    loss = CrossEntropyLoss()
    for step in range(3):
        data = rng.normal(size=(WORKERS, 5, 8))
        labels = rng.integers(0, 3, size=(WORKERS, 5))
        for w, (model, opt) in enumerate(zip(serial_models, serial_opts)):
            opt.zero_grad()
            logits = model.forward(data[w])
            loss.forward(logits, labels[w])
            model.backward(loss.backward())
            opt.step()
        batched_opt.zero_grad()
        logits = batched_model.forward(data)
        batched_model.backward(batched_cross_entropy(logits, labels)[1])
        batched_opt.step()

    for w, model in enumerate(serial_models):
        for name, value in model.state_dict().items():
            assert np.array_equal(batched_model.state_dict_for(w)[name], value)


def test_batched_cross_entropy_gradient_matches_serial():
    """Losses and gradients are bit-equal to ``CrossEntropyLoss`` on every
    worker's slice, at batch sizes on both sides of numpy's pairwise-sum
    thresholds (8 and 128) -- the reduction the per-worker mean relies on."""
    rng = new_rng(4)
    loss = CrossEntropyLoss()
    for batch in (1, 5, 6, 8, 32, 130, 300):
        logits = rng.normal(size=(WORKERS, batch, 5)) * 4.0
        labels = rng.integers(0, 5, size=(WORKERS, batch))
        losses, grad = batched_cross_entropy(logits, labels)
        assert losses.shape == (WORKERS,)
        for w in range(WORKERS):
            assert losses[w] == loss.forward(logits[w], labels[w])
            assert np.array_equal(grad[w], loss.backward())


class _PluginLayer(Module):
    """A third-party layer with no stacked kernel (identity)."""

    def forward(self, inputs):
        return inputs

    def backward(self, grad_output):
        return grad_output


def test_unsupported_layers_reported():
    model = Sequential([Linear(8, 8, rng=new_rng(0)), _PluginLayer(), ReLU()])
    assert unsupported_layers(model) == ["_PluginLayer"]
    assert unsupported_layers(Sequential([Linear(8, 8, rng=new_rng(0))])) == []
    assert unsupported_layers(
        Sequential([Linear(8, 8, rng=new_rng(0)), BatchNorm1d(8)])
    ) == []
    # Only dense layers are stacked: a convolution runs per worker.
    assert unsupported_layers(
        Sequential([Conv2d(3, 4, kernel_size=3, rng=new_rng(0)), ReLU()])
    ) == ["Conv2d"]


def _make_workers(seed_offset: int = 0) -> list[SplitWorker]:
    data = make_blobs(train_samples=120, test_samples=30, seed=2)
    shard = len(data.train) // 2
    return [
        SplitWorker(
            worker_id=i,
            dataset=data.train.subset(np.arange(i * shard, (i + 1) * shard)),
            num_classes=data.num_classes,
            seed=100 + i,
        )
        for i in range(2)
    ]


def test_batched_executor_falls_back_on_unsupported_layer():
    """A bottom with a plugin layer has no stacked kernel; the batched
    executor must transparently run it serially -- and still match
    SerialExecutor."""
    bottom = Sequential([Linear(32, 16, rng=new_rng(3)), _PluginLayer(), ReLU()])

    results = {}
    for name, executor in (("serial", SerialExecutor()), ("batched", BatchedExecutor())):
        workers = _make_workers()
        executor.install(workers, bottom, [0.1, 0.1])
        features, labels = executor.forward(workers, [8, 8])
        grads = [0.1 * feats for feats in features]
        executor.backward_step(workers, grads)
        results[name] = (features, executor.bottom_states(workers))

    for (f_serial, s_serial), (f_batched, s_batched) in [
        (results["serial"], results["batched"])
    ]:
        for w in range(2):
            assert np.array_equal(f_serial[w], f_batched[w])
            for key in s_serial[w]:
                assert np.array_equal(s_serial[w][key], s_batched[w][key])


@pytest.mark.parametrize("depths", [None, [4, 7, 4]], ids=["uniform", "two-depths"])
def test_forced_batched_on_alexnet_s_equals_serial_through_the_fallback(depths, caplog):
    """With the stacked conv kernels gone, ``executor="batched"`` forced on
    a conv bottom is the per-worker loop: features and updated states equal
    ``SerialExecutor``'s bit for bit, per-depth installs included."""
    model = build_alexnet_s(width=0.25, seed=1)
    bottom = Sequential(model.layers[:7])
    data = make_cifar10(train_samples=90, test_samples=10, seed=4)

    results = {}
    for name, executor in (("serial", SerialExecutor()), ("batched", BatchedExecutor())):
        workers = [
            SplitWorker(
                worker_id=i,
                dataset=data.train.subset(np.arange(i * 30, (i + 1) * 30)),
                num_classes=data.num_classes,
                seed=200 + i,
            )
            for i in range(3)
        ]
        with caplog.at_level("WARNING", logger="repro.parallel.batched"):
            executor.install(workers, bottom, [0.1, 0.05, 0.2], depths)
        features, __ = executor.forward(workers, [6, 4, 6])
        executor.backward_step(workers, [0.1 * feats for feats in features])
        results[name] = (features, executor.bottom_states(workers))
    assert "falling back to serial: no batched kernels for layer types" in caplog.text

    (f_serial, s_serial), (f_batched, s_batched) = results["serial"], results["batched"]
    for w in range(3):
        assert np.array_equal(f_serial[w], f_batched[w])
        assert sorted(s_serial[w]) == sorted(s_batched[w])
        for key in s_serial[w]:
            assert np.array_equal(s_serial[w][key], s_batched[w][key])


def test_batched_executor_requires_install():
    workers = _make_workers()
    executor = BatchedExecutor()
    with pytest.raises(RuntimeError, match="no bottom model installed"):
        executor.forward(workers, [4, 4])


def test_batched_executor_rejects_mismatched_gradient_batch():
    bottom = Sequential([Linear(32, 16, rng=new_rng(3)), ReLU()])
    workers = _make_workers()
    executor = BatchedExecutor()
    executor.install(workers, bottom, [0.1, 0.1])
    features, __ = executor.forward(workers, [8, 8])
    bad = [np.zeros((3, 16)), np.zeros((8, 16))]
    with pytest.raises(ValueError, match="does not match the pending"):
        executor.backward_step(workers, bad)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_batched_states_are_read_only_rows_equal_to_serial(momentum):
    """Two shape groups, two local steps, a re-install and one more step:
    every state ``bottom_states`` hands out is a read-only view equal to the
    serial executor's copy bit for bit, and until the next install no
    ``backward_step`` may write through it."""
    data = make_blobs(train_samples=120, test_samples=30, seed=2)
    bottom = Sequential([Linear(32, 16, rng=new_rng(3)), ReLU(),
                         Linear(16, 8, rng=new_rng(4))])
    results = {}
    for name, executor in (("serial", SerialExecutor()), ("batched", BatchedExecutor())):
        workers = [
            SplitWorker(
                worker_id=i,
                dataset=data.train.subset(np.arange(i * 40, (i + 1) * 40)),
                num_classes=data.num_classes, momentum=momentum,
                weight_decay=1e-3, seed=100 + i,
            )
            for i in range(3)
        ]
        collected = []
        for __ in range(2):
            executor.install(workers, bottom, [0.1, 0.05, 0.2])
            for __ in range(2):
                features, __ = executor.forward(workers, [8, 4, 8])
                executor.backward_step(workers, [0.1 * f for f in features])
            collected.append(executor.bottom_states(workers))
            if name == "batched":
                with pytest.raises(RuntimeError, match="after bottom_states"):
                    executor.backward_step(workers, [0.1 * f for f in features])
        results[name] = collected

    for serial_states, batched_states in zip(results["serial"], results["batched"]):
        for serial, batched in zip(serial_states, batched_states):
            assert list(serial) == list(batched)
            for key, value in batched.items():
                assert not value.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0.0
                assert value.tobytes() == serial[key].tobytes()
