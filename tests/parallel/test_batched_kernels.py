"""Layer-level bit-exactness of the stacked dense kernels and their
optimizer, the batched executor's round draws, and the serial fallback
every other model (conv/pool included) takes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_blobs, make_cifar10
from repro.core.worker import SplitWorker
from repro.exceptions import BatchSizeMismatchError
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


def _relu_masked(rng, shape) -> np.ndarray:
    """Upstream gradients through a ReLU whose first unit is dead: that
    unit's column is ``-0.0`` on every sample.  Elementwise backwards pass
    the signed zeros on; a parameter gradient summed over that column is
    ``-0.0`` wherever the reduction keeps the sign of its terms (NumPy 2's
    sums and OpenBLAS's GEMM start from ``+0.0`` and do not), and must
    still be the serial layer's ``0.0 + x`` byte for byte."""
    upstream = rng.normal(size=shape)
    upstream[..., 0] = -np.abs(upstream[..., 0])
    alive = rng.normal(size=shape) > 0
    alive[..., 0] = False
    return upstream * alive


@pytest.mark.parametrize(
    "layer,input_shape",
    [case[1:] for case in _layer_cases()],
    ids=[case[0] for case in _layer_cases()],
)
def test_batched_layer_bit_exact(layer, input_shape):
    """Forward, input gradient and parameter gradients match the serial layer
    run once per worker, byte for byte -- signed zeros included."""
    rng = new_rng(123)
    inputs = rng.normal(size=(WORKERS, *input_shape))

    # Serial references: one fresh clone per worker (same as a round install).
    serial_layers = [layer.clone() for _ in range(WORKERS)]
    serial_out, serial_gin = [], []
    for w, serial in enumerate(serial_layers):
        serial.zero_grad()
        serial_out.append(serial.forward(inputs[w]))
    out_shape = serial_out[0].shape
    grad_out = _relu_masked(rng, (WORKERS, *out_shape))
    assert np.signbit(grad_out[..., 0]).all()
    for w, serial in enumerate(serial_layers):
        serial_gin.append(serial.backward(grad_out[w]))

    batched = BATCHED_LAYER_TYPES[type(layer)](layer, WORKERS)
    out = batched.forward(inputs)
    gin = batched.backward(grad_out)

    for w in range(WORKERS):
        assert out[w].tobytes() == serial_out[w].tobytes()
        assert gin[w].tobytes() == serial_gin[w].tobytes()
    for batched_param, *serial_params in zip(
        batched.params, *(s.parameters() for s in serial_layers)
    ):
        for w, serial_param in enumerate(serial_params):
            assert batched_param.grad[w].tobytes() == serial_param.grad.tobytes()


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
        logits = batched_model.forward(data)
        batched_model.backward(batched_cross_entropy(logits, labels)[1])
        batched_opt.step()

    for w, model in enumerate(serial_models):
        for name, value in model.state_dict().items():
            assert batched_model.state_dict_for(w)[name].tobytes() == value.tobytes()


@pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 1e-4)])
def test_batched_sgd_scales_only_the_rows_that_clip(momentum, weight_decay):
    """Rows above the clip bound are scaled, the rest (an all-zero gradient
    among them) are left as they are: each row is the serial optimizer's
    conditional clip and update, byte for byte."""
    rng = new_rng(31)
    template = Sequential([Linear(8, 6, rng=rng), ReLU(), Linear(6, 3, rng=rng)])
    lrs = np.asarray([0.1, 0.05, 0.2, 0.15])
    max_grad_norm = 1.0
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
    # Global gradient norms per row: ~7 and ~0.07, zero, ~3.5.
    row_scales = np.array([1.0, 0.01, 0.0, 0.5])
    for __ in range(3):
        grads = [
            rng.normal(size=param.data.shape)
            * row_scales.reshape(-1, *(1,) * (param.data.ndim - 1))
            for param in batched_model.parameters()
        ]
        norms = np.sqrt(sum(
            np.sum(grad.reshape(WORKERS, -1) ** 2, axis=1) for grad in grads
        ))
        assert list(norms > max_grad_norm) == [True, False, False, True]
        assert norms[2] == 0.0
        for w, (model, opt) in enumerate(zip(serial_models, serial_opts)):
            for param, grad in zip(model.parameters(), grads):
                param.grad = grad[w].copy()
            opt.step()
        for param, grad in zip(batched_model.parameters(), grads):
            param.grad = grad.copy()
        batched_opt.step()

    for w, model in enumerate(serial_models):
        for name, value in model.state_dict().items():
            assert batched_model.state_dict_for(w)[name].tobytes() == value.tobytes()


def _stacked_parameters(count: int = 2):
    return BatchedModel(Sequential([Linear(3, 2, rng=new_rng(0))]), count).parameters()


def test_batched_sgd_takes_a_list_of_rates():
    sgd = BatchedSGD(_stacked_parameters(), [0.1, 0.2])
    assert sgd.learning_rates.dtype == np.float64
    assert sgd.learning_rates.tolist() == [0.1, 0.2]


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -0.1])
def test_a_non_finite_or_non_positive_rate_is_rejected(rate):
    with pytest.raises(ValueError, match="finite and positive"):
        SGD(_stacked_parameters(), lr=rate)
    with pytest.raises(ValueError, match="finite and positive"):
        BatchedSGD(_stacked_parameters(), [0.1, rate])


@pytest.mark.parametrize("rates", [[0.1], [0.1, 0.1, 0.1], [[0.1, 0.1]]],
                         ids=["short", "long", "2-d"])
def test_one_rate_per_stacked_row(rates):
    """A wrong-length rates vector fails at construction, not with a
    broadcast error at the first ``step()``."""
    with pytest.raises(ValueError, match="one learning rate per stacked row"):
        BatchedSGD(_stacked_parameters(), rates)


@pytest.mark.parametrize("setting", [
    dict(momentum=1.0), dict(momentum=-0.1), dict(momentum=float("nan")),
    dict(weight_decay=-1.0), dict(weight_decay=float("nan")),
    dict(max_grad_norm=-1.0), dict(max_grad_norm=0.0),
    dict(max_grad_norm=float("nan")),
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_batched_sgd_checks_hyperparameters_as_sgd_does(setting):
    """``max_grad_norm=-1.0`` used to pass and flip every gradient's sign."""
    with pytest.raises(ValueError) as serial:
        SGD(_stacked_parameters(), lr=0.1, **setting)
    with pytest.raises(ValueError) as batched:
        BatchedSGD(_stacked_parameters(), [0.1, 0.1], **setting)
    assert str(batched.value) == str(serial.value)


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


def _draw_cohort(source) -> list[SplitWorker]:
    """Five workers on scattered rows of one source; worker 3's shard (6
    samples) is shorter than its batch, so its draws clamp and reshuffle."""
    sizes = (30, 20, 24, 6, 18)
    rows = new_rng(8).permutation(len(source))
    starts = np.cumsum((0, *sizes))
    return [
        SplitWorker(
            worker_id=10 + i, dataset=source.subset(rows[start:start + size]),
            num_classes=4, momentum=0.5, seed=400 + i,
        )
        for i, (start, size) in enumerate(zip(starts, sizes))
    ]


#: Two cut depths over a four-layer bottom, and mixed batch sizes: three
#: shape groups at depth 4, two at depth 2.
_DRAW_DEPTHS = [4, 2, 4, 4, 2]
_DRAW_SIZES = [8, 4, 5, 8, 3]


def _drawn_round(source, iterations, forwards, sizes=_DRAW_SIZES):
    """``forwards`` (forward, backward) pairs after one install: every
    forward's features and labels, the states, every loader's state."""
    bottom = Sequential([Linear(32, 16, rng=new_rng(3)), ReLU(),
                         Linear(16, 12, rng=new_rng(4)), Tanh()])
    workers = _draw_cohort(source)
    executor = BatchedExecutor()
    executor.install(workers, bottom, [0.1, 0.05, 0.2, 0.1, 0.15],
                     _DRAW_DEPTHS, iterations=iterations)
    outputs = []
    for __ in range(forwards):
        features, labels = executor.forward(workers, sizes)
        executor.backward_step(workers, [0.1 * f for f in features])
        outputs.append((features, labels))
    return (outputs, executor.bottom_states(workers),
            [worker.loader.state_dict() for worker in workers])


def _assert_same_round(candidate, reference) -> None:
    (outputs, states, loaders), (ref_outputs, ref_states, ref_loaders) = (
        candidate, reference)
    assert len(outputs) == len(ref_outputs)
    for (features, labels), (ref_features, ref_labels) in zip(outputs, ref_outputs):
        for ours, theirs in zip(features + labels, ref_features + ref_labels):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
    for state, ref_state in zip(states, ref_states):
        assert list(state) == list(ref_state)
        for key in state:
            assert state[key].tobytes() == ref_state[key].tobytes()
    for loader, ref_loader in zip(loaders, ref_loaders):
        assert loader["rng"] == ref_loader["rng"]
        assert loader["cursor"] == ref_loader["cursor"]
        assert loader["order"].tobytes() == ref_loader["order"].tobytes()


@pytest.mark.parametrize("tau", [1, 3, 5])
def test_a_round_drawn_at_its_first_forward_equals_drawing_per_forward(tau):
    """``install(..., iterations=tau)`` draws every worker's round at the
    first forward; features, labels, states and every loader's state are
    those of drawing at each forward, across two depths and mixed batch
    sizes -- and serial execution's too."""
    source = make_blobs(train_samples=120, test_samples=10, seed=6).train
    drawn = _drawn_round(source, tau, tau)
    _assert_same_round(drawn, _drawn_round(source, None, tau))

    bottom = Sequential([Linear(32, 16, rng=new_rng(3)), ReLU(),
                         Linear(16, 12, rng=new_rng(4)), Tanh()])
    workers = _draw_cohort(source)
    serial = SerialExecutor()
    serial.install(workers, bottom, [0.1, 0.05, 0.2, 0.1, 0.15], _DRAW_DEPTHS)
    outputs = []
    for __ in range(tau):
        features, labels = serial.forward(workers, _DRAW_SIZES)
        serial.backward_step(workers, [0.1 * f for f in features])
        outputs.append((features, labels))
    _assert_same_round(drawn, (
        outputs, serial.bottom_states(workers),
        [worker.loader.state_dict() for worker in workers],
    ))


def test_a_forward_past_the_drawn_round_draws_afresh():
    source = make_blobs(train_samples=120, test_samples=10, seed=6).train
    _assert_same_round(_drawn_round(source, 2, 3), _drawn_round(source, None, 3))


def test_a_forward_with_other_batch_sizes_than_drawn_raises():
    source = make_blobs(train_samples=120, test_samples=10, seed=6).train
    workers = _draw_cohort(source)
    executor = BatchedExecutor()
    executor.install(workers, Sequential([Linear(32, 8, rng=new_rng(3))]),
                     [0.1] * 5, iterations=3)
    features, __ = executor.forward(workers, _DRAW_SIZES)
    executor.backward_step(workers, [0.1 * f for f in features])
    with pytest.raises(BatchSizeMismatchError, match="install drew"):
        executor.forward(workers, [4] * 5)
