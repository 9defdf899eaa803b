"""Tests for Module and Sequential containers."""

import pickle

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool1d,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.module import Module, Sequential
from repro.nn.parameter import Parameter
from repro.utils.rng import new_rng


def _model(seed=0):
    rng = new_rng(seed)
    return Sequential([Linear(4, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng)])


class TestSequential:
    def test_forward_shape(self):
        model = _model()
        out = model.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_call_is_forward(self):
        model = _model()
        x = np.ones((2, 4))
        assert np.allclose(model(x), model.forward(x))

    def test_len_iter_getitem(self):
        model = _model()
        assert len(model) == 3
        assert isinstance(model[1], ReLU)
        assert len(list(iter(model))) == 3

    def test_slicing_returns_sequential(self):
        model = _model()
        bottom = model[:2]
        top = model[2:]
        assert isinstance(bottom, Sequential)
        assert len(bottom) == 2 and len(top) == 1

    def test_parameters_collects_all(self):
        model = _model()
        assert len(model.parameters()) == 4  # two Linear layers x (W, b)

    def test_named_parameters_are_unique(self):
        model = _model()
        names = [name for name, __ in model.named_parameters()]
        assert len(names) == len(set(names))

    def test_state_dict_roundtrip(self):
        model = _model(seed=0)
        other = _model(seed=1)
        other.load_state_dict(model.state_dict())
        x = np.linspace(0, 1, 8).reshape(2, 4)
        assert np.allclose(model.forward(x), other.forward(x))

    def test_load_state_dict_rejects_missing_keys(self):
        model = _model()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self):
        model = _model()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_clone_is_independent(self):
        model = _model()
        clone = model.clone()
        clone.parameters()[0].data[:] = 0.0
        assert not np.allclose(model.parameters()[0].data, 0.0)

    def test_train_eval_propagates(self):
        model = _model()
        model.eval()
        assert all(not layer.training for layer in model)
        model.train()
        assert all(layer.training for layer in model)

    def test_zero_grad(self):
        model = _model()
        out = model.forward(np.ones((2, 4)))
        model.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in model.parameters())
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())

    def test_num_parameters(self):
        model = _model()
        expected = 4 * 8 + 8 + 8 * 3 + 3
        assert model.num_parameters() == expected

    def test_backward_chain_rule_matches_numeric(self):
        model = _model()
        x = new_rng(2).normal(size=(3, 4))
        out = model.forward(x)
        grad_out = np.ones_like(out)
        grad_in = model.backward(grad_out)
        # Numerical check of d(sum(out))/dx for one element.
        eps = 1e-6
        x2 = x.copy()
        x2[0, 0] += eps
        numeric = (model.forward(x2).sum() - model.forward(x).sum()) / eps
        assert np.isclose(grad_in[0, 0], numeric, atol=1e-4)


def _conv_model(seed=0):
    rng = new_rng(seed)
    return Sequential([
        Conv2d(3, 6, 3, padding=1, rng=rng), BatchNorm2d(6), ReLU(), MaxPool2d(2),
        Flatten(), Dropout(0.3, rng=new_rng(seed + 1)), Linear(6 * 8 * 8, 5, rng=rng),
    ])


def _arrays(value, found):
    """Every ndarray reachable from ``value`` through attributes and containers."""
    if isinstance(value, np.ndarray):
        found.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _arrays(item, found)
    elif isinstance(value, dict):
        _arrays(list(value.values()), found)
    elif isinstance(value, (Module, Parameter)):
        _arrays(vars(value), found)
    return found


class TestCloneContract:
    """``clone()`` copies parameters, gradients and buffers, never forward state."""

    def _warm(self):
        model = _conv_model()
        x = new_rng(3).normal(size=(16, 3, 16, 16))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        return model, x

    def test_clone_holds_only_parameters_grads_and_buffers(self):
        model, __ = self._warm()
        clone = model.clone()
        allowed = {id(p.data) for p in clone.parameters()}
        allowed |= {id(p.grad) for p in clone.parameters()}
        norm = clone.layers[1]
        allowed |= {id(norm.running_mean), id(norm.running_var)}
        assert {id(array) for array in _arrays(clone, [])} == allowed
        parameter_bytes = sum(p.data.nbytes for p in model.parameters())
        assert len(pickle.dumps(clone)) <= 2 * parameter_bytes + 4096
        # The original still holds the batch it saw: that is what is skipped.
        assert len(pickle.dumps(model)) > 10 * parameter_bytes

    def test_warm_and_cold_clones_are_the_same_size(self):
        warm, __ = self._warm()
        cold = _conv_model()
        sizes = [
            sorted(array.nbytes for array in _arrays(model.clone(), []))
            for model in (warm, cold)
        ]
        assert sizes[0] == sizes[1]
        # Pickled, they differ by the digits of the advanced dropout RNG state.
        assert abs(len(pickle.dumps(warm.clone())) - len(pickle.dumps(cold.clone()))) < 64

    def test_clone_preserves_buffers_grads_and_mode(self):
        model, __ = self._warm()
        model.eval()
        clone = model.clone()
        assert not clone.training and not any(layer.training for layer in clone)
        norm, cloned_norm = model.layers[1], clone.layers[1]
        assert np.any(norm.running_mean != 0)
        assert np.array_equal(cloned_norm.running_mean, norm.running_mean)
        assert np.array_equal(cloned_norm.running_var, norm.running_var)
        assert cloned_norm.running_mean is not norm.running_mean
        for param, cloned in zip(model.parameters(), clone.parameters()):
            assert np.array_equal(cloned.data, param.data)
            assert np.any(param.grad != 0)
            assert np.array_equal(cloned.grad, param.grad)
            assert cloned.data is not param.data and cloned.grad is not param.grad

    def test_clone_forward_is_bitwise_the_originals(self):
        # Same parameters, same running statistics, same dropout stream.
        model, x = self._warm()
        clone = model.clone()
        assert model.layers[5].extra_state() == clone.layers[5].extra_state()
        assert np.array_equal(clone.forward(x), model.forward(x))
        assert np.array_equal(clone.forward(x), model.forward(x))  # streams advance alike

    def test_a_clone_is_an_independent_copy_without_forward_state(self):
        model, x = self._warm()
        model.without_kept_columns().without_input_grad()
        model.forward(x)
        clone = model.clone()
        originals, copies = _arrays(model, []), _arrays(clone, [])
        # The original also holds its forward state; the clone holds none.
        assert all(layer._forward_state is None for layer in clone.layers)
        kept = {id(array) for array in _arrays(
            [layer._forward_state for layer in model.layers], [])}
        originals = [array for array in originals if id(array) not in kept]
        assert len(originals) == len(copies)
        for original, copied in zip(originals, copies):
            assert copied.tobytes() == original.tobytes()
            assert copied.dtype == original.dtype and copied.shape == original.shape
            assert not np.shares_memory(copied, original)
        for copied in copies:
            copied[...] = 7.0
        assert not any(np.all(original == 7.0) for original in originals)
        # The dropout stream is copied, and draws on its own.
        dropout, cloned_dropout = model.layers[5], clone.layers[5]
        assert cloned_dropout._rng is not dropout._rng
        assert cloned_dropout.extra_state() == dropout.extra_state()
        before = dropout.extra_state()
        cloned_dropout.forward(np.ones((4, 3)))
        assert dropout.extra_state() == before != cloned_dropout.extra_state()
        # Marks set on the original's layers come along.
        assert not clone.layers[0].needs_input_grad
        assert not any(layer.keeps_columns for layer in clone.layers)

    def test_a_layer_held_twice_is_copied_once(self):
        shared = Linear(3, 3, rng=new_rng(0))
        clone = Sequential([shared, ReLU(), shared]).clone()
        assert clone.layers[0] is clone.layers[2] is not shared
        assert clone.layers[0].weight is clone.layers[2].weight

    def test_backward_on_a_fresh_clone_raises(self):
        model, __ = self._warm()
        clone = model.clone()
        with pytest.raises(RuntimeError, match="backward called before forward"):
            clone.backward(np.ones((16, 5)))
        for layer, shape in [
            (Conv1d(2, 3, 3), (2, 2, 8)), (MaxPool1d(2), (2, 2, 8)),
            (Tanh(), (2, 8)), (AvgPool2d(2), (2, 2, 8, 8)),
        ]:
            out = layer.forward(np.ones(shape))
            with pytest.raises(RuntimeError, match="backward called before forward"):
                layer.clone().backward(np.ones_like(out))

    def test_clear_forward_state_reaches_nested_layers(self):
        model = Sequential([Conv1d(2, 3, 3, rng=new_rng(0)), ReLU(), MaxPool1d(2)])
        out = model.forward(np.ones((2, 2, 8)))
        model.clear_forward_state()
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.backward(np.ones_like(out))
        assert all(a.size <= 18 for a in _arrays(model, []))  # weights and bias only


class TestWithoutInputGrad:
    """A worker's copy skips the gradient w.r.t. raw data; nothing else moves."""

    CASES = {
        "linear": (lambda rng: [Linear(6, 5, rng=rng), ReLU(), Linear(5, 3, rng=rng)],
                   (4, 6)),
        "conv2d": (lambda rng: [Conv2d(2, 3, 3, padding=1, rng=rng), ReLU(),
                                MaxPool2d(2), Flatten(), Linear(12, 3, rng=rng)],
                   (4, 2, 4, 4)),
        "conv1d": (lambda rng: [Conv1d(2, 3, 3, padding=1, rng=rng), Tanh(),
                                Flatten(), Linear(24, 3, rng=rng)],
                   (4, 2, 8)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parameter_grads_and_stepped_weights_are_byte_equal(self, case):
        from repro.nn.optim import SGD

        build, input_shape = self.CASES[case]
        model = Sequential(build(new_rng(3)))
        plain, marked = model.clone(), model.clone().without_input_grad()
        rng = new_rng(8)
        for __ in range(3):
            inputs = rng.normal(size=input_shape)
            grad_out = rng.normal(size=(input_shape[0], 3))
            results = []
            for local in (plain, marked):
                optimizer = SGD(local.parameters(), lr=0.1, momentum=0.9,
                                max_grad_norm=1.0)
                optimizer.zero_grad()
                out = local.forward(inputs)
                grad_in = local.backward(grad_out)
                grads = [param.grad.copy() for param in local.parameters()]
                optimizer.step()
                results.append((out, grad_in, grads))
            (out, grad_in, grads), (marked_out, marked_grad_in, marked_grads) = results
            assert grad_in.shape == inputs.shape and marked_grad_in is None
            assert np.array_equal(out, marked_out)
            for grad, marked_grad in zip(grads, marked_grads):
                assert grad.tobytes() == marked_grad.tobytes()
            for key, value in plain.state_dict().items():
                assert value.tobytes() == marked.state_dict()[key].tobytes()

    def test_mark_stays_on_the_copy_and_survives_its_clones(self):
        model = _model()
        marked = model.clone().without_input_grad()
        inputs = np.ones((2, 4))
        for local, expected in ((model, True), (marked, False), (marked.clone(), False)):
            assert local.layers[0].needs_input_grad is expected
            assert all(layer.needs_input_grad for layer in local.layers[1:])
            local.forward(inputs)
            assert (local.backward(np.ones((2, 3))) is None) is not expected
