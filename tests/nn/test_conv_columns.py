"""A convolution that waits at the merge barrier holds its input, not columns.

``Sequential.without_kept_columns`` (a worker's split bottom) turns
``keeps_columns`` off: between forward and backward the layer then holds no
array larger than its input, and ``backward`` re-unfolds the input with the
same ``im2col`` -- weight, bias and input gradients byte-equal to a layer
that kept its columns, over the kernel-oracle grid and on a second backward.
"""

import numpy as np
import pytest
from test_kernel_oracles import GEOMETRIES

from repro.nn.layers import Conv1d, Conv2d, ReLU
from repro.nn.module import Module, Sequential
from repro.utils.rng import new_rng


def _state_arrays(layer: Module) -> list[np.ndarray]:
    """The arrays a layer (or the ``Conv2d`` inside a ``Conv1d``) keeps."""
    inner = layer._conv if isinstance(layer, Conv1d) else layer
    return [value for value in inner._forward_state if isinstance(value, np.ndarray)]


def _kept_and_rebuilt(layer: Module) -> tuple[Module, Module]:
    """``layer`` and an identical copy marked as a merge-barrier bottom's."""
    return layer, Sequential([layer.clone()]).without_kept_columns().layers[0]


def _assert_same_bytes(first, second) -> None:
    assert first.shape == second.shape
    assert np.ascontiguousarray(first).tobytes() == (
        np.ascontiguousarray(second).tobytes()
    )


def _compare(kept, rebuilt, inputs, rng, needs_input_grad) -> None:
    """Forward both, check what the marked one holds, backward both twice."""
    kept.needs_input_grad = rebuilt.needs_input_grad = needs_input_grad
    output = kept.forward(inputs)
    _assert_same_bytes(rebuilt.forward(inputs), output)
    held = _state_arrays(rebuilt)
    assert max(array.nbytes for array in held) <= inputs.nbytes
    assert any(np.shares_memory(array, inputs) for array in held)
    grad_output = rng.normal(size=output.shape)
    for __ in range(2):
        kept_grad = kept.backward(grad_output)
        rebuilt_grad = rebuilt.backward(grad_output)
        if needs_input_grad:
            _assert_same_bytes(rebuilt_grad, kept_grad)
        else:
            assert kept_grad is None and rebuilt_grad is None
        for ours, theirs in zip(rebuilt.parameters(), kept.parameters()):
            _assert_same_bytes(ours.grad, theirs.grad)


@pytest.mark.parametrize("needs_input_grad", [True, False],
                         ids=["input-grad", "no-input-grad"])
@pytest.mark.parametrize(
    "batch,channels,height,width,out_channels,kernel,stride,padding", GEOMETRIES
)
def test_conv2d_rebuilt_columns_give_byte_equal_gradients(
    batch, channels, height, width, out_channels, kernel, stride, padding,
    needs_input_grad,
):
    rng = new_rng(21)
    layer = Conv2d(channels, out_channels, kernel, stride, padding, rng=rng)
    layer.bias.data[:] = rng.normal(size=out_channels)
    kept, rebuilt = _kept_and_rebuilt(layer)
    inputs = rng.normal(size=(batch, channels, height, width))
    _compare(kept, rebuilt, inputs, rng, needs_input_grad)


@pytest.mark.parametrize("needs_input_grad", [True, False],
                         ids=["input-grad", "no-input-grad"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv1d_rebuilt_columns_give_byte_equal_gradients(
    batch, stride, padding, needs_input_grad
):
    rng = new_rng(22)
    layer = Conv1d(2, 5, kernel_size=4, stride=stride, padding=padding, rng=rng)
    layer.bias.data[:] = rng.normal(size=5)
    kept, rebuilt = _kept_and_rebuilt(layer)
    _compare(kept, rebuilt, rng.normal(size=(batch, 2, 13)), rng, needs_input_grad)


def test_an_unmarked_convolution_keeps_its_columns():
    """The control: what the marked layer drops is nine times its input."""
    rng = new_rng(23)
    kept, rebuilt = _kept_and_rebuilt(Conv2d(3, 4, 3, padding=1, rng=rng))
    inputs = rng.normal(size=(2, 3, 8, 8))
    kept.forward(inputs)
    rebuilt.forward(inputs)
    assert max(a.nbytes for a in _state_arrays(kept)) == 9 * inputs.nbytes
    assert max(a.nbytes for a in _state_arrays(rebuilt)) == inputs.nbytes


def test_the_mark_reaches_every_layer_and_survives_clones():
    rng = new_rng(24)
    model = Sequential([Conv1d(2, 3, 3, rng=rng), ReLU(), Conv2d(3, 3, 1, rng=rng)])
    assert model.without_kept_columns() is model
    for copy in (model, model.clone(), model.clone().clone()):
        assert not any(layer.keeps_columns for layer in copy.layers)
