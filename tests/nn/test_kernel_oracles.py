"""The conv and pooling kernels against the formulations they replaced.

The references live here and nowhere in ``src/``: a naive ``einsum``
convolution over ``np.pad``-ded inputs (tolerance: the GEMMs sum in another
order), and the ``np.pad`` im2col, padded-buffer col2im and reshape-max
pooling, which the kernels must reproduce bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import Conv1d, Conv2d, MaxPool2d
from repro.nn.layers.conv import _pair, col2im, im2col
from repro.nn.layers.pooling import max_pool, max_pool_backward
from repro.utils.rng import new_rng

#: (batch, in_channels, height, width, out_channels, kernel, stride, padding)
GEOMETRIES = [
    pytest.param(batch, 3, 9, 8, 4, kernel, stride, padding,
                 id=f"b{batch}-k{kernel}-s{stride}-p{padding}")
    for batch in (1, 3)
    for kernel in ((3, 3), (2, 3), (1, 4))
    for stride in (1, 2, (2, 1))
    for padding in (0, 1, (1, 2))
]


def _patches(inputs, kernel, stride, padding):
    """``(batch, channels, kh, kw, out_h, out_w)`` patches of the padded input."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    out_h = (padded.shape[2] - kh) // sh + 1
    out_w = (padded.shape[3] - kw) // sw + 1
    patches = np.empty((*inputs.shape[:2], kh, kw, out_h, out_w))
    for i in range(kh):
        for j in range(kw):
            patches[:, :, i, j] = padded[
                :, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw
            ]
    return patches


def _fold(grad_patches, input_shape, stride, padding):
    """Adjoint of ``_patches``: accumulate in a padded buffer, cut the padding."""
    (sh, sw), (ph, pw) = stride, padding
    batch, channels, height, width = input_shape
    kh, kw, out_h, out_w = grad_patches.shape[2:]
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += (
                grad_patches[:, :, i, j]
            )
    return padded[:, :, ph:ph + height, pw:pw + width]


def _reference_conv(inputs, weight, bias, grad_output, kernel, stride, padding):
    """Output and the three gradients of a convolution, by ``einsum``."""
    kernels = weight.reshape(-1, inputs.shape[1], *kernel)
    patches = _patches(inputs, kernel, stride, padding)
    output = np.einsum("ocij,bcijhw->bohw", kernels, patches)
    output += bias[None, :, None, None]
    grad_weight = np.einsum("bohw,bcijhw->ocij", grad_output, patches)
    grad_bias = np.einsum("bohw->o", grad_output)
    grad_patches = np.einsum("ocij,bohw->bcijhw", kernels, grad_output)
    grad_input = _fold(grad_patches, inputs.shape, stride, padding)
    return output, grad_weight.reshape(weight.shape), grad_bias, grad_input


def _assert_close(actual, expected):
    # float64 sums of at most a few hundred O(1) terms, in another order.
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "batch,channels,height,width,out_channels,kernel,stride,padding", GEOMETRIES
)
def test_conv2d_matches_the_einsum_reference(
    batch, channels, height, width, out_channels, kernel, stride, padding
):
    rng = new_rng(11)
    layer = Conv2d(channels, out_channels, kernel, stride, padding, rng=rng)
    layer.bias.data[:] = rng.normal(size=out_channels)
    inputs = rng.normal(size=(batch, channels, height, width))
    output = layer.forward(inputs)
    grad_output = rng.normal(size=output.shape)
    grad_input = layer.backward(grad_output)
    expected = _reference_conv(
        inputs, layer.weight.data, layer.bias.data, grad_output,
        _pair(kernel), _pair(stride), _pair(padding),
    )
    for actual, reference in zip(
        (output, layer.weight.grad, layer.bias.grad, grad_input), expected
    ):
        assert actual.shape == reference.shape
        _assert_close(actual, reference)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv1d_matches_the_einsum_reference(batch, stride, padding):
    rng = new_rng(12)
    layer = Conv1d(2, 5, kernel_size=4, stride=stride, padding=padding, rng=rng)
    layer.bias.data[:] = rng.normal(size=5)
    inputs = rng.normal(size=(batch, 2, 13))
    output = layer.forward(inputs)
    grad_output = rng.normal(size=output.shape)
    grad_input = layer.backward(grad_output)
    expected = _reference_conv(
        inputs[:, :, None, :], layer.weight.data, layer.bias.data,
        grad_output[:, :, None, :], (1, 4), (1, stride), (0, padding),
    )
    actual = (output[:, :, None, :], layer.weight.grad, layer.bias.grad,
              grad_input[:, :, None, :])
    for value, reference in zip(actual, expected):
        assert value.shape == reference.shape
        _assert_close(value, reference)


@pytest.mark.parametrize(
    "batch,channels,height,width,out_channels,kernel,stride,padding", GEOMETRIES
)
def test_im2col_and_col2im_equal_the_np_pad_formulation(
    batch, channels, height, width, out_channels, kernel, stride, padding
):
    kernel, stride, padding = _pair(kernel), _pair(stride), _pair(padding)
    rng = new_rng(13)
    inputs = rng.normal(size=(batch, channels, height, width))
    patches = _patches(inputs, kernel, stride, padding)
    out_size = patches.shape[4:]
    cols, size = im2col(inputs, kernel, stride, padding)
    assert size == out_size
    assert cols.shape == (batch, channels * kernel[0] * kernel[1],
                          out_size[0] * out_size[1])
    assert cols.tobytes() == patches.tobytes()

    grad_cols = rng.normal(size=cols.shape)
    expected = _fold(grad_cols.reshape(patches.shape), inputs.shape, stride, padding)
    folded = col2im(grad_cols, inputs.shape, kernel, stride, padding, out_size)
    assert folded.shape == expected.shape
    assert np.ascontiguousarray(folded).tobytes() == (
        np.ascontiguousarray(expected).tobytes()
    )


def _reshape_max_pool(inputs, kernel):
    """The pooling formulation ``max_pool`` replaced: output and tie mask."""
    kh, kw = kernel
    batch, channels, height, width = inputs.shape
    out_h, out_w = height // kh, width // kw
    windows = inputs[:, :, : out_h * kh, : out_w * kw].reshape(
        batch, channels, out_h, kh, out_w, kw
    )
    out = windows.max(axis=(3, 5))
    mask = (windows == out[:, :, :, None, :, None]).astype(np.float64)
    return out, mask / mask.sum(axis=(3, 5), keepdims=True)


@pytest.mark.parametrize("kernel", [2, 3, (2, 3), (3, 1)])
@pytest.mark.parametrize("shape", [(1, 1, 6, 6), (3, 4, 8, 12), (2, 3, 7, 11)])
def test_max_pool_equals_the_reshape_max_formulation(kernel, shape):
    rng = new_rng(14)
    raw = rng.normal(size=shape)
    inputs = raw * (raw > 0)  # post-ReLU: about half the windows tie at zero
    layer = MaxPool2d(kernel)
    output = layer.forward(inputs)
    pooled, mask = max_pool(inputs, layer.kernel_size)
    expected_output, expected_mask = _reshape_max_pool(inputs, layer.kernel_size)
    assert pooled.tobytes() == output.tobytes()
    assert np.array_equal(output, expected_output)
    assert mask.shape == expected_mask.shape
    assert mask.tobytes() == expected_mask.tobytes()
    np.testing.assert_allclose(mask.sum(axis=(3, 5)), 1.0, rtol=1e-14)
    # The gradient reaches the trimmed region only, shared between ties.
    grad_output = rng.normal(size=output.shape)
    grad_input = layer.backward(grad_output)
    kh, kw = layer.kernel_size
    out_h, out_w = output.shape[2:]
    expected_grad = np.zeros(shape)
    expected_grad[:, :, : out_h * kh, : out_w * kw] = (
        expected_mask * grad_output[:, :, :, None, :, None]
    ).reshape(shape[0], shape[1], out_h * kh, out_w * kw)
    assert np.array_equal(grad_input, expected_grad)


@pytest.mark.parametrize("make_layer,shape", [
    (lambda rng: Conv2d(3, 4, 3, stride=2, padding=1, rng=rng), (2, 3, 9, 9)),
    (lambda rng: Conv1d(2, 3, 3, padding=1, rng=rng), (2, 2, 10)),
    (lambda rng: MaxPool2d(2), (2, 3, 7, 6)),
], ids=["conv2d", "conv1d", "maxpool2d"])
def test_backward_twice_after_one_forward(make_layer, shape):
    """The benchmark's probes time ``backward`` repeatedly on one forward."""
    rng = new_rng(15)
    layer = make_layer(rng)
    output = layer.forward(rng.normal(size=shape))
    grad_output = rng.normal(size=output.shape)
    first = layer.backward(grad_output)
    first_grads = [param.grad.copy() for param in layer.parameters()]
    second = layer.backward(grad_output)
    assert np.array_equal(first, second)
    for param, grad in zip(layer.parameters(), first_grads):
        assert np.array_equal(param.grad, 2 * grad)


#: Tie-heavy values: after the ReLU below, exact zeros of both signs (a
#: negative input times ``False`` is ``-0.0``), repeated small integers and
#: infinity.
_POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf, -1.0, -2.5])
#: Gradients: signed zeros, a subnormal, the infinities, and arbitrary
#: floats, whose rounding tells ``(1 / count) * grad`` from ``grad / count``.
_GRAD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-320, np.inf, -np.inf]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=80, deadline=None)
@given(
    kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    shape=st.tuples(st.integers(1, 2), st.integers(1, 2),
                    st.integers(3, 7), st.integers(3, 7)),
    data=st.data(),
)
def test_max_pool_layer_routes_like_the_mask_formula(kernel, shape, data):
    """The layer keeps no mask, yet its output and gradient are the bytes of
    :func:`max_pool` / :func:`max_pool_backward`, ties, signed zeros and
    infinities included."""
    size = int(np.prod(shape))
    raw = np.array(
        data.draw(st.lists(_POOL_VALUES, min_size=size, max_size=size))
    ).reshape(shape)
    inputs = raw * (raw > 0)  # the ReLU layer's formula
    layer = MaxPool2d(kernel)
    output = layer.forward(inputs)
    expected_output, mask = max_pool(inputs, kernel)
    assert output.tobytes() == expected_output.tobytes()
    count = output.size
    grad_output = np.array(
        data.draw(st.lists(_GRAD_VALUES, min_size=count, max_size=count))
    ).reshape(output.shape)
    with np.errstate(invalid="ignore"):  # 0 * inf off the window maxima
        expected = max_pool_backward(mask, grad_output, shape)
        assert layer.backward(grad_output).tobytes() == expected.tobytes()
