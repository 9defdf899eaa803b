"""Convolutional layers implemented with im2col/col2im.

The 2-D and 1-D convolutions are the workhorses of the paper's model zoo
(CNN-H, CNN-S, AlexNet, VGG16).  ``im2col`` unfolds the input into explicit
column matrices, so the forward pass and both backward products are
``np.matmul`` calls -- one BLAS GEMM per sample -- which keeps the CPU-only
simulation fast enough for the benchmark harness.  (``np.matmul`` and not
``np.einsum``: einsum does not hand these contractions to BLAS and runs them
about four times slower at the model zoo's sizes.)

The columns are ``kh * kw`` times the size of the input.  A convolution
keeps its input (a reference, like ``Linear``) and output size for
``backward``, and its columns only while :attr:`~repro.nn.module.Module.keeps_columns`
is on.  A worker's split bottom turns it off: its forward waits at the merge
barrier for the whole cohort, so ``backward`` re-unfolds the input with the
same ``im2col`` instead -- bit-identical gradients for a cohort that holds
activations, not columns.  The activations it holds are the convolutions'
inputs; a max-pool keeps one bool per window position, not the activation
it pooled (:class:`~repro.nn.layers.pooling.MaxPool2d`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import kaiming_uniform, zeros
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import new_rng


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


@functools.cache
def _tap_spans(
    kernel: int, stride: int, padding: int, size: int, out_size: int
) -> tuple[tuple[slice, slice], ...]:
    """Along one axis, per kernel tap: the output positions that read a real
    (not padding) input element, and the input elements they read.  A model
    asks for the same few geometries at every forward and backward, so the
    spans are computed once per geometry."""
    spans = []
    for tap in range(kernel):
        first = max(0, -((tap - padding) // stride))
        last = max(first, min(out_size, (size - 1 - tap + padding) // stride + 1))
        start = tap - padding + stride * first
        spans.append(
            (slice(first, last), slice(start, start + stride * (last - first), stride))
        )
    return tuple(spans)


def im2col(
    inputs: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold image patches into columns.

    Args:
        inputs: Array of shape ``(batch, channels, height, width)``.
        kernel: ``(kh, kw)`` kernel size.
        stride: ``(sh, sw)`` stride.
        padding: ``(ph, pw)`` zero padding.

    Returns:
        Tuple of the column tensor with shape
        ``(batch, channels * kh * kw, out_h * out_w)`` and ``(out_h, out_w)``.
    """
    batch, channels, height, width = inputs.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"convolution output would be empty for input {inputs.shape} "
            f"kernel {kernel} stride {stride} padding {padding}"
        )
    # Patches are copied straight from ``inputs``; what would read the zero
    # padding is never written, so the buffer starts zeroed when there is any.
    allocate = np.zeros if ph or pw else np.empty
    cols = allocate((batch, channels, kh, kw, out_h, out_w), dtype=inputs.dtype)
    column_spans = _tap_spans(kw, sw, pw, width, out_w)
    for i, (out_rows, rows) in enumerate(_tap_spans(kh, sh, ph, height, out_h)):
        for j, (out_columns, columns) in enumerate(column_spans):
            cols[:, :, i, j, out_rows, out_columns] = inputs[:, :, rows, columns]
    cols = cols.reshape(batch, channels * kh * kw, out_h * out_w)
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    output_size: tuple[int, int],
) -> np.ndarray:
    """Fold column gradients back into image-shaped gradients (adjoint of im2col)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = output_size
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    image = np.zeros(input_shape, dtype=cols.dtype)
    column_spans = _tap_spans(kw, sw, pw, width, out_w)
    for i, (out_rows, rows) in enumerate(_tap_spans(kh, sh, ph, height, out_h)):
        for j, (out_columns, columns) in enumerate(column_spans):
            image[:, :, rows, columns] += cols[:, :, i, j, out_rows, out_columns]
    return image


class Conv2d(Module):
    """2-D convolution over ``(batch, channels, height, width)`` inputs.

    Between forward and backward it holds its input, the output size and,
    when :attr:`keeps_columns` is on, the im2col columns; otherwise
    ``backward`` rebuilds the columns from the input.  Nothing may write
    into the input in between.
    """

    per_sample = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = rng if rng is not None else new_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        fan_in = in_channels * self.kernel_size[0] * self.kernel_size[1]
        self.weight = Parameter(
            kaiming_uniform((out_channels, fan_in), fan_in, rng), name="weight"
        )
        self.bias = Parameter(zeros((out_channels,)), name="bias") if bias else None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects (batch, {self.in_channels}, H, W), got {inputs.shape}"
            )
        cols, out_size = im2col(inputs, self.kernel_size, self.stride, self.padding)
        self._forward_state = (inputs, cols if self.keeps_columns else None, out_size)
        out = np.matmul(self.weight.data, cols)
        if self.bias is not None:
            out += self.bias.data[:, None]
        batch = inputs.shape[0]
        return out.reshape(batch, self.out_channels, out_size[0], out_size[1])

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        inputs, cols, out_size = self._forward_state
        if cols is None:
            cols, __ = im2col(inputs, self.kernel_size, self.stride, self.padding)
        grad = grad_output.reshape(inputs.shape[0], self.out_channels, -1)
        self.weight.grad += np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
        del cols  # a rebuilt copy goes before the column gradient arrives
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2))
        if not self.needs_input_grad:
            return None
        grad_cols = np.matmul(self.weight.data.T, grad)
        return col2im(
            grad_cols, inputs.shape, self.kernel_size, self.stride, self.padding, out_size
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class Conv1d(Module):
    """1-D convolution over ``(batch, channels, length)`` inputs.

    Implemented by delegating to the 2-D machinery with a height of one,
    which keeps a single, well-tested im2col implementation.
    """

    per_sample = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self._conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size=(1, kernel_size),
            stride=(1, stride),
            padding=(0, padding),
            bias=bias,
            rng=rng,
        )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    @property
    def weight(self) -> Parameter:
        """Underlying weight parameter (shared with the 2-D implementation)."""
        return self._conv.weight

    @property
    def bias(self) -> Parameter | None:
        """Underlying bias parameter."""
        return self._conv.bias

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 3 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv1d expects (batch, {self.in_channels}, L), got {inputs.shape}"
            )
        self._conv.keeps_columns = self.keeps_columns
        out = self._conv.forward(inputs[:, :, None, :])
        return out[:, :, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        self._conv.needs_input_grad = self.needs_input_grad
        grad = self._conv.backward(grad_output[:, :, None, :])
        return None if grad is None else grad[:, :, 0, :]

    def parameters(self) -> list[Parameter]:
        return self._conv.parameters()

    def clear_forward_state(self) -> None:
        self._conv.clear_forward_state()
