"""Pooling layers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.module import Module


def _pool_pair(kernel_size: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(kernel_size, tuple):
        return kernel_size
    return (kernel_size, kernel_size)


def _window_max(
    inputs: np.ndarray, kernel: tuple[int, int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The max over non-overlapping ``kernel`` windows of the two trailing
    axes, and one strided view per window position, row-major over the
    window.  Rows and columns that do not fill a window are dropped."""
    kh, kw = kernel
    out_h, out_w = inputs.shape[-2] // kh, inputs.shape[-1] // kw
    trimmed = inputs[..., : out_h * kh, : out_w * kw]
    taps = [trimmed[..., i::kh, j::kw] for i in range(kh) for j in range(kw)]
    out = taps[0]
    for tap in taps[1:]:
        out = np.maximum(out, tap)
    return out, taps


def max_pool(
    inputs: np.ndarray, kernel: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Max over non-overlapping ``kernel`` windows of the two trailing axes.

    Returns the pooled ``(..., out_h, out_w)`` array and the backward mask of
    shape ``(..., out_h, kh, out_w, kw)``: one over the number of window
    positions that equal the window's maximum at those positions (ties share
    the gradient), zero elsewhere.  Rows and columns that do not fill a
    window are dropped.  With :func:`max_pool_backward` this is the
    reference :class:`MaxPool2d` is tested against; the layer itself keeps
    no mask, only its window hits (one bool per window position).
    """
    kh, kw = kernel
    out, taps = _window_max(inputs, kernel)
    out_w = out.shape[-1]
    hits = [tap == out for tap in taps]
    counts = np.zeros(out.shape)
    for hit in hits:
        counts += hit
    mask = np.empty((*out.shape[:-1], kh, out_w, kw))
    for index, hit in enumerate(hits):
        np.divide(hit, counts, out=mask[..., index // kw, :, index % kw])
    return out, mask


def max_pool_backward(
    mask: np.ndarray, grad_output: np.ndarray, input_shape: tuple[int, ...]
) -> np.ndarray:
    """Route ``grad_output`` through :func:`max_pool`'s mask to the inputs."""
    grad_windows = mask * grad_output[..., :, None, :, None]
    out_h, kh, out_w, kw = mask.shape[-4:]
    grad_trimmed = grad_windows.reshape(*mask.shape[:-4], out_h * kh, out_w * kw)
    grad_input = np.zeros(input_shape, dtype=np.float64)
    grad_input[..., : out_h * kh, : out_w * kw] = grad_trimmed
    return grad_input


class MaxPool2d(Module):
    """Non-overlapping 2-D max pooling with ``stride == kernel_size``.

    ``kernel_size`` may be an int (square window) or an ``(kh, kw)`` tuple.
    Inputs whose spatial size is not divisible by the kernel are truncated
    on the right/bottom (the same convention PyTorch uses with default
    ceil_mode=False).  In training it keeps the window hits -- one bool per
    window position and pooled output, ``(kh * kw, *out.shape)``, true where
    the position equals its window's maximum -- and the input shape, from
    which ``backward`` routes the gradient; not the input it pooled, which
    is eight times the hits' size.  In evaluation mode it keeps no forward
    state.
    """

    per_sample = True

    def __init__(self, kernel_size: int | tuple[int, int]) -> None:
        super().__init__()
        kh, kw = _pool_pair(kernel_size)
        if kh <= 0 or kw <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = (kh, kw)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"MaxPool2d expects 4-D input, got {inputs.shape}")
        kh, kw = self.kernel_size
        height, width = inputs.shape[2:]
        if height < kh or width < kw:
            raise ShapeError(
                f"input spatial size {height}x{width} smaller than kernel {self.kernel_size}"
            )
        out, taps = _window_max(inputs, self.kernel_size)
        if not self.training:
            self._forward_state = None
            return out
        hits = np.empty((len(taps), *out.shape), dtype=bool)
        for hit, tap in zip(hits, taps):
            np.equal(tap, out, out=hit)
        self._forward_state = (hits, inputs.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Each window position that equals its window's maximum receives
        ``((1 / count) * grad) * hit``: the same products, bit for bit, as
        ``max_pool_backward(max_pool(inputs, kernel)[1], grad_output,
        inputs.shape)``."""
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        hits, input_shape = self._forward_state
        kh, kw = self.kernel_size
        out_h, out_w = hits.shape[-2:]
        share = (1 / hits.sum(axis=0, dtype=np.float64)) * grad_output
        grad_input = np.zeros(input_shape, dtype=np.float64)
        for index, hit in enumerate(hits):
            i, j = divmod(index, kw)
            window = (..., slice(i, out_h * kh, kh), slice(j, out_w * kw, kw))
            np.multiply(share, hit, out=grad_input[window])
        return grad_input


class MaxPool1d(Module):
    """Non-overlapping 1-D max pooling, delegating to :class:`MaxPool2d`."""

    per_sample = True

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self._pool = MaxPool2d((1, kernel_size))
        self.kernel_size = kernel_size

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 3:
            raise ShapeError(f"MaxPool1d expects 3-D input, got {inputs.shape}")
        self._pool.training = self.training
        out = self._pool.forward(inputs[:, :, None, :])
        return out[:, :, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self._pool.backward(grad_output[:, :, None, :])
        return grad[:, :, 0, :]

    def clear_forward_state(self) -> None:
        self._pool.clear_forward_state()


class AvgPool2d(Module):
    """Non-overlapping 2-D average pooling with ``stride == kernel_size``."""

    per_sample = True

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"AvgPool2d expects 4-D input, got {inputs.shape}")
        k = self.kernel_size
        batch, channels, height, width = inputs.shape
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ShapeError(
                f"input spatial size {height}x{width} smaller than kernel {k}"
            )
        self._forward_state = inputs.shape
        trimmed = inputs[:, :, : out_h * k, : out_w * k]
        windows = trimmed.reshape(batch, channels, out_h, k, out_w, k)
        return windows.mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        input_shape = self._forward_state
        out_h, out_w = input_shape[2] // k, input_shape[3] // k
        grad = np.repeat(np.repeat(grad_output, k, axis=2), k, axis=3) / (k * k)
        grad_input = np.zeros(input_shape, dtype=np.float64)
        grad_input[:, :, : out_h * k, : out_w * k] = grad
        return grad_input
