"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    per_sample = True

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        mask = self._forward_state = inputs > 0
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._forward_state


class Tanh(Module):
    """Hyperbolic tangent."""

    per_sample = True

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = self._forward_state = np.tanh(inputs)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._forward_state**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    per_sample = True

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = self._forward_state = 1.0 / (1.0 + np.exp(-inputs))
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        output = self._forward_state
        return grad_output * output * (1.0 - output)
