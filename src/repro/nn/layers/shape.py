"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    per_sample = True

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._forward_state = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._forward_state)
