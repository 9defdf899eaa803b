"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import kaiming_uniform, zeros
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import new_rng


class Linear(Module):
    """Affine transform ``y = x W^T + b``.

    Args:
        in_features: Input dimensionality.
        out_features: Output dimensionality.
        bias: Whether to learn an additive bias.
        rng: Generator used for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else new_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform((out_features, in_features), in_features, rng),
            name="weight",
        )
        self.bias = Parameter(zeros((out_features,)), name="bias") if bias else None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expects (batch, {self.in_features}), got {inputs.shape}"
            )
        self._forward_state = inputs
        out = inputs @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        inputs = self._forward_state
        self.weight.grad += grad_output.T @ inputs
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        if not self.needs_input_grad:
            return None
        return grad_output @ self.weight.data

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params
