"""Regularisation layers: dropout and batch normalisation."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import new_rng


class Dropout(Module):
    """Inverted dropout: active only in training mode."""

    per_sample = True

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else new_rng()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._forward_state = None
            return inputs
        keep = 1.0 - self.p
        mask = self._forward_state = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            return grad_output
        return grad_output * self._forward_state

    def extra_state(self) -> dict:
        return {"rng": self._rng.bit_generator.state}

    def load_extra_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]


class _BatchNormBase(Module):
    """Shared machinery for 1-D and 2-D batch normalisation."""

    per_sample = True

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def extra_state(self) -> dict:
        return {
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def load_extra_state(self, state: dict) -> None:
        self.running_mean = np.asarray(state["running_mean"], dtype=np.float64).copy()
        self.running_var = np.asarray(state["running_var"], dtype=np.float64).copy()

    def _normalize(self, flat: np.ndarray) -> np.ndarray:
        """Normalise a (samples, features) view and cache backward state."""
        if self.training:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (flat - mean) * inv_std
        self._forward_state = (normalized, inv_std, flat - mean)
        return normalized * self.gamma.data + self.beta.data

    def _denormalize_grad(self, grad_flat: np.ndarray) -> np.ndarray:
        """Backward pass on the (samples, features) view."""
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, centered = self._forward_state
        samples = grad_flat.shape[0]
        self.gamma.grad += (grad_flat * normalized).sum(axis=0)
        self.beta.grad += grad_flat.sum(axis=0)
        if not self.training:
            return grad_flat * self.gamma.data * inv_std
        grad_norm = grad_flat * self.gamma.data
        grad_var = (grad_norm * centered).sum(axis=0) * -0.5 * inv_std**3
        grad_mean = (-grad_norm * inv_std).sum(axis=0) + grad_var * (
            -2.0 * centered.mean(axis=0)
        )
        return (
            grad_norm * inv_std
            + grad_var * 2.0 * centered / samples
            + grad_mean / samples
        )


class BatchNorm1d(_BatchNormBase):
    """Batch normalisation over ``(batch, features)`` inputs."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm1d expects (batch, {self.num_features}), got {inputs.shape}"
            )
        return self._normalize(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._denormalize_grad(grad_output)


class BatchNorm2d(_BatchNormBase):
    """Batch normalisation over ``(batch, channels, height, width)`` inputs."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expects (batch, {self.num_features}, H, W), "
                f"got {inputs.shape}"
            )
        flat = inputs.transpose(0, 2, 3, 1).reshape(-1, self.num_features)
        out = self._normalize(flat)
        batch, channels, height, width = inputs.shape
        return out.reshape(batch, height, width, channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, channels, height, width = grad_output.shape
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.num_features)
        grad = self._denormalize_grad(grad_flat)
        return grad.reshape(batch, height, width, channels).transpose(0, 3, 1, 2)
