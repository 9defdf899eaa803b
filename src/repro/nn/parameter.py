"""Trainable parameter container."""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Attributes:
        data: The parameter values (``float64`` ndarray).
        grad: Accumulated gradient of the training loss w.r.t. ``data``;
            same shape as ``data``.
        name: Optional human-readable name set by the owning module.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros in place."""
        self.grad.fill(0.0)

    def copy(self) -> "Parameter":
        """Return a deep copy (data and grad)."""
        clone = Parameter.__new__(Parameter)
        clone.data = self.data.copy(order="K")
        clone.grad = self.grad.copy(order="K")
        clone.name = self.name
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"
