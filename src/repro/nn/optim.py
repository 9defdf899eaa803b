"""Optimizers and learning-rate schedules.

The paper trains every model with mini-batch SGD (Eq. 2-3, 15-16); the
learning rate decays multiplicatively per communication round, and
MergeSFL additionally scales each worker's learning rate with its batch
size (Section IV-B).  ``SGD.lr`` is therefore a plain mutable attribute so
the training loops can re-scale it every round.

Momentum buffers exist only while ``momentum > 0``: at the default of 0 an
optimizer holds no per-parameter state, yet its ``state_dict`` still
writes the all-zero ``velocity`` arrays it always wrote, so checkpoints
keep their bytes and every old checkpoint loads.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter


def check_sgd_settings(
    learning_rates, momentum: float, weight_decay: float,
    max_grad_norm: float | None,
) -> None:
    """Raise ``ValueError`` unless every learning rate (a scalar or one per
    worker) is finite and positive, ``momentum`` lies in ``[0, 1)``,
    ``weight_decay`` is non-negative and ``max_grad_norm`` is ``None`` or
    positive.  Written so that a NaN fails every check."""
    rates = np.asarray(learning_rates, dtype=np.float64)
    if not np.all(np.isfinite(rates) & (rates > 0)):
        raise ValueError(
            f"learning rates must be finite and positive, got {learning_rates}"
        )
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if not weight_decay >= 0:
        raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
    if max_grad_norm is not None and not max_grad_norm > 0:
        raise ValueError(f"max_grad_norm must be positive, got {max_grad_norm}")


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
    ) -> None:
        check_sgd_settings(lr, momentum, weight_decay, max_grad_norm)
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        #: Momentum buffers, allocated by the first step that uses them.
        self._velocity: list[np.ndarray] | None = None

    def zero_grad(self) -> None:
        """Zero all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def grad_norm(self) -> float:
        """Global L2 norm of all accumulated gradients."""
        total = 0.0
        for param in self.parameters:
            total += float(np.sum(param.grad**2))
        return float(np.sqrt(total))

    def clip_gradients(self) -> None:
        """Scale gradients in place so the global norm stays within bounds."""
        if self.max_grad_norm is None:
            return
        norm = self.grad_norm()
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for param in self.parameters:
                param.grad *= scale

    def state_dict(self) -> dict:
        """Learning rate and momentum buffers for checkpointing (zeros for
        buffers not yet allocated)."""
        if self._velocity is None:
            velocity = [np.zeros_like(p.data) for p in self.parameters]
        else:
            velocity = [buffer.copy() for buffer in self._velocity]
        return {"lr": self.lr, "velocity": velocity}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        velocity = state["velocity"]
        if len(velocity) != len(self.parameters):
            raise ValueError(
                f"checkpoint has {len(velocity)} momentum buffers, "
                f"optimizer has {len(self.parameters)}"
            )
        restored = []
        for buffer, param in zip(velocity, self.parameters):
            buffer = np.asarray(buffer, dtype=np.float64)
            if buffer.shape != param.data.shape:
                raise ValueError(
                    f"momentum buffer shape mismatch: expected "
                    f"{param.data.shape}, got {buffer.shape}"
                )
            restored.append(buffer.copy())
        self.lr = float(state["lr"])
        # Without momentum the buffers are never read: keep none.
        self._velocity = restored if self.momentum else None

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        self.clip_gradients()
        if self.momentum and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        for index, param in enumerate(self.parameters):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity[index]
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.lr * update


class ExponentialLR:
    """Multiply the learning rate by ``gamma`` after each ``step()`` call."""

    def __init__(self, optimizer: SGD, gamma: float) -> None:
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.optimizer = optimizer
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self._steps = 0

    def step(self) -> None:
        """Advance one round and decay the learning rate."""
        self._steps += 1
        self.optimizer.lr = self.base_lr * (self.gamma**self._steps)

    @property
    def current_lr(self) -> float:
        """Learning rate currently installed on the optimizer."""
        return self.optimizer.lr


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: SGD, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self._steps = 0

    def step(self) -> None:
        """Advance one step, decaying at every ``step_size`` boundary."""
        self._steps += 1
        exponent = self._steps // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma**exponent)

    @property
    def current_lr(self) -> float:
        """Learning rate currently installed on the optimizer."""
        return self.optimizer.lr
