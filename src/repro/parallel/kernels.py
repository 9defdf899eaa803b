"""Vectorized (worker-stacked) counterparts of the dense ``nn/layers`` kernels.

The :class:`~repro.parallel.batched.BatchedExecutor` stacks the selected
workers' identically-shaped bottom models along a new leading *worker* axis
``w`` and runs a single numpy kernel per layer for all workers at once:
activations have shape ``(w, batch, ...)`` and parameters ``(w, ...)``.
Each batched layer mirrors its serial counterpart operation for operation,
so the results are bit-identical to running the serial layer once per
worker -- the executor equivalence suite asserts exactly that.

Only the dense layers (:data:`BATCHED_LAYER_TYPES`: linear, activations,
flatten, dropout, BatchNorm1d) have a stacked kernel.  There one matmul
over the stacked operands replaces ``w`` small kernel launches, so the
Python layer dispatch and numpy call overhead -- the dominant cost at
simulation scale -- is paid once per layer instead of once per worker per
layer.  Convolution and pooling spend their time inside im2col/GEMM, where
stacking saves nothing and the larger working set costs cache: stacked
conv kernels measured 0.83-0.85x of the per-worker loop (EXPERIMENTS.md,
PR 13) and were deleted; models containing such layers run per worker.

A stacked cohort holds each parameter once.  :class:`BatchedSGD` keeps
momentum buffers only when ``momentum > 0``,
:meth:`BatchedModel.state_dict_for` hands out read-only row views of the
stacked parameters instead of copies, and
:meth:`BatchedModel.keep_parameters_only` drops the gradients and forward
state once no step can follow.

A stacked backward *writes* every parameter gradient (``np.matmul(...,
out=grad)``, ``np.sum(..., out=grad)``) and then adds ``0.0``, which is the
serial layer's zeroed ``0.0 + x`` byte for byte; so nothing zeroes the
stacked gradients between steps, and :meth:`BatchedSGD.step` at momentum 0
scales them by the learning rates in place.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers.linear import Linear
from repro.nn.layers.regularization import BatchNorm1d, Dropout
from repro.nn.layers.shape import Flatten
from repro.nn.module import Sequential
from repro.nn.optim import check_sgd_settings


class BatchedParameter:
    """A parameter replicated along the leading worker axis.

    ``grad`` is ``None`` once :meth:`BatchedModel.keep_parameters_only`
    has dropped it.
    """

    def __init__(self, data: np.ndarray, name: str) -> None:
        self.data = data
        self.grad: np.ndarray | None = np.zeros_like(data)
        self.name = name


class BatchedLayer:
    """Base class: serial ``layer`` vectorized over ``count`` workers.

    Like :class:`~repro.nn.module.Module`, whatever ``forward`` keeps for
    ``backward`` lives in ``_forward_state``, which
    :meth:`clear_forward_state` drops.
    """

    #: As :attr:`repro.nn.module.Module.needs_input_grad`.
    needs_input_grad = True

    def __init__(self, layer, count: int) -> None:
        self.count = count
        self.params: list[BatchedParameter] = []
        self._forward_state = None

    def clear_forward_state(self) -> None:
        self._forward_state = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _stack(array: np.ndarray, count: int) -> np.ndarray:
    """Replicate an array ``count`` times along a new leading axis."""
    return np.repeat(array[None], count, axis=0)


def _settle(grad: np.ndarray) -> None:
    """Finish a written gradient as the serial layer's ``0.0 + x`` would:
    ``x + 0.0`` is ``x`` bit for bit, except that a ``-0.0`` turns ``+0.0``."""
    grad += 0.0


class BatchedLinear(BatchedLayer):
    """``y = x W^T + b`` for a stack of per-worker weights.

    ``np.matmul`` over a stacked operand runs the same GEMM per 2-D slice
    as the serial ``inputs @ W.T``, so the results match bitwise.
    """

    def __init__(self, layer: Linear, count: int) -> None:
        super().__init__(layer, count)
        self.weight = BatchedParameter(_stack(layer.weight.data, count), "weight")
        self.params = [self.weight]
        self.bias = None
        if layer.bias is not None:
            self.bias = BatchedParameter(_stack(layer.bias.data, count), "bias")
            self.params.append(self.bias)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._forward_state = inputs
        out = np.matmul(inputs, self.weight.data.transpose(0, 2, 1))
        if self.bias is not None:
            out = out + self.bias.data[:, None, :]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        inputs = self._forward_state
        np.matmul(grad_output.transpose(0, 2, 1), inputs, out=self.weight.grad)
        _settle(self.weight.grad)
        if self.bias is not None:
            np.sum(grad_output, axis=1, out=self.bias.grad)
            _settle(self.bias.grad)
        if not self.needs_input_grad:
            return None
        return np.matmul(grad_output, self.weight.data)


class BatchedReLU(BatchedLayer):
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        mask = self._forward_state = inputs > 0
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._forward_state


class BatchedTanh(BatchedLayer):
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._forward_state = np.tanh(inputs)
        return self._forward_state

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._forward_state**2)


class BatchedSigmoid(BatchedLayer):
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._forward_state = 1.0 / (1.0 + np.exp(-inputs))
        return self._forward_state

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        output = self._forward_state
        return grad_output * output * (1.0 - output)


class BatchedFlatten(BatchedLayer):
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._forward_state = inputs.shape
        return inputs.reshape(inputs.shape[0], inputs.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._forward_state)


class BatchedBatchNorm1d(BatchedLayer):
    """Stacked batch normalisation over ``(w, batch, features)`` inputs.

    Every reduction is over the middle (batch) axis, which numpy evaluates as
    the same sequential row accumulation the serial layer's ``axis=0``
    reductions use -- so batch statistics, outputs and gradients are
    bit-identical per worker slice.  Each worker carries its own running
    statistics, exactly like the per-worker clones of serial execution.
    """

    def __init__(self, layer: BatchNorm1d, count: int) -> None:
        super().__init__(layer, count)
        self.momentum = layer.momentum
        self.eps = layer.eps
        self.training = True
        self.gamma = BatchedParameter(_stack(layer.gamma.data, count), "gamma")
        self.beta = BatchedParameter(_stack(layer.beta.data, count), "beta")
        self.params = [self.gamma, self.beta]
        self.running_mean = _stack(layer.running_mean, count).copy()
        self.running_var = _stack(layer.running_var, count).copy()

    def forward(self, flat: np.ndarray) -> np.ndarray:
        if self.training:
            mean = flat.mean(axis=1)
            var = flat.var(axis=1)
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
        normalized = (flat - mean[:, None, :]) * inv_std[:, None, :]
        self._forward_state = (normalized, inv_std, flat - mean[:, None, :])
        return normalized * self.gamma.data[:, None, :] + self.beta.data[:, None, :]

    def backward(self, grad_flat: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, centered = self._forward_state
        samples = grad_flat.shape[1]
        np.sum(grad_flat * normalized, axis=1, out=self.gamma.grad)
        _settle(self.gamma.grad)
        np.sum(grad_flat, axis=1, out=self.beta.grad)
        _settle(self.beta.grad)
        if not self.training:
            return grad_flat * self.gamma.data[:, None, :] * inv_std[:, None, :]
        grad_norm = grad_flat * self.gamma.data[:, None, :]
        grad_var = (grad_norm * centered).sum(axis=1) * -0.5 * inv_std**3
        grad_mean = (-grad_norm * inv_std[:, None, :]).sum(axis=1) + grad_var * (
            -2.0 * centered.mean(axis=1)
        )
        return (
            grad_norm * inv_std[:, None, :]
            + grad_var[:, None, :] * 2.0 * centered / samples
            + grad_mean[:, None, :] / samples
        )


class BatchedDropout(BatchedLayer):
    """Inverted dropout with one RNG clone per worker.

    Serial execution clones the template layer once per worker, so every
    worker's mask stream starts from the template's current RNG state; the
    batched layer reproduces that by deep-copying the template generator
    ``count`` times and drawing each worker's mask from its own clone.
    """

    def __init__(self, layer: Dropout, count: int) -> None:
        super().__init__(layer, count)
        self.p = layer.p
        self._rngs = [copy.deepcopy(layer._rng) for _ in range(count)]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._forward_state = None
            return inputs
        keep = 1.0 - self.p
        mask = self._forward_state = np.stack(
            [(rng.random(inputs.shape[1:]) < keep) / keep for rng in self._rngs]
        )
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._forward_state is None:
            return grad_output
        return grad_output * self._forward_state


#: Serial layer type -> stacked counterpart: the *dense* layers.  With no
#: im2col or pooling windows to build, a forward or backward here is one
#: small GEMM or elementwise op per worker, so the stacked kernel's single
#: call per layer is what a large cohort saves.  Conv/pool/BatchNorm2d
#: layers have no stacked kernel (stacked, they measured 0.83-0.85x of the
#: per-worker loop) and third-party layers cannot have one: a model
#: containing any layer outside this table runs per worker.
BATCHED_LAYER_TYPES: dict[type, type] = {
    Linear: BatchedLinear,
    ReLU: BatchedReLU,
    Tanh: BatchedTanh,
    Sigmoid: BatchedSigmoid,
    Flatten: BatchedFlatten,
    Dropout: BatchedDropout,
    BatchNorm1d: BatchedBatchNorm1d,
}


def unsupported_layers(model: Sequential) -> list[str]:
    """Names of layer types in ``model`` without a batched counterpart.

    The lookup is by exact type: a subclass may change ``forward`` in ways
    the batched kernel would not reproduce, so it falls back too.
    """
    return sorted(
        {
            type(layer).__name__
            for layer in model.layers
            if type(layer) not in BATCHED_LAYER_TYPES
        }
    )


class BatchedModel:
    """A Sequential vectorized over ``count`` identically-initialised workers.

    Parameters start as ``count`` copies of the template's current values;
    :meth:`state_dict_for` hands one worker's parameters back out, as
    read-only row views under the same names ``Sequential.state_dict``
    would use.  The stack is the
    workers' own copies, fed raw mini-batches, so like them
    (:meth:`~repro.nn.module.Sequential.without_input_grad`) it computes no
    gradient w.r.t. its input and ``backward`` returns ``None``.
    """

    def __init__(self, template: Sequential, count: int) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        names = unsupported_layers(template)
        if names:
            raise ValueError(f"no batched kernels for layer types: {names}")
        self.count = count
        self.layers = [
            BATCHED_LAYER_TYPES[type(layer)](layer, count)
            for layer in template.layers
        ]
        self.layers[0].needs_input_grad = False
        self._param_names = [name for name, _ in template.named_parameters()]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> None:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def parameters(self) -> list[BatchedParameter]:
        params: list[BatchedParameter] = []
        for layer in self.layers:
            params.extend(layer.params)
        return params

    def clear_forward_state(self) -> None:
        for layer in self.layers:
            layer.clear_forward_state()

    def keep_parameters_only(self) -> None:
        """Drop the gradients and the forward state: no step can follow."""
        for param in self.parameters():
            param.grad = None
        self.clear_forward_state()

    def state_dict_for(self, slot: int) -> dict[str, np.ndarray]:
        """State dict of worker ``slot``, named like the serial model's.

        The values are read-only views of row ``slot`` of the stacked
        parameters, not copies: the aggregation that consumes them gathers
        them once, and a step that would write through them must not run
        while they are in use.
        """
        state = {}
        for name, param in zip(self._param_names, self.parameters()):
            row = param.data[slot]
            row.flags.writeable = False
            state[name] = row
        return state


class BatchedSGD:
    """Per-worker SGD on stacked parameters, mirroring :class:`~repro.nn.optim.SGD`.

    Each worker has its own learning rate (batch-size-proportional scaling)
    and its own global-norm clip decision; all elementwise update arithmetic
    matches the serial optimizer operation for operation.  Momentum buffers
    exist only when ``momentum > 0``; without them :meth:`step` leaves the
    gradients scaled by the learning rates, which the next backward
    overwrites.  The settings are checked as :class:`~repro.nn.optim.SGD`
    checks them, with one finite, positive rate per stacked row.
    """

    def __init__(
        self,
        parameters: list[BatchedParameter],
        learning_rates: np.ndarray,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
    ) -> None:
        self.parameters = list(parameters)
        self.learning_rates = np.asarray(learning_rates, dtype=np.float64)
        check_sgd_settings(
            self.learning_rates, momentum, weight_decay, max_grad_norm
        )
        rows = {param.data.shape[0] for param in self.parameters}
        if self.learning_rates.ndim != 1 or rows - {len(self.learning_rates)}:
            raise ValueError(
                f"expected one learning rate per stacked row ({sorted(rows)}), "
                f"got shape {self.learning_rates.shape}"
            )
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocity = [
            np.zeros_like(p.data) if momentum else None for p in self.parameters
        ]

    def _clipped_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Workers whose global gradient norm exceeds the bound, and their
        scale factors; none when clipping is disabled.

        The serial optimizer scales a worker's gradients only when it
        clips, so the other rows are left untouched, not multiplied by 1.0.
        """
        if self.max_grad_norm is None:
            return np.empty(0, dtype=np.intp), np.empty(0)
        count = self.learning_rates.shape[0]
        total = np.zeros(count)
        for param in self.parameters:
            total += np.sum(param.grad.reshape(count, -1) ** 2, axis=1)
        norm = np.sqrt(total)
        rows = np.flatnonzero(norm > self.max_grad_norm)
        return rows, self.max_grad_norm / norm[rows]

    def step(self) -> None:
        rows, scales = self._clipped_rows()
        for param, velocity in zip(self.parameters, self._velocity):
            tail = (1,) * (param.data.ndim - 1)
            if rows.size:
                param.grad[rows] *= scales.reshape(-1, *tail)
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            rates = self.learning_rates.reshape(-1, *tail)
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                param.data -= rates * velocity
            else:
                # The products of ``rates * grad``, without a temporary.
                grad *= rates
                param.data -= grad


def batched_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker mean softmax cross-entropy and its gradient.

    Returns ``(losses, grad)``: ``losses[w]`` matches
    ``CrossEntropyLoss.forward(...)`` and ``grad[w]`` the following
    ``CrossEntropyLoss.backward()`` applied to worker ``w``'s
    ``(batch, classes)`` slice.  The softmax shift, exponentiation and row
    normalisation are all per-row operations and the loss reduces each
    worker's contiguous row of log-likelihoods exactly as the 1-D mean
    does, so adding the leading worker axis leaves every element's
    arithmetic unchanged.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    workers, batch = labels.shape
    picked = (np.arange(workers)[:, None], np.arange(batch)[None, :], labels)
    losses = (-np.log(probs[picked] + 1e-12)).mean(axis=-1)
    grad = probs.copy()
    grad[picked] -= 1.0
    return losses, grad / batch
