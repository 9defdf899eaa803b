"""Module and Sequential containers.

Every layer derives from :class:`Module` and implements ``forward`` and
``backward``.  ``backward`` receives the gradient of the loss with respect
to the layer output and must (a) accumulate gradients into its parameters
and (b) return the gradient with respect to its input.  This explicit
chain-rule style is all split federated learning needs: the split layer's
input gradient is exactly what the parameter server dispatches back to the
workers.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class for all neural-network layers and containers."""

    #: ``False`` on a layer whose input is raw data (see
    #: :meth:`Sequential.without_input_grad`): the layers that pay a GEMM
    #: for the input gradient -- ``Linear``, ``Conv2d``, ``Conv1d`` -- then
    #: accumulate their parameter gradients only and return ``None``.
    needs_input_grad = True

    #: ``False`` on a layer of a worker's split bottom, whose backward waits
    #: at the merge barrier (see :meth:`Sequential.without_kept_columns`):
    #: ``Conv2d`` and ``Conv1d`` then keep their input but not its im2col
    #: columns, and rebuild the columns in ``backward``.
    keeps_columns = True

    #: ``True`` on a layer whose output row ``i`` in evaluation mode is a
    #: function of input row ``i`` alone, bit for bit whatever rows run
    #: beside it: convolutions (one GEMM per sample), pooling, activations,
    #: ``Flatten``, and ``Dropout`` / ``BatchNorm`` (which use no batch
    #: statistics in evaluation mode).  Not ``Linear``: one GEMM over the
    #: batch rounds a row differently at different batch sizes.
    #: :func:`~repro.core.server.evaluate_classifier` runs a model's leading
    #: ``per_sample`` layers in small chunks of rows.
    per_sample = False

    def __init__(self) -> None:
        self.training = True
        #: Whatever ``forward`` keeps for ``backward``, and no more:
        #: inputs, masks, shapes, a convolution's im2col columns unless
        #: :attr:`keeps_columns` is off, and a max-pool's window hits (one
        #: bool per window position, not the activation it pooled).  A kept
        #: input is a reference, not a copy, so nothing may write into it
        #: between forward and backward.
        #: Every layer stores it here and nowhere else, so that copying a
        #: module and :meth:`clear_forward_state` can skip or drop it
        #: without knowing the layer.
        self._forward_state = None

    # -- computation ----------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output and cache whatever backward needs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient."""
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- parameters ------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Return the list of trainable parameters (possibly empty)."""
        return []

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """Return ``(name, parameter)`` pairs; names are stable across calls."""
        named = []
        for index, param in enumerate(self.parameters()):
            name = param.name or f"param{index}"
            full = f"{prefix}.{name}" if prefix else name
            named.append((full, param))
        return named

    def zero_grad(self) -> None:
        """Zero the gradient buffers of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval ----------------------------------------------------
    def train(self) -> "Module":
        """Put the module in training mode (affects Dropout/BatchNorm)."""
        self.training = True
        return self

    def eval(self) -> "Module":
        """Put the module in evaluation mode."""
        self.training = False
        return self

    # -- state -----------------------------------------------------------
    def extra_state(self) -> dict:
        """Non-parameter mutable state for bit-exact checkpointing.

        Layers that carry state outside their parameters -- RNG streams,
        running statistics -- override this (and :meth:`load_extra_state`)
        so checkpoint/resume reproduces their behaviour exactly.  The
        default is stateless.
        """
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Restore state captured by :meth:`extra_state`."""
        if state:
            raise ValueError(
                f"{type(self).__name__} does not accept extra state, "
                f"got keys {sorted(state)}"
            )

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a deep copy of all parameter arrays keyed by name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a state dict produced by ``state_dict``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data = value.copy()

    def clone(self) -> "Module":
        """Return an independent copy: parameters, gradients and buffers.

        Buffers are everything a layer owns besides its forward state --
        running statistics, RNG streams, ``training``.  The forward state
        is left behind, so a clone costs the model's size whatever batch
        the original last saw, and ``backward`` on a fresh clone raises
        until the clone has run its own ``forward``.  Layer attributes
        set on the original -- :attr:`keeps_columns`,
        :attr:`needs_input_grad` -- come along.
        """
        return copy.deepcopy(self)

    def __deepcopy__(self, memo: dict) -> "Module":
        copied = type(self).__new__(type(self))
        memo[id(self)] = copied
        for name, value in vars(self).items():
            copied.__dict__[name] = (
                None if name == "_forward_state" else _copied(value, memo)
            )
        return copied

    def clear_forward_state(self) -> None:
        """Drop what ``forward`` kept for ``backward`` (containers recurse)."""
        self._forward_state = None

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(param.size for param in self.parameters())


#: Attribute types a copy shares: nothing can write into them.
_IMMUTABLE = (bool, int, float, str, type(None))


def _copied(value, memo: dict):
    """``copy.deepcopy(value, memo)`` for what a layer holds, without its
    generic machinery: immutable values are shared, and modules,
    parameters, numeric arrays and lists of them are copied directly --
    through ``memo``, so an object held twice is still copied once.  Only
    other values (a Dropout's RNG stream) take a real deep copy."""
    kind = type(value)
    if kind in _IMMUTABLE or (
        kind is tuple and all(type(item) in _IMMUTABLE for item in value)
    ):
        return value
    copied = memo.get(id(value))
    if copied is not None:
        return copied
    if isinstance(value, Module):
        return value.__deepcopy__(memo)
    if kind is list:
        copied = memo[id(value)] = []
        copied.extend(_copied(item, memo) for item in value)
        return copied
    if kind is Parameter:
        copied = value.copy()
    elif kind is np.ndarray and value.dtype != object:
        copied = value.copy(order="K")
    else:
        return copy.deepcopy(value, memo)
    memo[id(value)] = copied
    return copied


class Sequential(Module):
    """An ordered container of modules applied one after another.

    Supports slicing (``model[:k]`` / ``model[k:]``), which is how split
    federated learning carves a full model into bottom and top submodels.
    Slicing shares the underlying layer objects; use :meth:`clone` for an
    independent copy.
    """

    def __init__(self, layers: list[Module] | None = None) -> None:
        super().__init__()
        self.layers: list[Module] = list(layers) if layers else []

    # -- container protocol ----------------------------------------------
    def append(self, layer: Module) -> "Sequential":
        """Append a layer and return self for chaining."""
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __getitem__(self, index: int | slice) -> "Module | Sequential":
        if isinstance(index, slice):
            return Sequential(self.layers[index])
        return self.layers[index]

    def without_input_grad(self) -> "Sequential":
        """Stop the first layer computing the gradient w.r.t. the model input.

        For a worker's own copy of a model, whose input is a mini-batch of
        raw data nobody differentiates: ``backward`` then returns ``None``.
        Never for the global model or a server-side bridge, whose input
        gradient is what gets dispatched.  Returns ``self`` for chaining.
        """
        self.layers[0].needs_input_grad = False
        return self

    def without_kept_columns(self) -> "Sequential":
        """Stop every convolution keeping its im2col columns for backward.

        For a worker's split bottom, whose forward waits at the merge
        barrier until the whole cohort has forwarded: it then holds its
        activations, not columns ``kh * kw`` times their size, and
        ``backward`` re-unfolds them (bit-identical gradients).  Never for a copy whose
        backward follows its forward at once -- an FL local copy, the
        server's top or bridges, the global model -- where the kept
        columns are still in cache.  Clones inherit the choice.  Returns
        ``self`` for chaining.
        """
        for layer in self.layers:
            layer.keeps_columns = False
        return self

    # -- computation ----------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- parameters ------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        named: list[tuple[str, Parameter]] = []
        for index, layer in enumerate(self.layers):
            layer_prefix = f"{prefix}.layer{index}" if prefix else f"layer{index}"
            named.extend(layer.named_parameters(layer_prefix))
        return named

    def clear_forward_state(self) -> None:
        for layer in self.layers:
            layer.clear_forward_state()

    def train(self) -> "Sequential":
        super().train()
        for layer in self.layers:
            layer.train()
        return self

    def eval(self) -> "Sequential":
        super().eval()
        for layer in self.layers:
            layer.eval()
        return self
