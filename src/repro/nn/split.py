"""Model splitting: the defining operation of split federated learning.

A full model ``w`` is carved at the *split layer* into a bottom submodel
``w_b`` (trained on workers) and a top submodel ``w_p`` (trained on the
parameter server).  The bottom's output at the split layer is the *feature*
(smashed data) exchanged with the server; the gradient flowing back into
the split layer is what the server dispatches to workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SplitError
from repro.nn.models import forward_profile
from repro.nn.module import Module, Sequential


@dataclass
class SplitModel:
    """The two halves of a split model, views of one model's layers.

    Attributes:
        bottom: Worker-side submodel (input layer up to, excluding, the
            split position).
        top: Server-side submodel (split position to the output layer).
        split_index: Index in the original ``Sequential`` where the cut was
            made.
    """

    bottom: Sequential
    top: Sequential
    split_index: int
    _profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def full_forward(self, inputs):
        """Run the two halves back to back (used for evaluation)."""
        return self.top.forward(self.bottom.forward(inputs))

    def bottom_profile(
        self, input_shape: tuple[int, ...]
    ) -> tuple[int, tuple[int, ...]]:
        """:func:`~repro.nn.models.forward_profile` of the bottom: one
        sample's forward MACs and its feature shape.

        The cut fixes both, whatever the parameters, so the bottom is probed
        once per input shape, and on a clone: the probe neither draws from
        a Dropout in the bottom nor leaves forward state on it.  Set-up
        reads it twice (the default bandwidth budget and the engine's
        accounting at the global cut).
        """
        key = tuple(input_shape)
        if key not in self._profiles:
            self._profiles[key] = forward_profile(self.bottom.clone(), key)
        return self._profiles[key]


def split_model(model: Module, split_index: int) -> SplitModel:
    """Split a :class:`Sequential` model at ``split_index``.

    Layers ``[0, split_index)`` become the bottom model and layers
    ``[split_index, len(model))`` become the top model.  The halves are
    views holding ``model``'s own layers: training them trains ``model``.

    Args:
        model: A ``Sequential`` model.
        split_index: Cut position; must satisfy ``0 < split_index < len(model)``.

    Raises:
        SplitError: If the model is not Sequential or the index is out of
            range (both halves must be non-empty).
    """
    if not isinstance(model, Sequential):
        raise SplitError(f"only Sequential models can be split, got {type(model)!r}")
    if not 0 < split_index < len(model):
        raise SplitError(
            f"split index must be in (0, {len(model)}), got {split_index}"
        )
    bottom = Sequential(model.layers[:split_index])
    top = Sequential(model.layers[split_index:])
    return SplitModel(bottom=bottom, top=top, split_index=split_index)


def candidate_split_depths(bottom: Sequential) -> list[int]:
    """Valid per-worker cut depths *within* an already-split bottom model.

    A depth ``d`` means a worker holds ``bottom.layers[:d]`` and the server
    completes the remaining ``bottom.layers[d:]`` before the shared top.
    Cuts directly after a weighted layer swallow any parameter-free layers
    that follow (activations, pooling, flatten), matching the convention of
    :func:`repro.nn.models.default_split_layer`; the full bottom depth (the
    global cut in use today) is always the last candidate.
    """
    depths = []
    for index, layer in enumerate(bottom.layers):
        if layer.parameters():
            depth = index + 1
            while depth < len(bottom) and not bottom.layers[depth].parameters():
                depth += 1
            depths.append(depth)
    depths.append(len(bottom))
    return sorted(set(depths))


def carve_prefix(bottom: Sequential, depth: int) -> Sequential:
    """Deep copy of the worker-side prefix ``bottom.layers[:depth]``.

    Parameter names keep their global positions (``layer0`` ..
    ``layer{depth-1}``), so a prefix state dict is a subset of the full
    bottom state dict.
    """
    if not 0 < depth <= len(bottom):
        raise SplitError(
            f"prefix depth must be in (0, {len(bottom)}], got {depth}"
        )
    return Sequential(bottom.layers[:depth]).clone()


def carve_bridge(bottom: Sequential, depth: int) -> Sequential:
    """Deep copy of the server-side bridge ``bottom.layers[depth:]``.

    The bridge completes a depth-``depth`` worker's forward pass up to the
    shared split layer.  Its parameters are renumbered from ``layer0``; use
    :func:`shift_state_keys` with offset ``depth`` to map them back to
    global bottom positions.
    """
    if not 0 < depth <= len(bottom):
        raise SplitError(
            f"bridge depth must be in (0, {len(bottom)}], got {depth}"
        )
    return Sequential(bottom.layers[depth:]).clone()


def shift_state_keys(state: dict, offset: int) -> dict:
    """Renumber ``layer{i}.*`` keys of a state dict by ``offset`` positions.

    Maps a bridge's local parameter names (``layer0.*`` for the layer at
    global position ``depth``) onto the global bottom naming, letting a
    prefix state plus a shifted bridge state reassemble one full bottom
    state dict.
    """
    shifted = {}
    for key, value in state.items():
        head, _, rest = key.partition(".")
        if not head.startswith("layer"):
            raise SplitError(f"unexpected state key {key!r}")
        index = int(head[len("layer"):]) + offset
        shifted[f"layer{index}.{rest}"] = value
    return shifted
