"""What a training max-pool keeps for ``backward``: its window hits.

A worker's bottom holds its forward state until the merge barrier has heard
from the whole cohort, so what each layer keeps is what a round holds.  A
max-pool keeps one bool per window position and pooled output, and the
input shape -- not the activation it pooled, eight bytes per input element.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import MaxPool1d, MaxPool2d
from repro.nn.module import Module
from repro.utils.rng import new_rng


def _kept_arrays(value) -> list[np.ndarray]:
    """Every array in the forward state of ``value`` and of the modules
    nested in it."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in _kept_arrays(item)]
    if isinstance(value, Module):
        kept = _kept_arrays(value._forward_state)
        for child in vars(value).values():
            if isinstance(child, Module):
                kept += _kept_arrays(child)
        return kept
    return []


def _holds_state(layer: Module) -> bool:
    return layer._forward_state is not None or any(
        _holds_state(child) for child in vars(layer).values()
        if isinstance(child, Module)
    )


CASES = [
    (lambda: MaxPool2d(2), (2, 3, 8, 9), 4),
    (lambda: MaxPool2d(3), (2, 3, 9, 11), 9),
    (lambda: MaxPool2d((2, 3)), (3, 2, 7, 9), 6),
    (lambda: MaxPool1d(2), (3, 4, 17), 2),
]
IDS = ["2d-k2", "2d-k3", "2d-k2x3", "1d-k2"]


@pytest.mark.parametrize("make_layer,shape,window", CASES, ids=IDS)
def test_a_training_max_pool_keeps_its_window_hits(make_layer, shape, window):
    layer = make_layer()
    raw = new_rng(4).normal(size=shape)
    out = layer.forward(raw * (raw > 0))  # post-ReLU: ties at zero
    kept = _kept_arrays(layer)
    assert kept, "a training max-pool keeps its window hits"
    assert not any(np.issubdtype(array.dtype, np.floating) for array in kept)
    assert sum(array.nbytes for array in kept) <= window * out.size
    # What it keeps is enough: the gradient still routes.
    assert layer.backward(np.ones_like(out)).shape == shape


@pytest.mark.parametrize("make_layer,shape,window", CASES, ids=IDS)
def test_an_evaluating_max_pool_keeps_nothing(make_layer, shape, window):
    layer = make_layer()
    layer.forward(np.ones(shape))  # a training forward first
    layer.eval()
    layer.forward(new_rng(5).normal(size=shape))
    assert not _holds_state(layer)
