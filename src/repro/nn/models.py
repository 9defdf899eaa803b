"""Model zoo: the four architectures used in the paper's evaluation.

The paper trains CNN-H (HAR), CNN-S (Google Speech), AlexNet (CIFAR-10) and
VGG16 (IMAGE-100).  The reproduction keeps the architectural shape of each
network (number of weighted layers, conv/FC boundary, default split layer)
but scales channel widths down so that the CPU-only simulation remains
tractable.  A ``width`` multiplier restores larger models when desired.

Split positions follow Section V-A of the paper: CNN-H at the 3rd weighted
layer, CNN-S at the 4th, AlexNet at the 5th and VGG16 at the 13th -- i.e. in
every case the convolutional stack stays on the worker and the fully
connected classifier moves to the parameter server.
"""

from __future__ import annotations


import numpy as np

from repro.api.registry import MODELS, register_model
from repro.exceptions import ConfigurationError
from repro.nn.layers import (
    Conv1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool1d,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Sequential
from repro.utils.rng import new_rng, spawn_rngs


def _scaled(base: int, width: float) -> int:
    """Scale a channel count, never dropping below one."""
    return max(1, int(round(base * width)))


@register_model("mlp", input_kind="vector", split_after_weighted=1, paper_name="MLP")
def build_mlp(
    input_dim: int,
    num_classes: int,
    hidden_dims: tuple[int, ...] = (64, 32),
    seed: int | None = None,
) -> Sequential:
    """A small multi-layer perceptron, mostly used by unit tests."""
    rngs = spawn_rngs(seed if seed is not None else 0, len(hidden_dims) + 1)
    layers = []
    previous = input_dim
    for index, hidden in enumerate(hidden_dims):
        layers.append(Linear(previous, hidden, rng=rngs[index]))
        layers.append(ReLU())
        previous = hidden
    layers.append(Linear(previous, num_classes, rng=rngs[-1]))
    return Sequential(layers)


@register_model("cnn_h", input_kind="sequence", split_after_weighted=3, paper_name="CNN-H")
def build_cnn_h(
    num_classes: int = 6,
    in_channels: int = 9,
    sequence_length: int = 128,
    width: float = 1.0,
    seed: int | None = None,
) -> Sequential:
    """CNN-H: three conv layers + two FC layers, tailored to the HAR dataset."""
    rngs = spawn_rngs(seed if seed is not None else 0, 5)
    c1, c2, c3 = _scaled(16, width), _scaled(32, width), _scaled(32, width)
    hidden = _scaled(64, width)
    after_pool = sequence_length // 8
    if after_pool < 1:
        raise ConfigurationError(
            f"sequence_length={sequence_length} too short for three pooling stages"
        )
    return Sequential([
        Conv1d(in_channels, c1, kernel_size=5, padding=2, rng=rngs[0]),
        ReLU(),
        MaxPool1d(2),
        Conv1d(c1, c2, kernel_size=5, padding=2, rng=rngs[1]),
        ReLU(),
        MaxPool1d(2),
        Conv1d(c2, c3, kernel_size=5, padding=2, rng=rngs[2]),
        ReLU(),
        MaxPool1d(2),
        Flatten(),
        Linear(c3 * after_pool, hidden, rng=rngs[3]),
        ReLU(),
        Linear(hidden, num_classes, rng=rngs[4]),
    ])


@register_model("cnn_s", input_kind="sequence", split_after_weighted=4, paper_name="CNN-S")
def build_cnn_s(
    num_classes: int = 10,
    in_channels: int = 1,
    sequence_length: int = 1024,
    width: float = 1.0,
    seed: int | None = None,
) -> Sequential:
    """CNN-S: four 1-D conv layers + one FC layer, for speech recognition."""
    rngs = spawn_rngs(seed if seed is not None else 0, 5)
    c1 = _scaled(8, width)
    c2 = _scaled(16, width)
    c3 = _scaled(32, width)
    c4 = _scaled(32, width)
    after_pool = sequence_length // 16
    if after_pool < 1:
        raise ConfigurationError(
            f"sequence_length={sequence_length} too short for four pooling stages"
        )
    return Sequential([
        Conv1d(in_channels, c1, kernel_size=9, padding=4, rng=rngs[0]),
        ReLU(),
        MaxPool1d(2),
        Conv1d(c1, c2, kernel_size=5, padding=2, rng=rngs[1]),
        ReLU(),
        MaxPool1d(2),
        Conv1d(c2, c3, kernel_size=5, padding=2, rng=rngs[2]),
        ReLU(),
        MaxPool1d(2),
        Conv1d(c3, c4, kernel_size=3, padding=1, rng=rngs[3]),
        ReLU(),
        MaxPool1d(2),
        Flatten(),
        Linear(c4 * after_pool, num_classes, rng=rngs[4]),
    ])


@register_model("alexnet_s", input_kind="image", split_after_weighted=5, paper_name="AlexNet")
def build_alexnet_s(
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 32,
    width: float = 1.0,
    seed: int | None = None,
) -> Sequential:
    """AlexNet-S: five conv layers + two hidden FC layers + output layer.

    Mirrors the 8-layer AlexNet used for CIFAR-10 in the paper, scaled for a
    32x32 input and CPU training.
    """
    rngs = spawn_rngs(seed if seed is not None else 0, 8)
    c1 = _scaled(16, width)
    c2 = _scaled(32, width)
    c3 = _scaled(48, width)
    c4 = _scaled(32, width)
    c5 = _scaled(32, width)
    h1 = _scaled(128, width)
    h2 = _scaled(64, width)
    spatial = image_size // 8
    if spatial < 1:
        raise ConfigurationError(f"image_size={image_size} too small for AlexNet-S")
    return Sequential([
        Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rngs[0]),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c1, c2, kernel_size=3, padding=1, rng=rngs[1]),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c2, c3, kernel_size=3, padding=1, rng=rngs[2]),
        ReLU(),
        Conv2d(c3, c4, kernel_size=3, padding=1, rng=rngs[3]),
        ReLU(),
        Conv2d(c4, c5, kernel_size=3, padding=1, rng=rngs[4]),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(c5 * spatial * spatial, h1, rng=rngs[5]),
        ReLU(),
        Dropout(0.1, rng=new_rng(seed)),
        Linear(h1, h2, rng=rngs[6]),
        ReLU(),
        Linear(h2, num_classes, rng=rngs[7]),
    ])


@register_model("vgg_s", input_kind="image", split_after_weighted=13, paper_name="VGG16")
def build_vgg_s(
    num_classes: int = 100,
    in_channels: int = 3,
    image_size: int = 32,
    width: float = 1.0,
    seed: int | None = None,
) -> Sequential:
    """VGG-S: thirteen 3x3 conv layers + two FC layers + output layer.

    Follows the VGG16 layout (conv blocks of 2/2/3/3/3 with max pooling)
    with scaled-down channel widths so IMAGE-100-scale experiments run on
    CPU.  The default split layer is after the 13th conv, exactly as in the
    paper.
    """
    block_sizes = [2, 2, 3, 3, 3]
    base_channels = [8, 16, 24, 32, 32]
    rngs = spawn_rngs(seed if seed is not None else 0, 16)
    rng_index = 0
    layers: list = []
    channels = in_channels
    spatial = image_size
    for block, (count, base) in enumerate(zip(block_sizes, base_channels)):
        out_channels = _scaled(base, width)
        for __ in range(count):
            layers.append(
                Conv2d(channels, out_channels, kernel_size=3, padding=1,
                       rng=rngs[rng_index])
            )
            layers.append(ReLU())
            channels = out_channels
            rng_index += 1
        if spatial >= 2:
            layers.append(MaxPool2d(2))
            spatial //= 2
    if spatial < 1:
        raise ConfigurationError(f"image_size={image_size} too small for VGG-S")
    h1 = _scaled(128, width)
    h2 = _scaled(64, width)
    layers.extend([
        Flatten(),
        Linear(channels * spatial * spatial, h1, rng=rngs[13]),
        ReLU(),
        Dropout(0.1, rng=new_rng(seed)),
        Linear(h1, h2, rng=rngs[14]),
        ReLU(),
        Linear(h2, num_classes, rng=rngs[15]),
    ])
    return Sequential(layers)


def build_model(name: str, **kwargs) -> Sequential:
    """Build a model by registry name.

    Resolves through :data:`repro.api.registry.MODELS`, so models registered
    by third-party code (``@register_model``) work here too.
    """
    return MODELS.get(name)(**kwargs)


def has_default_split(name: str) -> bool:
    """Whether the model declares a split point (``split_after_weighted``).

    Models without one can still run full-model (FL) algorithms; split
    algorithms require the metadata.
    """
    return name in MODELS and "split_after_weighted" in MODELS.metadata(name)


def default_split_layer(name: str, model: Sequential) -> int:
    """Return the Sequential index at which ``model`` should be split.

    The cut is placed after the k-th weighted layer (the model's
    ``split_after_weighted`` registry metadata; the paper's split choices
    for the built-in zoo) and additionally swallows any parameter-free
    layers (ReLU, pooling) that immediately follow it, so the activation of
    the split layer is computed on the worker.
    """
    if not has_default_split(name):
        raise ConfigurationError(f"no default split registered for model {name!r}")
    target = int(MODELS.metadata(name)["split_after_weighted"])
    weighted_seen = 0
    split_index = None
    for index, layer in enumerate(model.layers):
        if layer.parameters():
            weighted_seen += 1
            if weighted_seen == target:
                split_index = index + 1
                break
    if split_index is None:
        raise ConfigurationError(
            f"model {name!r} has fewer than {target} weighted layers"
        )
    # Include trailing parameter-free layers (activation / pooling) in the bottom.
    while split_index < len(model) - 1 and not model.layers[split_index].parameters():
        split_index += 1
    if split_index >= len(model):
        raise ConfigurationError("split would leave an empty top model")
    return split_index


def estimate_forward_flops(model: Sequential, input_shape: tuple[int, ...]) -> int:
    """Estimate the multiply-accumulate count of one forward pass per sample.

    Used by the device simulator to convert a model into per-sample compute
    time on a given Jetson profile.  See :func:`forward_profile`.
    """
    return forward_profile(model, input_shape)[0]


def forward_profile(
    model: Sequential, input_shape: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """One sample's forward MACs through ``model`` and its output shape.

    Both come from one forward of a single dummy sample, which charges
    2*fan_in MACs per output element of each weighted layer.  The forward
    runs through ``model`` itself: a Dropout in it draws, and a convolution
    keeps its forward state.
    """
    activations = np.zeros((1, *input_shape), dtype=np.float64)
    total = 0
    for layer in model.layers:
        outputs = layer.forward(activations)
        if isinstance(layer, (Conv2d, Conv1d)):
            fan_in = layer.weight.data.shape[1]
            total += 2 * fan_in * int(np.prod(outputs.shape[1:]))
        elif isinstance(layer, Linear):
            total += 2 * layer.in_features * layer.out_features
        activations = outputs
    return int(total), tuple(activations.shape[1:])
