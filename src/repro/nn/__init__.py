"""A from-scratch NumPy neural-network library.

This subpackage replaces PyTorch in the reproduction.  It provides layer
modules with explicit ``forward``/``backward`` passes, losses, SGD
optimizers with learning-rate schedules, parameter (de)serialisation used
for federated aggregation, the paper's model zoo (CNN-H, CNN-S, AlexNet-S,
VGG-S) and the model-splitting utility at the heart of split federated
learning.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module, Sequential
from repro.nn.layers import (
    Linear,
    Conv2d,
    Conv1d,
    MaxPool2d,
    MaxPool1d,
    AvgPool2d,
    ReLU,
    Tanh,
    Sigmoid,
    Flatten,
    Dropout,
    BatchNorm1d,
    BatchNorm2d,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss, softmax, one_hot
from repro.nn.optim import SGD, ExponentialLR, StepLR
from repro.nn.serialization import (
    get_flat_params,
    set_flat_params,
    average_state_dicts,
    state_dict_distance,
    num_parameters,
    model_size_bytes,
)
from repro.nn.split import split_model, SplitModel
from repro.nn.models import (
    build_model,
    build_cnn_h,
    build_cnn_s,
    build_alexnet_s,
    build_vgg_s,
    build_mlp,
    default_split_layer,
)

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "Conv1d",
    "MaxPool2d",
    "MaxPool1d",
    "AvgPool2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "BatchNorm1d",
    "BatchNorm2d",
    "CrossEntropyLoss",
    "MSELoss",
    "softmax",
    "one_hot",
    "SGD",
    "ExponentialLR",
    "StepLR",
    "get_flat_params",
    "set_flat_params",
    "average_state_dicts",
    "state_dict_distance",
    "num_parameters",
    "model_size_bytes",
    "split_model",
    "SplitModel",
    "build_model",
    "build_cnn_h",
    "build_cnn_s",
    "build_alexnet_s",
    "build_vgg_s",
    "build_mlp",
    "default_split_layer",
]
