"""Synthetic stand-ins for the paper's four datasets.

Each generator produces class-conditional data: every class ``c`` owns a
random low-frequency template, and a sample of class ``c`` is that template
plus Gaussian noise, shaped like the real dataset's tensors (inertial
windows for HAR, waveforms for Speech, RGB images for CIFAR-10/IMAGE-100).
Such data is learnable by the scaled-down model zoo within a handful of
communication rounds, while exhibiting the same label-skew phenomena under
Dirichlet partitioning that drive the paper's non-IID results.

A sample is computed in float64 and stored in float32
(:class:`~repro.data.dataset.Dataset`): the stored value is the float64
``template + noise`` rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import DATASETS, register_dataset
from repro.data.dataset import Dataset, TrainTestSplit
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset analogue.

    Attributes:
        name: Registry key.
        feature_shape: Per-sample tensor shape.
        num_classes: Number of classes.
        default_model: Model-zoo key the paper pairs with this dataset.
        paper_name: Name of the dataset in the paper.
    """

    name: str
    feature_shape: tuple[int, ...]
    num_classes: int
    default_model: str
    paper_name: str


DATASET_SPECS: dict[str, DatasetSpec] = {
    "har": DatasetSpec("har", (9, 128), 6, "cnn_h", "Human Activity Recognition"),
    "speech": DatasetSpec("speech", (1, 1024), 10, "cnn_s", "Google Speech"),
    "cifar10": DatasetSpec("cifar10", (3, 32, 32), 10, "alexnet_s", "CIFAR-10"),
    "image100": DatasetSpec("image100", (3, 32, 32), 20, "vgg_s", "IMAGE-100"),
    "blobs": DatasetSpec("blobs", (32,), 4, "mlp", "synthetic blobs"),
}


#: Samples generated at once: each chunk's templates and noise are summed in
#: float64 and written into the float32 store, so generation never holds a
#: float64 array of the whole dataset.
NOISE_CHUNK = 128


def _block_upsample(template: np.ndarray, factor: int) -> np.ndarray:
    """Upsample the trailing spatial axes of ``template`` by block repetition."""
    if template.ndim == 2:  # (channels, length)
        return np.repeat(template, factor, axis=1)
    if template.ndim == 3:  # (channels, height, width)
        return np.repeat(np.repeat(template, factor, axis=1), factor, axis=2)
    return template


def _make_templates(
    feature_shape: tuple[int, ...],
    num_classes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-class templates with spatial structure matched to the tensor shape.

    Images get blocky low-frequency 2-D patterns (so convolution + pooling
    preserve the class signal); sequences get piecewise-constant 1-D
    patterns; plain vectors get white Gaussian templates.
    """
    factor = 4
    if len(feature_shape) == 3:
        channels, height, width = feature_shape
        low = rng.normal(
            0.0, 1.0,
            size=(num_classes, channels, max(1, height // factor), max(1, width // factor)),
        )
        templates = np.stack([
            _block_upsample(low[cls], factor)[:, :height, :width]
            for cls in range(num_classes)
        ])
    elif len(feature_shape) == 2:
        channels, length = feature_shape
        low = rng.normal(
            0.0, 1.0, size=(num_classes, channels, max(1, length // factor))
        )
        templates = np.stack([
            _block_upsample(low[cls], factor)[:, :length]
            for cls in range(num_classes)
        ])
    else:
        templates = rng.normal(0.0, 1.0, size=(num_classes, *feature_shape))
    return templates


def _class_conditional(
    feature_shape: tuple[int, ...],
    num_classes: int,
    train_samples: int,
    test_samples: int,
    noise: float,
    signal: float,
    rng: np.random.Generator,
    name: str,
    smooth: bool = True,
) -> TrainTestSplit:
    """Generate a class-conditional Gaussian dataset with per-class templates."""
    if smooth:
        templates = _make_templates(feature_shape, num_classes, rng)
    else:
        templates = rng.normal(0.0, 1.0, size=(num_classes, *feature_shape))
    templates = templates * signal

    def _sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, num_classes, size=count)
        # ``templates[labels] + noise`` in float64, rounded once into the
        # float32 store, without a full-size float64 temporary: consecutive
        # draws of the generator are one draw cut in pieces, and
        # ``t + n == n + t`` bit for bit.
        data = np.empty((count, *templates.shape[1:]), dtype=np.float32)
        for start in range(0, count, NOISE_CHUNK):
            block = templates[labels[start:start + NOISE_CHUNK]]
            block += rng.normal(0.0, noise, size=block.shape)
            data[start:start + NOISE_CHUNK] = block
        return data, labels

    train_data, train_labels = _sample(train_samples)
    test_data, test_labels = _sample(test_samples)
    return TrainTestSplit(
        train=Dataset(train_data, train_labels, num_classes, name=name),
        test=Dataset(test_data, test_labels, num_classes, name=name),
    )


@register_dataset("har", paper_name="Human Activity Recognition")
def make_har(
    train_samples: int = 2000,
    test_samples: int = 400,
    seed: int = 0,
    noise: float = 0.8,
) -> TrainTestSplit:
    """Synthetic analogue of the UCI HAR dataset (9x128 inertial windows, 6 classes)."""
    spec = DATASET_SPECS["har"]
    return _class_conditional(
        spec.feature_shape, spec.num_classes, train_samples, test_samples,
        noise=noise, signal=1.0, rng=new_rng(seed), name=spec.name,
    )


@register_dataset("speech", paper_name="Google Speech")
def make_speech(
    train_samples: int = 2000,
    test_samples: int = 400,
    seed: int = 0,
    noise: float = 0.8,
) -> TrainTestSplit:
    """Synthetic analogue of Google Speech (1x1024 waveforms, 10 classes)."""
    spec = DATASET_SPECS["speech"]
    return _class_conditional(
        spec.feature_shape, spec.num_classes, train_samples, test_samples,
        noise=noise, signal=1.0, rng=new_rng(seed), name=spec.name,
    )


@register_dataset("cifar10", paper_name="CIFAR-10")
def make_cifar10(
    train_samples: int = 2000,
    test_samples: int = 400,
    seed: int = 0,
    noise: float = 0.6,
) -> TrainTestSplit:
    """Synthetic analogue of CIFAR-10 (3x32x32 images, 10 classes)."""
    spec = DATASET_SPECS["cifar10"]
    return _class_conditional(
        spec.feature_shape, spec.num_classes, train_samples, test_samples,
        noise=noise, signal=1.0, rng=new_rng(seed), name=spec.name,
    )


@register_dataset("image100", paper_name="IMAGE-100")
def make_image100(
    train_samples: int = 2000,
    test_samples: int = 400,
    seed: int = 0,
    noise: float = 0.6,
) -> TrainTestSplit:
    """Synthetic analogue of IMAGE-100.

    The paper subsets ImageNet to 100 classes at 64x64; the analogue keeps
    the multi-class flavour with 20 classes at 32x32 so VGG-S training stays
    CPU-tractable while remaining the hardest task in the suite.
    """
    spec = DATASET_SPECS["image100"]
    return _class_conditional(
        spec.feature_shape, spec.num_classes, train_samples, test_samples,
        noise=noise, signal=1.0, rng=new_rng(seed), name=spec.name,
    )


@register_dataset("blobs", paper_name="synthetic blobs")
def make_blobs(
    train_samples: int = 1000,
    test_samples: int = 200,
    seed: int = 0,
    noise: float = 0.6,
) -> TrainTestSplit:
    """A tiny vector dataset for fast unit tests (32-dim, 4 classes)."""
    spec = DATASET_SPECS["blobs"]
    return _class_conditional(
        spec.feature_shape, spec.num_classes, train_samples, test_samples,
        noise=noise, signal=1.2, rng=new_rng(seed), name=spec.name, smooth=False,
    )


def make_dataset(
    name: str,
    train_samples: int = 2000,
    test_samples: int = 400,
    seed: int = 0,
) -> TrainTestSplit:
    """Build a dataset analogue by registry name.

    Resolves through :data:`repro.api.registry.DATASETS`, so datasets
    registered by third-party code (``@register_dataset``) work here too.
    """
    return DATASETS.get(name)(
        train_samples=train_samples, test_samples=test_samples, seed=seed
    )
