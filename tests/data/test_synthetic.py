"""Tests for the synthetic dataset generators."""

import copy

import numpy as np
import pytest

from repro.api.registry import DATASETS
from repro.data import synthetic
from repro.data.synthetic import (
    DATASET_SPECS,
    NOISE_CHUNK,
    make_blobs,
    make_cifar10,
    make_dataset,
)
from repro.exceptions import ConfigurationError


class TestSpecs:
    def test_every_spec_has_a_generator(self):
        assert set(DATASET_SPECS) == set(DATASETS.names())

    def test_paper_shapes(self):
        assert DATASET_SPECS["har"].feature_shape == (9, 128)
        assert DATASET_SPECS["har"].num_classes == 6
        assert DATASET_SPECS["cifar10"].feature_shape == (3, 32, 32)
        assert DATASET_SPECS["cifar10"].num_classes == 10
        assert DATASET_SPECS["speech"].num_classes == 10

    def test_default_models_match_paper_pairing(self):
        assert DATASET_SPECS["har"].default_model == "cnn_h"
        assert DATASET_SPECS["speech"].default_model == "cnn_s"
        assert DATASET_SPECS["cifar10"].default_model == "alexnet_s"
        assert DATASET_SPECS["image100"].default_model == "vgg_s"


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(DATASETS.names()))
    def test_shapes_and_sizes(self, name):
        split = make_dataset(name, train_samples=64, test_samples=16, seed=0)
        spec = DATASET_SPECS[name]
        assert split.train.data.shape == (64, *spec.feature_shape)
        assert split.test.data.shape == (16, *spec.feature_shape)
        assert split.num_classes == spec.num_classes

    def test_reproducible_with_same_seed(self):
        a = make_cifar10(train_samples=16, test_samples=4, seed=5)
        b = make_cifar10(train_samples=16, test_samples=4, seed=5)
        assert np.allclose(a.train.data, b.train.data)
        assert np.array_equal(a.train.targets, b.train.targets)

    def test_different_seed_gives_different_data(self):
        a = make_cifar10(train_samples=16, test_samples=4, seed=1)
        b = make_cifar10(train_samples=16, test_samples=4, seed=2)
        assert not np.allclose(a.train.data, b.train.data)

    def test_all_classes_present_in_reasonable_sample(self):
        split = make_blobs(train_samples=400, test_samples=50, seed=0)
        assert set(np.unique(split.train.targets)) == set(range(4))

    def test_classes_are_separable_by_template_matching(self):
        # Nearest-class-mean classification on the training templates should
        # beat chance by a wide margin -- the datasets must be learnable.
        split = make_cifar10(train_samples=400, test_samples=100, seed=0)
        train = split.train.data.reshape(len(split.train), -1)
        test = split.test.data.reshape(len(split.test), -1)
        means = np.stack([
            train[split.train.targets == cls].mean(axis=0)
            for cls in range(split.num_classes)
        ])
        distances = ((test[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == split.test.targets).mean()
        assert accuracy > 0.8

    def test_unknown_dataset_raises(self):
        with pytest.raises(ConfigurationError):
            make_dataset("mnist")


def _one_shot(feature_shape, num_classes, train_samples, test_samples, noise,
              signal, rng, name, smooth=True):
    """The reference formula: each split is ``templates[labels]`` plus one
    full-size noise draw, in float64."""
    if smooth:
        templates = synthetic._make_templates(feature_shape, num_classes, rng)
    else:
        templates = rng.normal(0.0, 1.0, size=(num_classes, *feature_shape))
    templates = templates * signal

    def sample(count):
        labels = rng.integers(0, num_classes, size=count)
        noise_draw = rng.normal(0.0, noise, size=(count, *feature_shape))
        return templates[labels] + noise_draw, labels

    return sample(train_samples), sample(test_samples)


class TestChunkedNoise:
    """The generator sums templates and noise chunk by chunk in float64 and
    writes each chunk into the float32 store; that is the one-shot float64
    formula rounded once to float32, bit for bit, with the RNG left in the
    same state."""

    @pytest.mark.parametrize(
        "train_samples", [1, NOISE_CHUNK - 1, NOISE_CHUNK, NOISE_CHUNK + 1, 1280]
    )
    @pytest.mark.parametrize("name", sorted(DATASETS.names()))
    def test_bit_equal_to_the_one_shot_formula(self, monkeypatch, name, train_samples):
        generate = synthetic._class_conditional
        calls = []
        monkeypatch.setattr(
            synthetic, "_class_conditional",
            lambda *args, **kwargs: calls.append((args, kwargs)),
        )
        make_dataset(name, train_samples=train_samples, test_samples=3, seed=11)
        (args, kwargs), = calls
        reference_rng = copy.deepcopy(kwargs["rng"])
        split = generate(*args, **kwargs)
        expected = _one_shot(*args, **{**kwargs, "rng": reference_rng})
        for dataset, (data, labels) in zip((split.train, split.test), expected):
            assert data.dtype == np.float64
            assert dataset.data.dtype == np.float32
            assert dataset.data.tobytes() == data.astype(np.float32).tobytes()
            assert np.array_equal(dataset.targets, labels)
        assert kwargs["rng"].bit_generator.state == reference_rng.bit_generator.state
