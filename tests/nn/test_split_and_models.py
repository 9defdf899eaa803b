"""Tests for model splitting and the model zoo."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SplitError
from repro.nn.layers import Conv1d, Conv2d, Linear
from repro.api.registry import MODELS
from repro.nn.models import (
    build_alexnet_s,
    build_cnn_h,
    build_cnn_s,
    build_model,
    build_vgg_s,
    default_split_layer,
    estimate_forward_flops,
)
from repro.nn.module import Sequential
from repro.nn.split import split_model


class TestSplitModel:
    def test_split_preserves_forward(self, tiny_mlp):
        x = np.random.default_rng(0).normal(size=(4, 32))
        expected = tiny_mlp.forward(x)
        split = split_model(tiny_mlp, 2)
        assert np.allclose(split.full_forward(x), expected)

    def test_split_halves_hold_the_models_layers(self, tiny_mlp):
        split = split_model(tiny_mlp, 2)
        halves = list(split.bottom.layers) + list(split.top.layers)
        assert all(a is b for a, b in zip(halves, tiny_mlp.layers, strict=True))
        split.bottom.parameters()[0].data[:] = 0.0
        assert np.allclose(tiny_mlp.parameters()[0].data, 0.0)

    def test_split_index_bounds(self, tiny_mlp):
        with pytest.raises(SplitError):
            split_model(tiny_mlp, 0)
        with pytest.raises(SplitError):
            split_model(tiny_mlp, len(tiny_mlp))

    def test_only_sequential_models(self):
        with pytest.raises(SplitError):
            split_model(Linear(3, 2), 1)

    def test_parameter_counts_add_up(self, tiny_mlp):
        split = split_model(tiny_mlp, 2)
        total = split.bottom.num_parameters() + split.top.num_parameters()
        assert total == tiny_mlp.num_parameters()


class TestModelZoo:
    @pytest.mark.parametrize("name", sorted(set(MODELS.names()) - {"mlp"}))
    def test_builders_produce_sequential(self, name):
        kwargs = {"width": 0.25, "seed": 0}
        model = build_model(name, **kwargs)
        assert isinstance(model, Sequential)
        assert model.num_parameters() > 0

    def test_cnn_h_forward_shape(self):
        model = build_cnn_h(width=0.5, seed=0)
        out = model.forward(np.zeros((2, 9, 128)))
        assert out.shape == (2, 6)

    def test_cnn_s_forward_shape(self):
        model = build_cnn_s(width=0.5, seed=0)
        out = model.forward(np.zeros((2, 1, 1024)))
        assert out.shape == (2, 10)

    def test_alexnet_forward_shape(self):
        model = build_alexnet_s(width=0.25, seed=0)
        out = model.forward(np.zeros((2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_vgg_forward_shape(self):
        model = build_vgg_s(num_classes=20, width=0.25, seed=0)
        out = model.forward(np.zeros((1, 3, 32, 32)))
        assert out.shape == (1, 20)

    def test_vgg_has_thirteen_conv_layers(self):
        model = build_vgg_s(width=0.25, seed=0)
        convs = [layer for layer in model if isinstance(layer, Conv2d)]
        assert len(convs) == 13

    def test_alexnet_has_five_conv_layers(self):
        model = build_alexnet_s(width=0.25, seed=0)
        convs = [layer for layer in model if isinstance(layer, Conv2d)]
        assert len(convs) == 5

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigurationError):
            build_model("resnet")

    def test_width_scales_parameter_count(self):
        small = build_alexnet_s(width=0.25, seed=0).num_parameters()
        large = build_alexnet_s(width=0.5, seed=0).num_parameters()
        assert large > small

    def test_too_small_input_raises(self):
        with pytest.raises(ConfigurationError):
            build_cnn_h(sequence_length=4)


class TestDefaultSplitLayer:
    @pytest.mark.parametrize(
        "name,conv_type,expected_weighted",
        [
            ("cnn_h", Conv1d, 3),
            ("cnn_s", Conv1d, 4),
            ("alexnet_s", Conv2d, 5),
            ("vgg_s", Conv2d, 13),
        ],
    )
    def test_bottom_contains_exactly_the_conv_stack(self, name, conv_type, expected_weighted):
        model = build_model(name, width=0.25, seed=0)
        index = default_split_layer(name, model)
        bottom = Sequential(model.layers[:index])
        weighted = [layer for layer in bottom if layer.parameters()]
        assert len(weighted) == expected_weighted
        assert all(isinstance(layer, conv_type) for layer in weighted)

    def test_split_produces_nonempty_top(self):
        model = build_model("alexnet_s", width=0.25, seed=0)
        index = default_split_layer("alexnet_s", model)
        assert 0 < index < len(model)

    def test_unknown_model_raises(self, tiny_mlp):
        with pytest.raises(ConfigurationError):
            default_split_layer("unknown", tiny_mlp)


class TestFlopsEstimate:
    def test_positive_and_monotone_in_width(self):
        small = estimate_forward_flops(build_alexnet_s(width=0.25, seed=0), (3, 32, 32))
        large = estimate_forward_flops(build_alexnet_s(width=0.5, seed=0), (3, 32, 32))
        assert 0 < small < large

    def test_mlp_flops_match_closed_form(self, tiny_mlp):
        flops = estimate_forward_flops(tiny_mlp, (32,))
        expected = 2 * (32 * 32 + 32 * 16 + 16 * 4)
        assert flops == expected
