"""Behavioural tests for layers (shapes, modes, error handling)."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool1d,
    MaxPool2d,
    ReLU,
)
from repro.nn.layers.conv import col2im, im2col
from repro.utils.rng import new_rng


class TestLinear:
    def test_output_shape(self):
        layer = Linear(7, 3, rng=new_rng(0))
        assert layer.forward(np.zeros((5, 7))).shape == (5, 3)

    def test_rejects_wrong_input_dim(self):
        layer = Linear(7, 3, rng=new_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 6)))

    def test_no_bias_option(self):
        layer = Linear(4, 2, bias=False, rng=new_rng(0))
        assert len(layer.parameters()) == 1

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_backward_before_forward_raises(self):
        layer = Linear(4, 2, rng=new_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestConv:
    def test_conv2d_output_shape_with_padding(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=new_rng(0))
        assert layer.forward(np.zeros((2, 3, 16, 16))).shape == (2, 8, 16, 16)

    def test_conv2d_output_shape_with_stride(self):
        layer = Conv2d(1, 4, kernel_size=3, stride=2, rng=new_rng(0))
        assert layer.forward(np.zeros((1, 1, 9, 9))).shape == (1, 4, 4, 4)

    def test_conv1d_output_shape(self):
        layer = Conv1d(2, 4, kernel_size=5, padding=2, rng=new_rng(0))
        assert layer.forward(np.zeros((3, 2, 20))).shape == (3, 4, 20)

    def test_conv2d_rejects_wrong_channels(self):
        layer = Conv2d(3, 8, kernel_size=3, rng=new_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 8, 8)))

    def test_conv1d_rejects_wrong_rank(self):
        layer = Conv1d(3, 8, kernel_size=3, rng=new_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 3, 8, 8)))

    def test_conv_empty_output_raises(self):
        layer = Conv2d(1, 1, kernel_size=5, rng=new_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 3, 3)))

    def test_im2col_col2im_adjoint(self):
        # <im2col(x), y> == <x, col2im(y)> (the two must be adjoint maps).
        rng = new_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        cols, out_size = im2col(x, (3, 3), (1, 1), (1, 1))
        y = rng.normal(size=cols.shape)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * col2im(y, x.shape, (3, 3), (1, 1), (1, 1), out_size))
        assert np.isclose(lhs, rhs)

    def test_conv2d_matches_manual_single_pixel(self):
        # 1x1 input, 1x1 kernel: convolution is a plain multiply-add.
        layer = Conv2d(1, 1, kernel_size=1, rng=new_rng(0))
        layer.weight.data[:] = 2.0
        layer.bias.data[:] = 0.5
        out = layer.forward(np.full((1, 1, 1, 1), 3.0))
        assert np.isclose(out[0, 0, 0, 0], 6.5)


class TestPooling:
    def test_maxpool2d_reduces_spatial_dims(self):
        assert MaxPool2d(2).forward(np.zeros((1, 2, 8, 8))).shape == (1, 2, 4, 4)

    def test_maxpool2d_takes_window_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool1d_rectangular_kernel(self):
        out = MaxPool1d(4).forward(np.zeros((2, 3, 12)))
        assert out.shape == (2, 3, 3)

    def test_maxpool_truncates_odd_sizes(self):
        out = MaxPool2d(2).forward(np.zeros((1, 1, 5, 5)))
        assert out.shape == (1, 1, 2, 2)

    def test_avgpool_averages(self):
        x = np.ones((1, 1, 4, 4))
        assert np.allclose(AvgPool2d(2).forward(x), 1.0)

    def test_pool_too_small_input_raises(self):
        with pytest.raises(ShapeError):
            MaxPool2d(4).forward(np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("pool, shape", [
        (MaxPool2d(2), (3, 4, 9, 8)),
        (MaxPool2d((2, 3)), (3, 4, 8, 9)),
        (MaxPool1d(2), (3, 4, 17)),
    ])
    def test_eval_maxpool_is_the_training_max_without_the_mask(self, pool, shape):
        """Evaluation returns the training forward's output bit for bit --
        ties included -- and keeps no forward state for a backward."""
        rng = np.random.default_rng(7)
        x = rng.integers(0, 3, size=shape).astype(np.float64)  # many ties
        x += rng.normal(size=shape) * (rng.random(shape) < 0.5)
        trained = pool.forward(x)
        pool.eval()
        try:
            evaluated = pool.forward(x)
            assert np.array_equal(evaluated, trained)
            assert pool._forward_state is None
            assert getattr(pool, "_pool", pool)._forward_state is None
            with pytest.raises(RuntimeError, match="backward called before forward"):
                pool.backward(np.ones_like(evaluated))
        finally:
            pool.train()
        pool.forward(x)  # back in training mode, the mask is kept again
        assert getattr(pool, "_pool", pool)._forward_state is not None


class TestActivationsAndShape:
    def test_relu_clamps_negative(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.allclose(out, [[0.0, 2.0]])

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == x.shape


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=new_rng(0))
        layer.eval()
        x = np.ones((4, 10))
        assert np.allclose(layer.forward(x), x)

    def test_train_mode_zeroes_some_units(self):
        layer = Dropout(0.5, rng=new_rng(0))
        out = layer.forward(np.ones((10, 100)))
        assert np.any(out == 0.0)
        # Inverted dropout preserves the expectation.
        assert np.isclose(out.mean(), 1.0, atol=0.1)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=new_rng(0))
        out = layer.forward(np.ones((5, 20)))
        grad = layer.backward(np.ones((5, 20)))
        assert np.allclose((out == 0), (grad == 0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_train_normalises_batch(self):
        layer = BatchNorm1d(4)
        x = new_rng(0).normal(loc=3.0, scale=2.0, size=(64, 4))
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_update(self):
        layer = BatchNorm1d(2)
        x = np.full((8, 2), 5.0)
        layer.forward(x)
        assert np.all(layer.running_mean > 0)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(2)
        for __ in range(50):
            layer.forward(new_rng(1).normal(loc=2.0, size=(32, 2)))
        layer.eval()
        out = layer.forward(np.full((4, 2), 2.0))
        assert np.all(np.abs(out) < 1.0)

    def test_rejects_wrong_feature_count(self):
        with pytest.raises(ShapeError):
            BatchNorm1d(3).forward(np.zeros((4, 5)))
