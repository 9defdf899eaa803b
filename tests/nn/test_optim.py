"""Tests for SGD and learning-rate schedules."""

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_mlp
from repro.nn.optim import SGD, ExponentialLR, StepLR
from repro.nn.parameter import Parameter
from repro.utils.rng import new_rng


def _quadratic_params():
    return [Parameter(np.array([4.0, -2.0]))]


class TestSGD:
    def test_step_moves_against_gradient(self):
        params = _quadratic_params()
        params[0].grad[:] = np.array([1.0, -1.0])
        SGD(params, lr=0.5).step()
        assert np.allclose(params[0].data, [3.5, -1.5])

    def test_zero_grad(self):
        params = _quadratic_params()
        params[0].grad[:] = 1.0
        opt = SGD(params, lr=0.1)
        opt.zero_grad()
        assert np.all(params[0].grad == 0.0)

    def test_weight_decay_shrinks_parameters(self):
        params = _quadratic_params()
        SGD(params, lr=0.1, weight_decay=1.0).step()
        assert np.all(np.abs(params[0].data) < np.abs([4.0, -2.0]))

    def test_momentum_accumulates_velocity(self):
        params = _quadratic_params()
        opt = SGD(params, lr=0.1, momentum=0.9)
        params[0].grad[:] = 1.0
        opt.step()
        first_move = 4.0 - params[0].data[0]
        params[0].grad[:] = 1.0
        opt.step()
        second_move = (4.0 - first_move) - params[0].data[0]
        assert second_move > first_move

    def test_gradient_clipping_bounds_update(self):
        params = [Parameter(np.zeros(4))]
        params[0].grad[:] = 100.0
        opt = SGD(params, lr=1.0, max_grad_norm=1.0)
        opt.step()
        assert np.linalg.norm(params[0].data) <= 1.0 + 1e-9

    def test_grad_norm(self):
        params = [Parameter(np.zeros(3))]
        params[0].grad[:] = np.array([3.0, 4.0, 0.0])
        assert np.isclose(SGD(params, lr=0.1).grad_norm(), 5.0)

    def test_invalid_hyperparameters(self):
        params = _quadratic_params()
        with pytest.raises(ValueError):
            SGD(params, lr=0.0)
        with pytest.raises(ValueError):
            SGD(params, lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD(params, lr=0.1, weight_decay=-1.0)
        with pytest.raises(ValueError):
            SGD(params, lr=0.1, max_grad_norm=0.0)

    def test_minimises_small_classification_problem(self):
        rng = new_rng(0)
        model = build_mlp(input_dim=8, num_classes=3, hidden_dims=(16,), seed=0)
        loss_fn = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.2)
        x = rng.normal(size=(60, 8))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0).astype(int)
        first_loss = None
        for __ in range(60):
            opt.zero_grad()
            logits = model.forward(x)
            loss = loss_fn.forward(logits, y)
            if first_loss is None:
                first_loss = loss
            model.backward(loss_fn.backward())
            opt.step()
        assert loss < first_loss * 0.5


class TestMomentumBuffers:
    """Buffers exist only with momentum; checkpoints do not show it."""

    def _model_and_batch(self):
        rng = new_rng(4)
        model = build_mlp(input_dim=6, num_classes=3, hidden_dims=(5,), seed=2)
        return model, rng.normal(size=(12, 6)), rng.integers(0, 3, size=12)

    def _steps(self, model, optimizer, x, y, count):
        loss_fn = CrossEntropyLoss()
        for __ in range(count):
            optimizer.zero_grad()
            loss_fn.forward(model.forward(x), y)
            model.backward(loss_fn.backward())
            optimizer.step()

    def test_without_momentum_no_buffer_yet_the_checkpoint_has_zeros(self):
        model, x, y = self._model_and_batch()
        optimizer = SGD(model.parameters(), lr=0.1, weight_decay=1e-3)
        self._steps(model, optimizer, x, y, 3)
        assert optimizer._velocity is None
        state = optimizer.state_dict()
        assert state["lr"] == 0.1
        # What the optimizer wrote when it kept an all-zero buffer per
        # parameter: the same arrays, so the same checkpoint bytes.
        expected = [np.zeros_like(p.data) for p in model.parameters()]
        assert len(state["velocity"]) == len(expected)
        for buffer, zeros in zip(state["velocity"], expected):
            assert buffer.dtype == zeros.dtype and buffer.shape == zeros.shape
            assert buffer.tobytes() == zeros.tobytes()

    def test_a_zero_buffer_checkpoint_loads_without_momentum(self):
        model, __, __ = self._model_and_batch()
        optimizer = SGD(model.parameters(), lr=0.1)
        state = {"lr": 0.05, "velocity": [np.zeros_like(p.data)
                                          for p in model.parameters()]}
        optimizer.load_state_dict(state)
        assert optimizer.lr == 0.05 and optimizer._velocity is None
        with pytest.raises(ValueError, match="momentum buffers"):
            optimizer.load_state_dict({"lr": 0.1, "velocity": state["velocity"][1:]})
        wrong = [np.zeros(3)] + state["velocity"][1:]
        with pytest.raises(ValueError, match="shape mismatch"):
            optimizer.load_state_dict({"lr": 0.1, "velocity": wrong})

    def test_a_momentum_round_trip_resumes_bit_exactly(self):
        model, x, y = self._model_and_batch()
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        self._steps(model, optimizer, x, y, 2)
        saved_weights = model.state_dict()
        saved = optimizer.state_dict()
        assert any(np.any(buffer != 0) for buffer in saved["velocity"])
        self._steps(model, optimizer, x, y, 3)

        resumed, __, __ = self._model_and_batch()
        resumed.load_state_dict(saved_weights)
        resumed_optimizer = SGD(resumed.parameters(), lr=0.7, momentum=0.9)
        resumed_optimizer.load_state_dict(saved)
        self._steps(resumed, resumed_optimizer, x, y, 3)
        for key, value in model.state_dict().items():
            assert value.tobytes() == resumed.state_dict()[key].tobytes()

    def test_momentum_set_after_construction_starts_from_zero(self):
        model, x, y = self._model_and_batch()
        reference_model, __, __ = self._model_and_batch()
        optimizer = SGD(model.parameters(), lr=0.1)
        optimizer.momentum = 0.9
        reference = SGD(reference_model.parameters(), lr=0.1, momentum=0.9)
        self._steps(model, optimizer, x, y, 2)
        self._steps(reference_model, reference, x, y, 2)
        for key, value in model.state_dict().items():
            assert value.tobytes() == reference_model.state_dict()[key].tobytes()


def test_a_session_checkpoint_without_momentum_keeps_its_bytes(tmp_path, monkeypatch):
    """A momentum-0 session writes the checkpoint it wrote when every
    optimizer kept an all-zero buffer per parameter."""
    from repro.api.session import Session
    from repro.config import ExperimentConfig

    config = ExperimentConfig(
        dataset="blobs", model="mlp", num_workers=5, num_rounds=2,
        local_iterations=2, train_samples=200, test_samples=40, seed=3,
    )
    with Session.from_config(config) as session:
        session.run(1)
        session.save_checkpoint(tmp_path / "now.json")
        monkeypatch.setattr(SGD, "state_dict", lambda self: {
            "lr": self.lr,
            "velocity": [np.zeros_like(p.data) for p in self.parameters],
        })
        session.save_checkpoint(tmp_path / "zero_buffers.json")
    assert (tmp_path / "now.json").read_bytes() == (
        tmp_path / "zero_buffers.json"
    ).read_bytes()


class TestSchedulers:
    def test_exponential_decay(self):
        opt = SGD(_quadratic_params(), lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        assert np.isclose(opt.lr, 0.25)
        assert np.isclose(sched.current_lr, 0.25)

    def test_step_decay(self):
        opt = SGD(_quadratic_params(), lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        sched.step()
        assert np.isclose(opt.lr, 1.0)
        sched.step()
        assert np.isclose(opt.lr, 0.1)

    def test_invalid_gamma(self):
        opt = SGD(_quadratic_params(), lr=1.0)
        with pytest.raises(ValueError):
            ExponentialLR(opt, gamma=0.0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)
