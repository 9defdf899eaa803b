"""Pin the learning-rate scale clip bounds and their use by the engine."""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.core.engine import WORKER_LR_SCALE_BOUNDS


def test_lr_scale_bounds_values():
    """The documented clip bounds of Section IV-B's lr scaling.

    Changing them is a training-math change: regenerate the golden
    history and record why.
    """
    assert WORKER_LR_SCALE_BOUNDS == (0.25, 4.0)


@pytest.fixture
def engine(fast_config):
    session = Session.from_config(fast_config)
    return session.algorithm


def test_worker_lr_clips_to_bounds(engine):
    base = engine.config.base_batch_size
    current = engine._current_lr
    low, high = WORKER_LR_SCALE_BOUNDS
    # Inside the bounds: plain proportional scaling.
    assert engine._scaled_lr(base) == pytest.approx(current)
    assert engine._scaled_lr(2 * base) == pytest.approx(2 * current)
    # Outside: clipped to the bounds.
    assert engine._scaled_lr(1000 * base) == pytest.approx(high * current)
    assert engine._scaled_lr(max(1, base // 1000)) == pytest.approx(low * current)


def test_top_model_steps_at_the_round_learning_rate(engine):
    """The merged top update takes the round's learning rate unscaled,
    round after round as it decays."""
    for __ in range(2):
        expected = engine._current_lr
        engine.step_round()
        assert engine.server.top_optimizer.lr == expected
