"""Tests for the FL selection strategies and every baseline end to end.

The split baselines' control rows are pinned by
``tests/core/test_controller_engine.py::TestAlgorithmTable``.
"""

import numpy as np
import pytest

from repro.api.components import build_algorithm, build_components
from repro.baselines.fedavg import SelectAll
from repro.baselines.pyramidfl import PyramidSelection
from repro.utils.rng import new_rng


class TestFLSelection:
    def test_select_all(self):
        rng = new_rng(0)
        selected = SelectAll().select(0, np.ones(7), np.ones((7, 3)) / 3, np.zeros(7), rng)
        assert selected == list(range(7))

    def test_pyramid_selects_fraction(self):
        rng = new_rng(0)
        durations = rng.uniform(0.1, 1.0, size=10)
        dists = rng.dirichlet([0.3] * 4, size=10)
        selected = PyramidSelection(participation_fraction=0.5).select(
            0, durations, dists, np.zeros(10), rng
        )
        assert len(selected) == 5
        assert selected == sorted(selected)

    def test_pyramid_avoids_the_slowest_worker(self):
        rng = new_rng(1)
        durations = np.array([0.1, 0.1, 0.1, 0.1, 10.0])
        dists = np.tile(np.full(4, 0.25), (5, 1))
        selected = PyramidSelection(participation_fraction=0.6).select(
            0, durations, dists, np.zeros(5), rng
        )
        assert 4 not in selected

    def test_pyramid_exploration_prefers_unseen_workers(self):
        rng = new_rng(0)
        durations = np.full(6, 0.5)
        dists = np.tile(np.full(4, 0.25), (6, 1))
        counts = np.array([10.0, 10.0, 10.0, 0.0, 10.0, 10.0])
        selected = PyramidSelection(participation_fraction=0.34, exploration=1.0).select(
            0, durations, dists, counts, rng
        )
        assert 3 in selected

    def test_pyramid_invalid_fraction(self):
        with pytest.raises(ValueError):
            PyramidSelection(participation_fraction=0.0)


class TestEndToEndBaselines:
    @pytest.mark.parametrize("algorithm", [
        "fedavg", "pyramidfl", "splitfed", "locfedmix_sl", "adasfl",
        "sfl_t", "sfl_fm", "sfl_br", "mergesfl_no_fm", "mergesfl_no_br",
    ])
    def test_every_algorithm_trains(self, fast_config, algorithm):
        config = fast_config.replace(algorithm=algorithm, num_rounds=2)
        history = build_algorithm(build_components(config)).run()
        assert len(history) == 2
        assert history.records[-1].test_accuracy >= 0.0
        assert history.records[-1].traffic_mb > 0.0
        assert history.records[-1].sim_time > 0.0

    def test_fl_baselines_have_no_feature_traffic(self, fast_config):
        config = fast_config.replace(algorithm="fedavg", num_rounds=2)
        algorithm = build_algorithm(build_components(config))
        algorithm.run()
        breakdown = algorithm.traffic.breakdown()
        assert breakdown["feature"] == 0.0
        assert breakdown["model"] > 0.0
        # Evaluation released the test batch's forward state.
        model = algorithm.model
        assert model.training
        assert all(layer._forward_state is None for layer in model)

    def test_sfl_baselines_have_feature_traffic(self, fast_config):
        config = fast_config.replace(algorithm="locfedmix_sl", num_rounds=2)
        algorithm = build_algorithm(build_components(config))
        algorithm.run()
        breakdown = algorithm.traffic.breakdown()
        assert breakdown["feature"] > 0.0

    def test_batch_regulation_reduces_waiting_time(self, fast_config):
        config = fast_config.replace(num_rounds=3, num_workers=8)
        fixed = build_algorithm(build_components(config.replace(algorithm="locfedmix_sl"))).run()
        regulated = build_algorithm(build_components(config.replace(algorithm="adasfl"))).run()
        assert np.mean(regulated.waiting_times) < np.mean(fixed.waiting_times)
