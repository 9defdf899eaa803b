"""Tests for the baseline algorithms and their policies."""

import numpy as np
import pytest

from repro.baselines.fedavg import SelectAll
from repro.baselines.policies import FixedBatchPolicy, RegulatedBatchPolicy
from repro.baselines.pyramidfl import PyramidSelection
from repro.baselines.sfl import SFLVariant
from repro.core.controller import ControlContext
from repro.exceptions import ConfigurationError
from repro.experiments.runner import build_algorithm, build_components
from repro.utils.rng import new_rng


def _context(num_workers=5, seed=0):
    rng = new_rng(seed)
    return ControlContext(
        round_index=0,
        per_sample_durations=rng.uniform(0.05, 0.5, size=num_workers),
        label_distributions=rng.dirichlet([0.5] * 4, size=num_workers),
        participation_counts=np.zeros(num_workers),
        bandwidth_budget=100.0,
        bandwidth_per_sample=1.0,
        max_batch_size=16,
        base_batch_size=8,
        rng=rng,
    )


class TestPolicies:
    def test_fixed_batch_selects_everyone_with_identical_batch(self):
        plan = FixedBatchPolicy().plan_round(_context())
        assert plan.selected == list(range(5))
        assert set(plan.batch_sizes.values()) == {8}

    def test_fixed_batch_custom_size(self):
        plan = FixedBatchPolicy(batch_size=4).plan_round(_context())
        assert set(plan.batch_sizes.values()) == {4}

    def test_regulated_batch_varies_with_speed(self):
        context = _context()
        plan = RegulatedBatchPolicy().plan_round(context)
        fastest = int(np.argmin(context.per_sample_durations))
        assert plan.batch_sizes[fastest] == 16
        assert len(set(plan.batch_sizes.values())) > 1

    def test_merge_flags(self):
        assert FixedBatchPolicy(merge_features=True).merge_features
        assert not RegulatedBatchPolicy().merge_features

    def test_splitfed_flag(self):
        policy = FixedBatchPolicy(aggregate_every_iteration=True)
        assert policy.aggregate_every_iteration


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


class TestSFLVariants:
    def test_unknown_variant_raises(self, fast_config):
        components = build_components(fast_config)
        with pytest.raises(ConfigurationError):
            SFLVariant(
                "sfl_x", fast_config, components.split, components.workers,
                components.cluster, components.data,
            )

    @pytest.mark.parametrize("variant,merges,regulates", [
        ("sfl_t", False, False),
        ("sfl_fm", True, False),
        ("sfl_br", False, True),
    ])
    def test_variant_policy_flags(self, fast_config, variant, merges, regulates):
        components = build_components(fast_config)
        algorithm = SFLVariant(
            variant, fast_config, components.split, components.workers,
            components.cluster, components.data,
        )
        assert algorithm.policy.merge_features == merges
        is_regulated = isinstance(algorithm.policy, RegulatedBatchPolicy)
        assert is_regulated == regulates


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
        breakdown = algorithm.engine.traffic.breakdown()
        assert breakdown["feature"] == 0.0
        assert breakdown["model"] > 0.0
        # Evaluation released the test batch's forward state.
        model = algorithm.engine.model
        assert model.training
        assert all(layer._forward_state is None for layer in model)

    def test_sfl_baselines_have_feature_traffic(self, fast_config):
        config = fast_config.replace(algorithm="locfedmix_sl", num_rounds=2)
        algorithm = build_algorithm(build_components(config))
        algorithm.run()
        breakdown = algorithm.engine.traffic.breakdown()
        assert breakdown["feature"] > 0.0

    def test_batch_regulation_reduces_waiting_time(self, fast_config):
        config = fast_config.replace(num_rounds=3, num_workers=8)
        fixed = build_algorithm(build_components(config.replace(algorithm="locfedmix_sl"))).run()
        regulated = build_algorithm(build_components(config.replace(algorithm="adasfl"))).run()
        assert np.mean(regulated.waiting_times) < np.mean(fixed.waiting_times)
