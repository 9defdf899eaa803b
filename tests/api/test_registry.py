"""Tests for the plugin registries and out-of-tree extension."""

import numpy as np
import pytest

from repro.api.registry import (
    ALGORITHMS,
    DATASETS,
    MODELS,
    POLICIES,
    Registry,
    register_algorithm,
    register_dataset,
    register_model,
)
from repro.config import KNOWN_ALGORITHMS, KNOWN_DATASETS, KNOWN_MODELS, ExperimentConfig
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("thing")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert len(registry) == 1

    def test_decorator_form_returns_target(self):
        registry = Registry("thing")

        @registry.register("f", flavour="test")
        def factory():
            return 42

        assert factory() == 42
        assert registry.get("f") is factory
        assert registry.metadata("f") == {"flavour": "test"}

    def test_duplicate_rejected_unless_override(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, override=True)
        assert registry.get("a") == 2

    def test_unknown_name_error_lists_and_suggests(self):
        registry = Registry("gadget")
        registry.register("mergesfl", 1)
        with pytest.raises(ConfigurationError) as excinfo:
            registry.get("mergsfl")
        message = str(excinfo.value)
        assert "unknown gadget" in message
        assert "did you mean 'mergesfl'" in message

    def test_empty_name_rejected(self):
        registry = Registry("thing")
        with pytest.raises(ConfigurationError):
            registry.register("", 1)

    def test_names_sorted_and_iterable(self):
        registry = Registry("thing")
        registry.register("b", 2)
        registry.register("a", 1)
        assert registry.names() == ["a", "b"]
        assert list(registry) == ["a", "b"]

    def test_unregister(self):
        registry = Registry("thing")
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(ConfigurationError):
            registry.unregister("a")

    def test_populate_hook_runs_once_before_first_lookup(self):
        calls = []

        def populate():
            calls.append(1)

        registry = Registry("thing", populate=populate)
        assert "x" not in registry
        assert "x" not in registry
        assert calls == [1]

    def test_entry_registered_before_population_wins_over_builtin(self):
        """A plugin overriding a built-in name before the first lookup must
        not crash population, and the plugin's entry must survive it."""
        registry = Registry("thing", populate=lambda: registry.register("a", "builtin"))
        registry.register("a", "plugin", override=True)
        assert registry.get("a") == "plugin"

    def test_accidental_builtin_collision_before_population_errors(self):
        """Without override=True, a pre-population registration that
        collides with a built-in name must error, not silently shadow it."""
        registry = Registry("thing", populate=lambda: registry.register("a", "builtin"))
        registry.register("a", "plugin")        # accidental collision
        with pytest.raises(ConfigurationError, match="collides with a built-in"):
            registry.get("a")

    def test_duplicate_within_one_population_attempt_errors(self):
        """Two built-in modules claiming the same name in a single
        population run must error, not silently last-win."""
        holder: dict = {}

        def populate():
            holder["registry"].register("a", "module-one")
            holder["registry"].register("a", "module-two")

        registry = Registry("thing", populate=populate)
        holder["registry"] = registry
        with pytest.raises(ConfigurationError, match="registered twice"):
            registry.names()

    def test_failed_population_recovers_after_user_fixes_collision(self):
        """Entries left behind by an aborted population must not poison the
        retry: once the colliding entry is overridden, population completes
        and both built-in and plugin entries resolve."""
        holder: dict = {}

        def populate():
            holder["registry"].register("a", "builtin-a")   # survives the abort
            holder["registry"].register("b", "builtin-b")   # collides, aborts

        registry = Registry("thing", populate=populate)
        holder["registry"] = registry
        registry.register("b", "plugin")                    # accidental collision
        with pytest.raises(ConfigurationError, match="'b'.*collides"):
            registry.names()
        # The user fixes their registration; the next lookup retries
        # population, re-registering 'a' idempotently.
        registry.register("b", "plugin2", override=True)
        assert registry.get("a") == "builtin-a"
        assert registry.get("b") == "plugin2"

    def test_failed_population_is_retried(self):
        attempts = []

        def populate():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient import failure")
            registry.register("a", 1)

        registry = Registry("thing", populate=populate)
        with pytest.raises(RuntimeError):
            registry.names()
        assert registry.get("a") == 1
        assert len(attempts) == 2

    def test_override_builtin_algorithm_in_fresh_process(self):
        """End to end: overriding 'fedavg' before any lookup leaves every
        other built-in usable and keeps the override (regression test for
        population poisoning)."""
        import subprocess
        import sys

        code = (
            "from repro.api.registry import ALGORITHMS, register_algorithm\n"
            "register_algorithm('fedavg', lambda components: None, override=True)\n"
            "from repro.config import ExperimentConfig\n"
            "ExperimentConfig(algorithm='splitfed', dataset='blobs', model='mlp')\n"
            "assert ALGORITHMS.get('fedavg')(None) is None\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestBuiltinRegistries:
    def test_all_builtin_algorithms_registered(self):
        assert set(KNOWN_ALGORITHMS) <= set(ALGORITHMS.names())

    def test_all_builtin_datasets_registered(self):
        assert set(KNOWN_DATASETS) <= set(DATASETS.names())

    def test_all_builtin_models_registered(self):
        assert set(KNOWN_MODELS) <= set(MODELS.names())

    def test_builtin_policies_registered(self):
        assert {"mergesfl", "fixed_batch", "regulated_batch",
                "select_all", "pyramid"} <= set(POLICIES.names())

    def test_model_metadata_carries_split_position(self):
        assert MODELS.metadata("alexnet_s")["split_after_weighted"] == 5
        assert MODELS.metadata("vgg_s")["split_after_weighted"] == 13

    def test_policy_factories_build(self, fast_config):
        policy = POLICIES.get("mergesfl")(fast_config)
        assert policy.merge_features is True
        fixed = POLICIES.get("fixed_batch")(fast_config, merge_features=True)
        assert fixed.merge_features is True


class TestPolicyDrivenAlgorithms:
    """extras['policy'] wires POLICIES entries into the generic engines."""

    def test_split_custom_runs_registered_policy(self, fast_config):
        from repro.api.session import Session

        config = fast_config.replace(
            algorithm="split_custom",
            extras={"policy": "fixed_batch",
                    "policy_kwargs": {"merge_features": True}},
        )
        session = Session.from_config(config)
        assert session.algorithm.policy.merge_features is True
        assert len(session.run(2)) == 2

    def test_fl_custom_runs_registered_selection(self, fast_config):
        from repro.api.session import Session

        config = fast_config.replace(
            algorithm="fl_custom", extras={"policy": "pyramid"}
        )
        history = Session.from_config(config).run(2)
        assert len(history) == 2

    def test_out_of_tree_policy_reaches_the_engine(self, fast_config):
        from repro.api.registry import register_policy
        from repro.api.session import Session
        from repro.baselines.policies import FixedBatchPolicy

        calls = []

        @register_policy("probe")
        def build_probe(config, **overrides):
            calls.append(1)
            return FixedBatchPolicy(**overrides)

        try:
            config = fast_config.replace(
                algorithm="split_custom", extras={"policy": "probe"}
            )
            Session.from_config(config).run(1)
            assert calls == [1]
        finally:
            POLICIES.unregister("probe")

    def test_missing_policy_extra_rejected(self, fast_config):
        from repro.api.components import build_algorithm, build_components

        config = fast_config.replace(algorithm="split_custom")
        with pytest.raises(ConfigurationError, match="extras\\['policy'\\]"):
            build_algorithm(build_components(config))

    def test_policy_kind_mismatch_rejected_upfront(self, fast_config):
        from repro.api.components import build_algorithm, build_components

        config = fast_config.replace(
            algorithm="fl_custom", extras={"policy": "fixed_batch"}
        )
        with pytest.raises(ConfigurationError, match="needs a fl_selection policy"):
            build_algorithm(build_components(config))
        config = fast_config.replace(
            algorithm="split_custom", extras={"policy": "pyramid"}
        )
        with pytest.raises(ConfigurationError, match="needs a split_control policy"):
            build_algorithm(build_components(config))


class TestOutOfTreePlugin:
    """A new algorithm + dataset + model validate and run without touching config.py."""

    def test_plugin_experiment_runs_end_to_end(self):
        from repro.api.session import Session
        from repro.baselines.policies import FixedBatchPolicy
        from repro.core.engine import SplitTrainingEngine
        from repro.data.dataset import Dataset, TrainTestSplit
        from repro.nn.models import build_mlp
        from repro.utils.rng import new_rng

        @register_dataset("plugin_rings")
        def make_rings(train_samples=200, test_samples=50, seed=0):
            rng = new_rng(seed)

            def sample(count):
                labels = rng.integers(0, 3, size=count)
                radii = 1.0 + labels + rng.normal(0.0, 0.1, size=count)
                angles = rng.uniform(0.0, 2 * np.pi, size=count)
                data = np.stack([
                    radii * np.cos(angles), radii * np.sin(angles)
                ], axis=1)
                return Dataset(data, labels, 3, name="plugin_rings")

            return TrainTestSplit(train=sample(train_samples), test=sample(test_samples))

        @register_model("plugin_mlp", input_kind="raw", split_after_weighted=1)
        def build_plugin_mlp(feature_shape, num_classes, seed=None):
            return build_mlp(
                input_dim=int(np.prod(feature_shape)),
                num_classes=num_classes,
                hidden_dims=(16,),
                seed=seed,
            )

        @register_algorithm("plugin_sfl")
        def build_plugin_sfl(components):
            return SplitTrainingEngine(
                config=components.config,
                split=components.split,
                workers=components.workers,
                cluster=components.cluster,
                data=components.data,
                policy=FixedBatchPolicy(merge_features=True),
                bandwidth_budget_override=components.bandwidth_budget,
            )

        try:
            config = ExperimentConfig(
                algorithm="plugin_sfl",
                dataset="plugin_rings",
                model="plugin_mlp",
                num_workers=3,
                num_rounds=2,
                train_samples=120,
                test_samples=40,
            )
            history = Session.from_config(config).run()
            assert len(history) == 2
        finally:
            ALGORITHMS.unregister("plugin_sfl")
            DATASETS.unregister("plugin_rings")
            MODELS.unregister("plugin_mlp")

    def test_raw_model_without_split_runs_fl_algorithms(self):
        """A raw plugin model with no split point works with full-model
        algorithms, and split algorithms fail with a clear error."""
        from repro.api.components import build_algorithm, build_components
        from repro.api.session import Session
        from repro.nn.models import build_mlp

        @register_model("plugin_splitless")
        def build_splitless(feature_shape, num_classes, seed=None):
            return build_mlp(
                int(np.prod(feature_shape)), num_classes, (8,), seed=seed
            )

        try:
            config = ExperimentConfig(
                algorithm="fedavg",
                dataset="blobs",
                model="plugin_splitless",
                num_workers=3,
                num_rounds=2,
                train_samples=120,
                test_samples=40,
            )
            history = Session.from_config(config).run()
            assert len(history) == 2

            with pytest.raises(ConfigurationError, match="no split point"):
                build_algorithm(
                    build_components(config.replace(algorithm="mergesfl"))
                )
        finally:
            MODELS.unregister("plugin_splitless")

    def test_unknown_names_still_rejected_with_registry_message(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ExperimentConfig(algorithm="definitely_not_registered")
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            ExperimentConfig(dataset="definitely_not_registered")
        with pytest.raises(ConfigurationError, match="unknown model"):
            ExperimentConfig(model="definitely_not_registered")
