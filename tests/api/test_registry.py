"""Tests for the plugin registries and out-of-tree extension."""

import numpy as np
import pytest

from repro.api.registry import (
    ALGORITHMS,
    DATASETS,
    MODELS,
    Registry,
    register_algorithm,
    register_dataset,
    register_model,
)
from repro.config import KNOWN_EXTRAS, ExperimentConfig
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
    def test_builtin_algorithms_are_exactly_the_table(self):
        from repro.algorithms import BUILTIN_ALGORITHMS

        assert ALGORITHMS.names() == sorted(BUILTIN_ALGORITHMS)
        assert len(BUILTIN_ALGORITHMS) == 11
        for name, (description, row) in BUILTIN_ALGORITHMS.items():
            assert ALGORITHMS.metadata(name) == {
                "description": description,
                "full_model": not isinstance(row, dict),
            }

    def test_all_builtin_datasets_registered(self):
        assert {"har", "speech", "cifar10", "image100", "blobs"} <= set(DATASETS.names())

    def test_all_builtin_models_registered(self):
        assert {"mlp", "cnn_h", "cnn_s", "alexnet_s", "vgg_s"} <= set(MODELS.names())

    def test_model_metadata_carries_split_position(self):
        assert MODELS.metadata("alexnet_s")["split_after_weighted"] == 5
        assert MODELS.metadata("vgg_s")["split_after_weighted"] == 13

    def test_one_extension_route(self):
        """Seven registries (no pipeline or transport registry since the
        process executor always runs the window over rings), no policy
        registry, no policy extras."""
        import repro.api.registry as registry_module

        registries = [
            name for name, value in vars(registry_module).items()
            if isinstance(value, Registry)
        ]
        assert len(registries) == 7 and "POLICIES" not in registries
        assert not {"PIPELINES", "TRANSPORTS"} & set(registries)
        assert len(KNOWN_EXTRAS) == 11
        assert not {"policy", "policy_kwargs"} & set(KNOWN_EXTRAS)
        for name in ("split_custom", "fl_custom"):
            assert name not in ALGORITHMS

    @pytest.mark.parametrize("name", [
        "adasfl", "fedavg", "locfedmix_sl", "mergesfl", "mergesfl_no_br",
        "mergesfl_no_fm", "pyramidfl", "sfl_br", "sfl_fm", "sfl_t", "splitfed",
    ])
    def test_session_algorithm_is_the_engine_itself(self, fast_config, name):
        from repro.api.session import Session
        from repro.core.round_engine import RoundEngine

        session = Session.from_config(fast_config.replace(algorithm=name))
        assert isinstance(session.algorithm, RoundEngine)
        assert not hasattr(session.algorithm, "engine")
        assert session.algorithm.executor is session.components.executor


class TestOutOfTreePlugin:
    """A new algorithm + dataset + model validate and run without touching config.py."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"executor": "batched"},
        {"extras": {"population_sharding": "sampled"}},
    ], ids=["default", "batched", "sampled"])
    def test_plugin_experiment_runs_end_to_end(self, overrides):
        from repro.api.session import Session
        from repro.core.controller import ControlModule
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

        class EveryoneMerged(ControlModule):
            """An out-of-tree policy: SFL-FM, counting its calls."""

            calls = 0

            def plan_round(self, context):
                type(self).calls += 1
                return super().plan_round(context)

        @register_algorithm("plugin_sfl")
        def build_plugin_sfl(components):
            return SplitTrainingEngine.from_components(
                components,
                EveryoneMerged(regulate=False, select=False, finetune=False),
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
                **overrides,
            )
            with Session.from_config(config) as session:
                # The configured backend and population reach the plugin.
                assert session.algorithm.executor is session.components.executor
                assert session.algorithm.executor.name == overrides.get(
                    "executor", "batched")
                assert session.algorithm.pool is session.components.pool
                history = session.run()
            assert len(history) == 2
            assert EveryoneMerged.calls == 2
            assert all(record.num_selected == 3 for record in history.records)
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
