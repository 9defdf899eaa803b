"""Split-point configuration errors surface before any round runs.

A bad ``split_index`` used to blow up mid-run as a ``SplitError`` from the
model carving; now impossible values are rejected when the config is
constructed, and model-dependent bounds when components are built --
always as :class:`ConfigurationError`, never during training.
"""

from __future__ import annotations

import pytest

from repro.api.components import build_components
from repro.config import ExperimentConfig
from repro.exceptions import ConfigurationError


def _config(**extras_and_fields):
    extras = extras_and_fields.pop("extras", {})
    params = dict(
        dataset="har", model="cnn_h", num_workers=2,
        train_samples=64, test_samples=32, extras=extras,
    )
    params.update(extras_and_fields)
    return ExperimentConfig(**params)


class TestConfigTime:
    @pytest.mark.parametrize("bad", ["3", 3.5, True, None.__class__])
    def test_split_index_must_be_an_integer(self, bad):
        with pytest.raises(ConfigurationError, match="split_index"):
            _config(extras={"split_index": bad})

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_split_index_must_be_positive(self, bad):
        with pytest.raises(ConfigurationError, match="split_index"):
            _config(extras={"split_index": bad})

    def test_valid_extras_accepted(self):
        config = _config(extras={"split_index": 4})
        assert config.extras["split_index"] == 4


    @pytest.mark.parametrize("policy", ["profile", "adaptive"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "pyramidfl"])
    def test_a_full_model_algorithm_rejects_a_split_policy(self, algorithm, policy):
        """The FL engine cuts nothing: a policy it would silently ignore
        is a configuration error naming both."""
        with pytest.raises(ConfigurationError) as error:
            _config(algorithm=algorithm, split_policy=policy)
        assert repr(algorithm) in str(error.value)
        assert repr(policy) in str(error.value)

    @pytest.mark.parametrize("algorithm", ["fedavg", "pyramidfl"])
    def test_a_full_model_algorithm_rejects_a_split_index(self, algorithm):
        """Nor does it read a cut: an override it would silently ignore
        is a configuration error naming both."""
        with pytest.raises(ConfigurationError) as error:
            _config(algorithm=algorithm, extras={"split_index": 4})
        assert repr(algorithm) in str(error.value)
        assert "split_index" in str(error.value)

    @pytest.mark.parametrize("algorithm", ["fedavg", "pyramidfl", "mergesfl"])
    def test_the_uniform_policy_suits_every_algorithm(self, algorithm):
        config = _config(algorithm=algorithm, split_policy="uniform")
        assert config.split_policy == "uniform"


class TestBuildTime:
    def test_split_index_beyond_model_depth_rejected(self):
        config = _config(extras={"split_index": 10_000})
        with pytest.raises(ConfigurationError, match="split_index"):
            build_components(config)

    def test_split_index_equal_to_model_depth_rejected(self):
        # The cut must leave at least one layer in the top model, so the
        # exact model depth is out of range too (not just depth + 1).
        split = build_components(_config()).split
        depth = len(split.bottom) + len(split.top)
        config = _config(extras={"split_index": depth})
        with pytest.raises(ConfigurationError, match="split_index"):
            build_components(config)

    def test_valid_override_moves_the_cut(self):
        components = build_components(_config(extras={"split_index": 2}))
        assert len(components.split.bottom) == 2


class TestDeviceDropoutRates:
    def test_must_be_a_dict(self):
        with pytest.raises(ConfigurationError, match="device_dropout_rates"):
            _config(extras={"device_dropout_rates": 0.3})

    @pytest.mark.parametrize("bad", [-0.1, 1.5, "high"])
    def test_rates_must_be_probabilities(self, bad):
        with pytest.raises(ConfigurationError, match="device_dropout_rates"):
            _config(extras={"device_dropout_rates": {"jetson_tx2": bad}})

    def test_valid_rates_accepted(self):
        rates = {"jetson_tx2": 0.4, "jetson_agx": 0.0}
        config = _config(extras={"device_dropout_rates": rates})
        assert config.extras["device_dropout_rates"] == rates
