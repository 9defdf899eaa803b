"""Tests for ExperimentConfig and the experiment runner."""

import dataclasses
import json
import multiprocessing
import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api.components import build_components, build_model_for
from repro.api.registry import ALGORITHMS
from repro.api.session import Session
from repro.config import (
    KNOWN_EXTRAS,
    RETIRED_EXTRAS,
    RETIRED_FIELDS,
    ExperimentConfig,
)
from repro.exceptions import ConfigurationError
from repro.experiments.reporting import format_comparison, format_table
from repro.experiments.runner import run_experiment
from repro.metrics.summary import compare_histories

#: Every numeric config field and its annotation.
NUMERIC_FIELDS = {
    spec.name: spec.type for spec in dataclasses.fields(ExperimentConfig)
    if spec.type in ("int", "float", "float | None")
}


def _bad_numeric_values(name: str) -> st.SearchStrategy:
    """Values the field ``name`` must refuse: the wrong type, or NaN."""
    wrong_types = [True, False, "3", b"3", [3], {"value": 3}, 1 + 2j]
    if NUMERIC_FIELDS[name] != "float | None":
        wrong_types.append(None)
    nans = st.sampled_from([float("nan"), np.float64("nan"), np.float32("nan")])
    bad = st.sampled_from(wrong_types) | nans
    if NUMERIC_FIELDS[name] == "int":
        # Any float is the wrong type for a count, integral or not.
        bad |= st.floats(allow_nan=True, allow_infinity=True)
        bad |= st.floats(-1e6, 1e6).map(np.float64)
    elif name != "kl_threshold":
        bad |= st.sampled_from([float("inf"), -np.inf, np.float64("inf")])
    return bad


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.algorithm == "mergesfl"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(algorithm="sgd")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="mnist")

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(learning_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(non_iid_level=-1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(lr_decay=1.5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(max_grad_norm=0.0)

    def test_cross_field_batch_sizes_validated(self):
        """Regression: max < base used to pass silently, leaving the
        batch-size regulator an empty [base, max] range."""
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ExperimentConfig(max_batch_size=8, base_batch_size=16)
        # Equal sizes are a valid (degenerate) regulation range.
        config = ExperimentConfig(max_batch_size=16, base_batch_size=16)
        assert config.max_batch_size == config.base_batch_size
        # replace() re-validates: a consistent config cannot be made
        # inconsistent through the copy API either.
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ExperimentConfig().replace(max_batch_size=4)

    def test_negative_optimiser_fields_rejected(self):
        """Regression: negative momentum/weight_decay passed validation and
        only blew up (or silently corrupted updates) deep in the optimiser."""
        with pytest.raises(ConfigurationError, match="momentum"):
            ExperimentConfig(momentum=-0.1)
        with pytest.raises(ConfigurationError, match="weight_decay"):
            ExperimentConfig(weight_decay=-1e-4)
        ExperimentConfig(momentum=0.9, weight_decay=1e-4)  # valid values pass

    def test_dict_roundtrip(self):
        config = ExperimentConfig(dataset="har", model="cnn_h", num_workers=7)
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_collects_unknown_keys_into_extras(self):
        config = ExperimentConfig.from_dict({"dataset": "blobs", "model": "mlp",
                                             "mystery_knob": 3})
        assert config.extras["mystery_knob"] == 3

    @pytest.mark.parametrize("capacity", [0, 8, 64])
    def test_the_retired_population_cache_is_dropped_on_load(self, capacity):
        """Earlier configs sized the lazy pool's delta cache; the cache is
        gone, so any capacity loads as the same config, not as an extra."""
        config = ExperimentConfig(population_candidates=8)
        payload = dict(config.to_dict(), population_cache=capacity)
        loaded = ExperimentConfig.from_dict(payload)
        assert loaded == config
        assert "population_cache" not in loaded.extras
        assert "population_cache" not in config.to_dict()

    @pytest.mark.parametrize("key, value", [
        ("population_sharding", "striped"),
        ("population_sharding", None),
        ("population_samples_per_worker", 0),
        ("population_samples_per_worker", -3),
        ("population_samples_per_worker", 2.5),
        ("population_samples_per_worker", True),
        ("population_live_devices", "x"),
        ("population_live_devices", -1),
    ])
    def test_population_extras_rejected_at_config_time(self, key, value):
        """Regression: a bad population extra used to build silently or
        fail at build time with a bare ValueError."""
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig(extras={key: value})

    @pytest.mark.parametrize("key, value", [
        ("executor_processes", 0),
        ("executor_processes", "two"),
        ("transport_capacity", 0),
        ("transport_capacity", "big"),
        ("executor_start_method", "teleport"),
    ])
    def test_executor_extras_rejected_at_config_time(self, key, value):
        """Regression: these constructed, then failed with a bare ValueError
        when the process executor was built -- or were silently ignored
        under any other executor."""
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ExperimentConfig(extras={key: value})

    @pytest.mark.parametrize("integer", [int, np.int64])
    def test_valid_executor_extras_pass(self, integer):
        extras = {
            "executor_processes": integer(2), "transport_capacity": integer(4096),
            "executor_start_method": multiprocessing.get_all_start_methods()[0],
        }
        assert ExperimentConfig(extras=extras).extras == extras

    @pytest.mark.parametrize("key, value", [
        ("population_sharding", "partition"),
        ("population_sharding", "sampled"),
        ("population_samples_per_worker", 1),
        ("population_samples_per_worker", 16),
        ("population_live_devices", 0),
        ("population_live_devices", 256),
    ])
    def test_valid_population_extras_pass_on_any_config(self, key, value):
        """The population knobs are parameters: no setting gates them (the
        retired ``population="eager"`` refused every one of them)."""
        assert ExperimentConfig(extras={key: value}).extras == {key: value}

    def test_a_candidate_pool_is_valid_on_any_config(self):
        assert ExperimentConfig(population_candidates=8).population_candidates == 8

    @pytest.mark.parametrize("key, value", [
        ("depth_aware_selection", True),
        ("depth_aware_selection", 0),
        ("top_lr_scale", 2.0),
        ("top_lr_scale", 0.25),
        ("top_lr_scale", True),
        ("split_depth_min", 2),
        ("split_depth_min", None),
        ("split_depth_max", 6),
        ("split_depth_max", 1),
    ])
    def test_a_retired_extras_key_fails_by_name(self, key, value):
        """A removed key that would have changed the run fails, naming the
        key, whichever way the config is built."""
        message = re.escape(f"extras[{key!r}]") + ".*was removed"
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(extras={key: value})
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.from_dict({"dataset": "blobs", key: value})
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.from_dict({"extras": {key: value}})

    @pytest.mark.parametrize("key, value", [
        ("depth_aware_selection", False),
        ("top_lr_scale", 1.0),
        ("top_lr_scale", 1),
        ("top_lr_scale", np.float64(1.0)),
    ])
    def test_a_retired_extras_key_at_its_neutral_value_is_dropped(self, key, value):
        config = ExperimentConfig(extras={key: value, "note": "x"})
        assert config.extras == {"note": "x"}
        payload = dict(ExperimentConfig().to_dict(), **{key: value})
        assert ExperimentConfig.from_dict(payload) == ExperimentConfig()

    @pytest.mark.parametrize("key", ["split_depth_min", "split_depth_max"])
    def test_a_split_bound_is_removed_not_a_typo(self, key):
        """The retired table is read before the typo detector: no
        'did you mean split_index' for a key that was deliberately cut."""
        with pytest.raises(ConfigurationError, match="was removed") as raised:
            ExperimentConfig(extras={key: 2})
        assert "did you mean" not in str(raised.value)

    def test_retired_keys_are_no_longer_read(self):
        assert not set(RETIRED_EXTRAS) & set(KNOWN_EXTRAS)

    @pytest.mark.parametrize("name, value", [
        ("num_workers", 2.5),
        ("local_iterations", 1.5),
        ("eval_batch_size", 0.5),
        ("max_batch_size", 16.5),
        ("base_batch_size", 2.5),
        ("ga_population", 3.5),
        ("rejoin_staleness_bound", 2.0),
        ("seed", True),
        ("model_width", float("nan")),
        ("bandwidth_budget_mbps", float("nan")),
        ("straggler_deadline", float("nan")),
        ("non_iid_level", float("nan")),
        ("over_select_factor", float("nan")),
        ("kl_threshold", float("nan")),
        ("learning_rate", float("inf")),
        ("max_grad_norm", float("nan")),
    ])
    def test_numeric_fields_are_typed_at_config_time(self, name, value):
        """Regression: each of these got past validate() and failed later
        with a bare TypeError, mid-run, in a hang (``kl_threshold``) or not
        at all."""
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            ExperimentConfig(**{name: value})

    def test_numpy_numbers_and_an_infinite_threshold_pass(self):
        config = ExperimentConfig(
            num_workers=np.int64(4), max_batch_size=np.int32(16),
            learning_rate=np.float32(0.05), model_width=1,
            kl_threshold=float("inf"), max_grad_norm=None,
        )
        assert config.num_workers == 4

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_bad_numeric_value_names_its_field(self, data):
        """A wrong-typed or NaN value in any numeric field raises a
        ConfigurationError that names the field, and nothing else."""
        name = data.draw(st.sampled_from(sorted(NUMERIC_FIELDS)), label="field")
        value = data.draw(_bad_numeric_values(name), label="value")
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            ExperimentConfig(**{name: value})

    def test_known_extras_lists_every_key_the_code_reads(self):
        import pathlib
        import re

        import repro

        read = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            read.update(re.findall(
                r"extras(?:\.get\(|\.setdefault\(|\[)\s*[\"']([a-z_]+)[\"']",
                path.read_text(),
            ))
        assert read == set(KNOWN_EXTRAS)

    @pytest.mark.parametrize("typo, intended", [
        ("codec_topk_ration", "codec_topk_ratio"),
        ("executor_process", "executor_processes"),
        ("num_worker", "num_workers"),
    ])
    def test_misspelled_extras_key_rejected(self, typo, intended):
        with pytest.raises(ConfigurationError, match=f"did you mean.*{intended}'"):
            ExperimentConfig(extras={typo: 2})
        # ... also when from_dict sweeps an unknown top-level key into extras.
        with pytest.raises(ConfigurationError, match=f"did you mean.*{intended}'"):
            ExperimentConfig.from_dict({"dataset": "blobs", typo: 2})

    def test_free_form_extras_stay_accepted(self):
        extras = {"note": "x", "tags": ("a", "b"), "telemetry": {"on": True}}
        assert ExperimentConfig(extras=extras).extras == extras

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(KNOWN_EXTRAS),
        edit=st.sampled_from(["delete", "insert", "substitute", "transpose"]),
        position=st.integers(min_value=0, max_value=64),
        letter=st.sampled_from("abcdefghijklmnopqrstuvwxyz_"),
    )
    def test_single_character_edits_of_known_extras_rejected(
        self, key, edit, position, letter
    ):
        at = position % len(key)
        if edit == "delete":
            typo = key[:at] + key[at + 1:]
        elif edit == "insert":
            typo = key[:at] + letter + key[at:]
        elif edit == "substitute":
            typo = key[:at] + letter + key[at + 1:]
        else:
            at = position % (len(key) - 1)
            typo = key[:at] + key[at + 1] + key[at] + key[at + 2:]
        assume(typo not in KNOWN_EXTRAS)
        assume(typo not in ExperimentConfig.__dataclass_fields__)
        with pytest.raises(ConfigurationError, match="did you mean"):
            ExperimentConfig(extras={typo: 1})

    def test_replace(self):
        config = ExperimentConfig()
        changed = config.replace(num_rounds=99)
        assert changed.num_rounds == 99
        assert config.num_rounds != 99

    def test_all_known_algorithms_construct(self):
        for algorithm in ALGORITHMS.names():
            ExperimentConfig(algorithm=algorithm)


#: The retired execution spellings that still load: the values the
#: benchmark's workloads and probes pass.
RETIRED_SPELLINGS = [
    ("pipeline", "sync"), ("pipeline", "pipelined"),
    ("transport", "pipe"), ("transport", "shm"),
    ("elastic", False), ("elastic", True),
    ("population", "eager"), ("population", "lazy"),
    ("population_shard_size", 4096),
]

#: The checkpoint fixtures, all written while these fields were stored.
CHECKPOINT_FIXTURES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "golden").glob("*.ckpt.json")
)


class TestRetiredExecutionFields:
    """``pipeline`` and ``transport`` are load-only spellings: the process
    executor always runs the aggregate window over shared-memory rings.
    So is ``elastic``: every round runs the churn controller; and so are
    ``population`` (a built worker stays live) and
    ``population_shard_size`` (a registry shard holds 4096 rows)."""

    @pytest.mark.parametrize("name, value", RETIRED_SPELLINGS)
    def test_the_constructor_drops_a_retired_spelling(self, name, value):
        config = ExperimentConfig(executor="process", **{name: value})
        assert config == ExperimentConfig(executor="process")
        assert name not in config.to_dict()

    @pytest.mark.parametrize("name, value", RETIRED_SPELLINGS)
    def test_from_dict_drops_a_retired_spelling(self, name, value):
        loaded = ExperimentConfig.from_dict(
            dict(ExperimentConfig().to_dict(), **{name: value})
        )
        assert loaded == ExperimentConfig()
        assert name not in loaded.extras

    @pytest.mark.parametrize("name, value", RETIRED_SPELLINGS)
    def test_replace_drops_a_retired_spelling(self, name, value):
        config = ExperimentConfig(num_rounds=3)
        assert config.replace(**{name: value}) == config

    def test_no_retired_name_is_a_field_or_written(self):
        config = ExperimentConfig(
            pipeline="pipelined", transport="shm", elastic=True,
            population="lazy", population_shard_size=4096,
        )
        fields = {spec.name for spec in dataclasses.fields(ExperimentConfig)}
        written = json.loads(json.dumps(config.to_dict()))
        assert len(fields) == 37
        for name in RETIRED_FIELDS:
            assert name not in fields
            assert name not in config.to_dict() and name not in written

    def test_the_execution_knobs_still_strip_by_name(self):
        """Code that strips the execution knobs from ``to_dict()`` by name
        (``perfbench``'s ``task_config``) keeps working; any other missing
        key still raises."""
        payload = ExperimentConfig(num_rounds=3).to_dict()
        for knob in ("executor", "transport", "pipeline", "extras"):
            payload.pop(knob)
        assert ExperimentConfig(**payload) == ExperimentConfig(num_rounds=3)
        with pytest.raises(KeyError):
            payload.pop("executor")

    @pytest.mark.parametrize("load", ["constructor", "from_dict"])
    def test_the_staleness_pipeline_keeps_its_named_error(self, load):
        with pytest.raises(ConfigurationError, match="'staleness'.*'pipelined'"):
            if load == "constructor":
                ExperimentConfig(pipeline="staleness")
            else:
                ExperimentConfig.from_dict({"pipeline": "staleness"})

    @pytest.mark.parametrize("name, value", [
        ("pipeline", "hyperdrive"), ("pipeline", "Sync"),
        ("transport", "carrier-pigeon"), ("transport", ""),
        ("elastic", 1), ("elastic", "yes"), ("elastic", 0.0),
        ("population", "Lazy"), ("population", "resident"), ("population", True),
        ("population_shard_size", 2.5), ("population_shard_size", 1024),
        ("population_shard_size", True),
    ])
    @pytest.mark.parametrize("load", ["constructor", "from_dict"])
    def test_any_other_value_fails_naming_the_removed_field(self, load, name, value):
        with pytest.raises(ConfigurationError, match=f"'{name}' field was removed"):
            if load == "constructor":
                ExperimentConfig(**{name: value})
            else:
                ExperimentConfig.from_dict({name: value})

    @pytest.mark.parametrize("fixture", CHECKPOINT_FIXTURES, ids=lambda p: p.name)
    def test_a_checkpoint_fixture_loads_and_resumes_unchanged(self, fixture):
        """Each fixture carries ``pipeline="sync"``, a transport,
        ``elastic=False``, ``population="eager"`` and a 4096-row shard
        size; it loads without them, resumes to its golden history's
        accuracy and loss, and stays byte-identical."""
        raw = fixture.read_bytes()
        stored = json.loads(raw)["config"]
        assert stored["pipeline"] == "sync" and stored["transport"] in ("pipe", "shm")
        assert stored["elastic"] is False
        assert stored["population"] == "eager"
        assert stored["population_shard_size"] == 4096
        with Session.load_checkpoint(fixture) as resumed:
            assert resumed.config == ExperimentConfig.from_dict(
                {k: v for k, v in stored.items() if k not in RETIRED_FIELDS}
            )
            records = resumed.run().records
        golden = json.loads(
            fixture.with_name(fixture.name.split(".round")[0] + ".json").read_text()
        )["records"]
        assert len(records) == len(golden)
        for record, expected in zip(records, golden):
            for key in ("test_accuracy", "test_loss", "train_loss"):
                assert getattr(record, key) == pytest.approx(expected[key], rel=1e-9)
        assert fixture.read_bytes() == raw


class TestRunnerAssembly:
    def test_build_components_shapes(self, fast_config):
        components = build_components(fast_config)
        assert len(components.workers) == fast_config.num_workers
        assert len(components.cluster) == fast_config.num_workers
        assert components.bandwidth_budget > 0
        total = sum(worker.num_samples for worker in components.workers)
        assert total == fast_config.train_samples

    def test_build_model_for_matches_dataset(self, fast_config):
        components = build_components(fast_config)
        model = build_model_for(fast_config, components.data)
        out = model.forward(components.data.test.data[:2])
        assert out.shape == (2, components.data.num_classes)

    def test_mismatched_model_dataset_rejected(self):
        config = ExperimentConfig(dataset="blobs", model="alexnet_s")
        with pytest.raises(ConfigurationError):
            build_components(config)

    def test_explicit_bandwidth_budget(self, fast_config):
        config = fast_config.replace(extras={"auto_budget": False},
                                     bandwidth_budget_mbps=42.0)
        components = build_components(config)
        assert components.bandwidth_budget == 42.0

    def test_run_experiment_deterministic(self, fast_config):
        first = run_experiment(fast_config)
        second = run_experiment(fast_config)
        assert np.allclose(first.accuracies, second.accuracies)
        assert np.allclose(first.times, second.times)

    def test_run_experiment_different_seeds_differ(self, fast_config):
        first = run_experiment(fast_config)
        second = run_experiment(fast_config.replace(seed=99))
        # A different seed changes the cluster, partition and initial model,
        # so the simulated timeline and losses must differ (accuracy may
        # saturate on the easy smoke-test task).
        times_differ = not np.allclose(first.times, second.times)
        losses_differ = not np.allclose(
            [r.test_loss for r in first.records],
            [r.test_loss for r in second.records],
        )
        assert times_differ or losses_differ


class TestReporting:
    def test_format_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", None]], title="T")
        assert "T" in text and "2.5" in text and "x" in text and "-" in text

    def test_format_comparison_renders_all_rows(self, fast_config):
        history = run_experiment(fast_config)
        table = compare_histories({"mergesfl": history})
        text = format_comparison(table, title="cmp")
        assert "mergesfl" in text and "final_acc" in text
