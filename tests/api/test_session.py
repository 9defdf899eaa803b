"""Tests for the steppable Session, the Algorithm interface and checkpointing."""

from dataclasses import asdict

import pytest

from repro.api.checkpoint import decode_state, encode_state
from repro.api.components import build_algorithm, build_components
from repro.api.session import Session
from repro.exceptions import ConfigurationError
from repro.experiments.runner import run_experiment
from repro.metrics.history import RoundRecord

import numpy as np


def _records(history):
    return [asdict(record) for record in history.records]


class TestCheckpointCodec:
    def test_array_roundtrip_is_bit_exact(self):
        arrays = [
            np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
            np.array([True, False]),
            np.arange(5, dtype=np.int64),
        ]
        for array in arrays:
            decoded = decode_state(encode_state(array))
            assert decoded.dtype == array.dtype
            assert np.array_equal(decoded, array)

    def test_nested_structures(self):
        payload = {"a": [1, 2.5, "x", None], "b": {"c": np.zeros(2)}}
        decoded = decode_state(encode_state(payload))
        assert decoded["a"] == [1, 2.5, "x", None]
        assert np.array_equal(decoded["b"]["c"], np.zeros(2))

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            encode_state({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode_state(object())

    def test_reserved_marker_key_rejected_at_save_time(self):
        with pytest.raises(TypeError, match="reserved key"):
            encode_state({"outer": {"__ndarray__": "collision"}})

    def test_object_dtype_array_rejected_at_save_time(self):
        with pytest.raises(TypeError, match="object-dtype"):
            encode_state(np.array([object(), object()]))


class TestAlgorithmInterface:
    def test_engine_run_is_monotonic_across_calls(self, fast_config):
        """A second run() call continues instead of restarting at round 0."""
        chunked = build_algorithm(build_components(fast_config))
        chunked.run(2)
        chunked.run(1)
        single = build_algorithm(build_components(fast_config))
        single.run(3)
        assert [r.round_index for r in chunked.history] == [0, 1, 2]
        assert _records(chunked.history) == _records(single.history)

    def test_run_beyond_config_num_rounds(self, fast_config):
        """num_rounds > config.num_rounds no longer exhausts pre-spawned RNGs."""
        algorithm = build_algorithm(build_components(fast_config))
        history = algorithm.run(fast_config.num_rounds + 2)
        assert len(history) == fast_config.num_rounds + 2

    def test_fl_engine_monotonic_and_extendable(self, fast_config):
        config = fast_config.replace(algorithm="fedavg")
        chunked = build_algorithm(build_components(config))
        chunked.run(2)
        chunked.run(config.num_rounds)  # beyond the configured horizon
        assert [r.round_index for r in chunked.history] == list(
            range(2 + config.num_rounds)
        )

    def test_step_round_returns_latest_record(self, fast_config):
        algorithm = build_algorithm(build_components(fast_config))
        record = algorithm.step_round()
        assert isinstance(record, RoundRecord)
        assert record.round_index == 0
        assert algorithm.rounds_completed == 1

    def test_negative_rounds_rejected(self, fast_config):
        algorithm = build_algorithm(build_components(fast_config))
        with pytest.raises(ValueError):
            algorithm.run(-1)

    def test_fl_engine_global_model(self, fast_config):
        config = fast_config.replace(algorithm="fedavg")
        algorithm = build_algorithm(build_components(config))
        algorithm.run(1)
        components = build_components(config)
        out = algorithm.global_model().forward(components.data.test.data[:3])
        assert out.shape == (3, components.data.num_classes)


class TestSession:
    def test_step_matches_run_experiment(self, fast_config):
        reference = run_experiment(fast_config)
        session = Session.from_config(fast_config)
        for _ in range(fast_config.num_rounds):
            session.step()
        assert _records(session.history) == _records(reference)

    def test_run_defaults_to_remaining_rounds(self, fast_config):
        session = Session.from_config(fast_config)
        session.step()
        session.run()
        assert session.rounds_completed == fast_config.num_rounds
        # A further default run() is a no-op: the schedule is complete.
        session.run()
        assert session.rounds_completed == fast_config.num_rounds

    def test_callbacks_stream_records(self, fast_config):
        session = Session.from_config(fast_config)
        seen = []

        @session.on("round_end")
        def collect(sess, event):
            seen.append(event.record.round_index)

        session.run(2)
        assert seen == [0, 1]

    def test_callback_truthy_return_stops_run(self, fast_config):
        session = Session.from_config(fast_config)
        session.on("round_end", lambda sess, event: event.record.round_index >= 0)
        session.run(3)
        assert session.rounds_completed == 1

    def test_pre_built_algorithm_skips_component_assembly(self, fast_config):
        components = build_components(fast_config)
        algorithm = build_algorithm(components)
        session = Session(fast_config, algorithm=algorithm)
        assert session.components is None
        assert session.algorithm is algorithm
        session.run(1)
        assert session.rounds_completed == 1

    def test_global_model_forward(self, fast_config):
        session = Session.from_config(fast_config)
        session.step()
        out = session.global_model().forward(session.components.data.test.data[:2])
        assert out.shape == (2, session.components.data.num_classes)


class TestCheckpointResume:
    @pytest.mark.parametrize("algorithm", ["mergesfl", "fedavg", "splitfed"])
    def test_chunked_run_with_checkpoint_matches_single_run(
        self, fast_config, tmp_path, algorithm
    ):
        """Acceptance: step() in two chunks with a JSON checkpoint round trip
        in between yields a History identical to one uninterrupted run."""
        config = fast_config.replace(algorithm=algorithm)
        reference = run_experiment(config)

        session = Session.from_config(config)
        session.step()
        session.step()
        path = tmp_path / "checkpoint.json"
        session.save_checkpoint(path)

        restored = Session.load_checkpoint(path)
        assert restored.rounds_completed == 2
        restored.run()

        assert _records(restored.history) == _records(reference)

    def test_in_memory_state_dict_roundtrip(self, fast_config):
        reference = run_experiment(fast_config)
        session = Session.from_config(fast_config)
        session.step()
        state = session.state_dict()
        fresh = Session.from_config(fast_config)
        fresh.load_state_dict(state)
        fresh.run()
        assert _records(fresh.history) == _records(reference)

    def test_load_state_dict_rejects_other_config(self, fast_config):
        session = Session.from_config(fast_config)
        session.step()
        state = session.state_dict()
        other = Session.from_config(fast_config.replace(seed=99))
        with pytest.raises(ConfigurationError, match="different configuration"):
            other.load_state_dict(state)

    def test_unsupported_version_rejected(self, fast_config, tmp_path):
        session = Session.from_config(fast_config)
        state = session.state_dict()
        state["version"] = 999
        with pytest.raises(ConfigurationError, match="version"):
            session.load_state_dict(state)

    def test_tuple_extras_survive_checkpoint_config_comparison(self, fast_config, tmp_path):
        """Tuples in extras decode from JSON as lists; the config equality
        check must not reject the checkpoint over that."""
        config = fast_config.replace(extras={"tags": ("a", "b")})
        session = Session.from_config(config)
        session.step()
        path = tmp_path / "tuple.json"
        session.save_checkpoint(path)
        fresh = Session.from_config(config)
        from repro.api.checkpoint import load_checkpoint_payload
        fresh.load_state_dict(load_checkpoint_payload(path))
        assert fresh.rounds_completed == 1

    def test_custom_wired_checkpoint_refuses_registry_rebuild(self, fast_config, tmp_path):
        """A checkpoint from a hand-wired algorithm must not silently resume
        as the registry-built default."""
        components = build_components(fast_config)
        session = Session(fast_config, algorithm=build_algorithm(components))
        session.step()
        path = tmp_path / "custom.json"
        session.save_checkpoint(path)
        with pytest.raises(ConfigurationError, match="hand-wired"):
            Session.load_checkpoint(path)
        # The documented escape hatch: rebuild the algorithm yourself.
        rebuilt = Session(fast_config, algorithm=build_algorithm(build_components(fast_config)))
        from repro.api.checkpoint import load_checkpoint_payload
        rebuilt.load_state_dict(load_checkpoint_payload(path))
        assert rebuilt.rounds_completed == 1

    def test_custom_components_checkpoint_also_refuses_rebuild(self, fast_config, tmp_path):
        """Hand-wired components (not just a hand-wired algorithm) cannot be
        reproduced from the config, so the guard covers them too."""
        session = Session(fast_config, components=build_components(fast_config))
        session.step()
        path = tmp_path / "custom_components.json"
        session.save_checkpoint(path)
        with pytest.raises(ConfigurationError, match="hand-wired"):
            Session.load_checkpoint(path)

    def test_checkpoint_restores_rng_dependent_streams(self, fast_config, tmp_path):
        """The restored run must consume worker batches exactly where the
        saved one stopped (loader RNG/cursor state, not just weights)."""
        session = Session.from_config(fast_config)
        session.step()
        path = tmp_path / "ck.json"
        session.save_checkpoint(path)
        restored = Session.load_checkpoint(path)
        for saved, fresh in zip(session.components.workers, restored.components.workers):
            batch_a = saved.loader.next_batch(4)[0]
            batch_b = fresh.loader.next_batch(4)[0]
            assert np.array_equal(batch_a, batch_b)


class TestDamagedCheckpoint:
    """A torn or mutated checkpoint fails with a ``ConfigurationError``
    naming the file and what is wrong -- never a raw ``JSONDecodeError``,
    ``AttributeError`` or ``KeyError``, and never a session that resumes
    from half a state."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from repro.config import ExperimentConfig

        config = ExperimentConfig(
            dataset="blobs", model="mlp", num_workers=4, num_rounds=3,
            local_iterations=2, train_samples=160, test_samples=40, seed=2,
        )
        path = tmp_path_factory.mktemp("damaged") / "two_rounds.ckpt.json"
        with Session.from_config(config) as session:
            session.run(2)
            session.save_checkpoint(path)
        return path

    @staticmethod
    def _assert_named_failure(path, match):
        with pytest.raises(ConfigurationError, match=match) as failure:
            Session.load_checkpoint(path)
        assert str(path) in str(failure.value)

    def test_the_intact_checkpoint_resumes(self, checkpoint):
        with Session.load_checkpoint(checkpoint) as resumed:
            assert resumed.rounds_completed == 2

    @pytest.mark.parametrize("fraction", [0.01, 0.5, 0.99])
    def test_truncated_file(self, checkpoint, tmp_path, fraction):
        data = checkpoint.read_bytes()
        torn = tmp_path / "torn.ckpt.json"
        torn.write_bytes(data[:int(len(data) * fraction)])
        self._assert_named_failure(torn, "not valid JSON")

    def test_payload_that_is_not_an_object(self, checkpoint, tmp_path):
        path = tmp_path / "list.ckpt.json"
        path.write_text("[]")
        self._assert_named_failure(path, "not an object")

    def test_every_missing_key_is_named(self, checkpoint, tmp_path):
        import json

        payload = json.loads(checkpoint.read_text())
        cases = [(key, None) for key in payload]
        cases += [("algorithm", key) for key in payload["algorithm"]]
        assert {"version", "config", "algorithm"} <= set(payload)
        assert {"server", "workers", "history"} <= set(payload["algorithm"])
        for top, inner in cases:
            damaged = dict(payload)
            if inner is None:
                del damaged[top]
            else:
                damaged[top] = {
                    key: value for key, value in payload[top].items()
                    if key != inner
                }
            path = tmp_path / "missing.ckpt.json"
            path.write_text(json.dumps(damaged))
            self._assert_named_failure(path, repr(inner or top))

    def test_load_state_dict_names_a_missing_algorithm_key(self, checkpoint):
        from repro.api.checkpoint import load_checkpoint_payload

        payload = load_checkpoint_payload(checkpoint)
        del payload["algorithm"]["server"]
        with Session.load_checkpoint(checkpoint) as session:
            with pytest.raises(ConfigurationError, match="'server'"):
                session.load_state_dict(payload)


class TestDamagedLoaderState:
    """A worker's sampling state whose order is not a permutation of its
    shard positions, or whose cursor lies outside the order, fails with a
    ``ValueError`` naming what is wrong: positions index rows of the one
    shared training array, so a bad one would draw another worker's rows."""

    @staticmethod
    def _loader():
        from repro.data.loader import BatchLoader
        from repro.data.synthetic import make_blobs

        source = make_blobs(train_samples=40, test_samples=4, seed=1).train
        return BatchLoader(source.subset(np.arange(3, 13)), seed=2)

    @pytest.mark.parametrize("order,match", [
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 8], "not a permutation"),
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 10], "not a permutation"),
        ([-1, 1, 2, 3, 4, 5, 6, 7, 8, 9], "not a permutation"),
        ([0, 1, 2], "does not match the dataset size 10"),
    ], ids=["repeated", "past-the-end", "negative", "short"])
    def test_bad_order(self, order, match):
        loader = self._loader()
        state = dict(loader.state_dict(), order=np.asarray(order))
        with pytest.raises(ValueError, match=match):
            loader.load_state_dict(state)

    @pytest.mark.parametrize("cursor", [-1, 11])
    def test_cursor_outside_the_order(self, cursor):
        loader = self._loader()
        with pytest.raises(ValueError, match=rf"cursor {cursor} is outside \[0, 10\]"):
            loader.load_state_dict(dict(loader.state_dict(), cursor=cursor))

    @pytest.mark.parametrize("cursor", [0, 10])
    def test_cursor_at_either_end_is_accepted(self, cursor):
        loader = self._loader()
        loader.load_state_dict(dict(loader.state_dict(), cursor=cursor))
        assert loader.next_indices(4).shape == (4,)

    def test_a_checkpoint_with_a_damaged_order_does_not_resume(self, tmp_path):
        from repro.api.checkpoint import dump_checkpoint, load_checkpoint_payload
        from repro.config import ExperimentConfig

        config = ExperimentConfig(
            dataset="blobs", model="mlp", num_workers=3, num_rounds=2,
            local_iterations=2, train_samples=90, test_samples=20, seed=2,
        )
        path = tmp_path / "one_round.ckpt.json"
        with Session.from_config(config) as session:
            session.run(1)
            session.save_checkpoint(path)
        payload = load_checkpoint_payload(path)
        order = payload["algorithm"]["workers"]["registry"]["loaders"]["1"]["order"]
        order[0] = order[1]
        dump_checkpoint(payload, path)
        with pytest.raises(ValueError, match="not a permutation"):
            Session.load_checkpoint(path)


class TestModuleExtraState:
    def test_dropout_rng_roundtrip(self):
        from repro.nn.layers.regularization import Dropout
        from repro.nn.module import Sequential
        from repro.nn.serialization import load_module_extra_state, module_extra_state
        from repro.utils.rng import new_rng

        model = Sequential([Dropout(0.5, rng=new_rng(3))])
        model.forward(np.ones((4, 8)))          # advance the RNG
        state = module_extra_state(model)
        expected = model.forward(np.ones((4, 8)))

        fresh = Sequential([Dropout(0.5, rng=new_rng(0))])
        load_module_extra_state(fresh, state)
        assert np.array_equal(fresh.forward(np.ones((4, 8))), expected)

    def test_stateless_layer_rejects_extra_state(self):
        from repro.nn.layers.activations import ReLU

        with pytest.raises(ValueError, match="does not accept extra state"):
            ReLU().load_extra_state({"rng": {}})

    def test_unknown_layer_path_rejected(self):
        from repro.nn.module import Sequential
        from repro.nn.serialization import load_module_extra_state

        with pytest.raises(KeyError, match="unknown layer"):
            load_module_extra_state(Sequential([]), {"layer7": {}})


class TestConfigRoundTrips:
    def test_from_dict_replace_preserves_extras(self, fast_config):
        config = fast_config.replace(extras={"auto_budget": False, "note": "x"})
        clone = type(config).from_dict(config.to_dict())
        assert clone == config
        changed = config.replace(num_rounds=7)
        assert changed.extras == {"auto_budget": False, "note": "x"}
        assert changed.num_rounds == 7

    def test_replace_merges_new_unknown_keys_into_extras(self, fast_config):
        changed = fast_config.replace(mystery=3)
        assert changed.extras["mystery"] == 3
