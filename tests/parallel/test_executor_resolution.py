"""The ``executor="auto"`` default: what it resolves to, and that it is exact.

``resolve_executor`` picks an existing backend from the model, the pipeline
and the workers; these tests pin the table, that an explicit name is never
re-resolved, and that the resolved default reproduces the ``serial``
reference bit for bit -- histories, final weights and checkpoints, in both
directions.
"""

from __future__ import annotations

import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.api.registry import MODELS, register_model
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.parallel import build_executor, resolve_executor

TINY = dict(
    num_workers=4, num_rounds=2, local_iterations=2, train_samples=96,
    test_samples=32, max_batch_size=8, base_batch_size=4, seed=5,
)


class _Scale(Module):
    """A third-party layer: no stacked kernel, not in the dense set."""

    def forward(self, inputs):
        return inputs * 0.5

    def backward(self, grad_output):
        return grad_output * 0.5


@pytest.fixture
def plugin_model():
    name = "mlp_plugin_layer_test"

    @register_model(name, input_kind="vector", split_after_weighted=1)
    def build(input_dim, num_classes, seed=None):
        return Sequential([
            Linear(input_dim, 8), _Scale(), ReLU(), Linear(8, num_classes),
        ])

    yield name
    MODELS.unregister(name)


def _session_backend(**overrides) -> str:
    with Session.from_config(ExperimentConfig(**{**TINY, **overrides})) as session:
        return session.components.executor.name


#: A dataset every built-in model can train on.
BUILTIN_MODELS = {
    "mlp": "blobs", "cnn_h": "har", "cnn_s": "speech",
    "alexnet_s": "cifar10", "vgg_s": "image100",
}


def test_every_builtin_model_is_covered():
    assert sorted(BUILTIN_MODELS) == sorted(MODELS.names())


@pytest.mark.parametrize("model", sorted(BUILTIN_MODELS))
def test_auto_picks_batched_exactly_where_batched_does_not_fall_back(model, caplog):
    """One source of truth for "dense": the default resolves to ``batched``
    iff a forced ``batched`` session runs without its per-worker fallback."""
    overrides = dict(
        TINY, dataset=BUILTIN_MODELS[model], model=model, model_width=0.25,
        num_rounds=1, local_iterations=1,
    )
    config = ExperimentConfig(**overrides)
    with Session.from_config(config) as session:
        resolved = resolve_executor(
            config, session.components.model, session.components.workers
        )
        assert session.components.executor.name == resolved
    with caplog.at_level(logging.WARNING, logger="repro.parallel.batched"):
        with Session.from_config(ExperimentConfig(**overrides, executor="batched")) as forced:
            forced.run()
    fell_back = "falling back to serial" in caplog.text
    assert (resolved == "batched") == (not fell_back)


@pytest.mark.parametrize("overrides,backend", [
    (dict(dataset="blobs", model="mlp"), "batched"),
    (dict(dataset="blobs", model="mlp", algorithm="fedavg"), "batched"),
    (dict(dataset="blobs", model="mlp", momentum=0.9), "batched"),
    (dict(dataset="blobs", model="mlp",
          extras={"population_sharding": "sampled"}), "batched"),
    (dict(dataset="cifar10", model="alexnet_s", model_width=0.25), "serial"),
    (dict(dataset="har", model="cnn_h", model_width=0.25), "serial"),
], ids=["mlp", "mlp-fedavg", "mlp-momentum", "mlp-sampled", "alexnet_s",
        "cnn_h"])
def test_default_resolution_table(overrides, backend):
    """The resolved backend is readable from the session's components."""
    assert ExperimentConfig(**overrides).executor == "auto"
    assert _session_backend(**overrides) == backend


def test_third_party_layer_resolves_to_serial_without_warning(plugin_model, caplog):
    with caplog.at_level(logging.WARNING):
        config = ExperimentConfig(**{**TINY, "dataset": "blobs", "model": plugin_model})
        with Session.from_config(config) as session:
            assert session.components.executor.name == "serial"
            session.run()
    assert "falling back" not in caplog.text


def test_heterogeneous_workers_resolve_to_serial_without_warning(caplog):
    config = ExperimentConfig(**{**TINY, "dataset": "blobs", "model": "mlp"})
    with Session.from_config(config) as session:
        model, workers = session.components.model, session.components.workers
    assert resolve_executor(config, model, workers) == "batched"
    workers[1].momentum = 0.9
    with caplog.at_level(logging.WARNING):
        executor = build_executor(config, model, workers)
        assert executor.name == "serial"
        executor.install(workers, session.components.split.bottom, [0.1] * len(workers))
    assert "falling back" not in caplog.text


def test_nothing_to_observe_resolves_to_the_reference():
    config = ExperimentConfig(dataset="blobs", model="mlp")
    assert resolve_executor(config) == "serial"
    assert build_executor(config).name == "serial"


@pytest.mark.parametrize("name,overrides", [
    ("serial", dict(dataset="blobs", model="mlp")),
    ("batched", dict(dataset="cifar10", model="alexnet_s", model_width=0.25)),
    ("batched", dict(dataset="har", model="cnn_h", model_width=0.25)),
    ("serial", dict(dataset="blobs", model="mlp", algorithm="fedavg")),
    ("process", dict(dataset="blobs", model="mlp")),
])
def test_explicit_names_are_never_re_resolved(name, overrides):
    assert _session_backend(executor=name, **overrides) == name


def _config(executor: str, algorithm: str, **overrides) -> ExperimentConfig:
    params = dict(
        algorithm=algorithm, dataset="blobs", model="mlp", num_workers=5,
        num_rounds=3, local_iterations=3, non_iid_level=2.0,
        max_batch_size=16, base_batch_size=8, train_samples=300,
        test_samples=80, learning_rate=0.1, momentum=0.9, weight_decay=1e-4,
        seed=3, executor=executor,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _run(config: ExperimentConfig):
    """Run a session to completion; return (history records, final weights)."""
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


def _assert_bit_equal(reference, candidate, label: str) -> None:
    """Every record field (in-process runs: wire fields too) and every weight."""
    _assert_nested_equal(list(reference[0]), list(candidate[0]), f"{label}: records")
    _assert_nested_equal(reference[1], candidate[1], f"{label}: weights")


@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_default_matches_serial(algorithm):
    _assert_bit_equal(
        _run(_config("serial", algorithm)), _run(_config("auto", algorithm)),
        f"{algorithm}/auto",
    )


@pytest.mark.parametrize("overrides", [
    dict(dataset="cifar10", model="alexnet_s", model_width=0.25,
         train_samples=80, test_samples=20, num_rounds=2),
    dict(dataset="har", model="cnn_h", model_width=0.25,
         train_samples=80, test_samples=20, num_rounds=2),
], ids=["conv", "conv1d"])
def test_default_on_the_per_worker_side_matches_serial(overrides):
    """Conv bottoms keep the records they had when the default was
    ``serial``."""
    _assert_bit_equal(
        _run(_config("serial", "mergesfl", **overrides)),
        _run(_config("auto", "mergesfl", **overrides)),
        "auto on the per-worker side",
    )


@pytest.mark.parametrize("saved,resumed", [("auto", "serial"), ("serial", "auto")])
@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_checkpoint_crosses_default_and_serial(algorithm, saved, resumed, tmp_path):
    """Saved under one, resumed under the other: the uninterrupted run."""
    path = tmp_path / "crossed.ckpt.json"
    with Session.from_config(_config(saved, algorithm)) as session:
        session.run(1)
        session.save_checkpoint(path)
        state_at_save = session.state_dict()["algorithm"]
    payload = json.loads(path.read_text())
    assert payload["config"]["executor"] == saved
    payload["config"]["executor"] = resumed
    path.write_text(json.dumps(payload))
    with Session.load_checkpoint(path) as session:
        assert session.config.executor == resumed
        restored = session.state_dict()["algorithm"]
        session.run()
        candidate = (session.history.records, session.global_model().state_dict())
    _assert_nested_equal(state_at_save, restored, "state_dict")
    _assert_bit_equal(
        _run(_config("serial", algorithm)), candidate,
        f"{algorithm}: {saved} -> {resumed}",
    )


def _assert_nested_equal(expected, actual, where: str) -> None:
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key, value in expected.items():
            _assert_nested_equal(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), where
        for index, value in enumerate(expected):
            _assert_nested_equal(value, actual[index], f"{where}[{index}]")
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(actual, expected), where
    elif dataclasses.is_dataclass(expected):
        assert dataclasses.asdict(actual) == dataclasses.asdict(expected), where
    else:
        assert actual == expected, where
