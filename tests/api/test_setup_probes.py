"""What a session's set-up forwards through, and copies of, its model.

The default bandwidth budget and the engine's accounting at the global cut
both need one sample's feature shape (and the engine its forward MACs).
Set-up takes both from one forward of a clone of the bottom.  A bottom
layer whose training forward changes its state -- a Dropout that
``extras["split_index"]`` leaves in the bottom -- still sees the two
forwards through the live global bottom that its records were made with.

One model per session: that probe is the only clone set-up makes.  A
split set-up cuts the model into views and the server adopts them; an FL
set-up cuts nothing and the engine adopts the model.
"""

from __future__ import annotations

import copy

import pytest

from repro.api.components import build_components
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.nn.layers import Conv2d, Dropout
from repro.nn.module import Module


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="mergesfl", dataset="cifar10", model="alexnet_s",
        model_width=0.25, num_workers=4, num_rounds=1, local_iterations=2,
        max_batch_size=8, base_batch_size=4, train_samples=128,
        test_samples=32, seed=3,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_set_up_forwards_one_dummy_sample(monkeypatch):
    batches = []
    forward = Conv2d.forward

    def counted(self, inputs):
        if self.in_channels == 3:  # the model's first layer
            batches.append(inputs.shape[0])
        return forward(self, inputs)

    monkeypatch.setattr(Conv2d, "forward", counted)
    Session.from_config(_config()).close()
    assert batches == [1]


def test_a_dropout_in_the_bottom_takes_two_live_forwards_at_set_up():
    config = _config(extras={"split_index": 17})
    components = build_components(config)
    index, dropout = next(
        (index, layer) for index, layer in enumerate(components.split.bottom)
        if isinstance(layer, Dropout)
    )
    features = components.split.bottom.layers[index - 2].out_features
    expected = copy.deepcopy(dropout._rng)
    with Session(config, components=components) as session:
        live = session.algorithm.server.global_bottom.layers[index]
        for __ in range(2):
            expected.random((1, features))
        assert live.extra_state() == {"rng": expected.bit_generator.state}


@pytest.mark.parametrize("algorithm, clones", [
    ("mergesfl", 1), ("splitfed", 1), ("fedavg", 0), ("pyramidfl", 0),
])
def test_set_up_clones_the_model_only_for_the_bottom_probe(
    monkeypatch, algorithm, clones
):
    calls = []
    clone = Module.clone

    def counted(self):
        calls.append(type(self).__name__)
        return clone(self)

    monkeypatch.setattr(Module, "clone", counted)
    Session.from_config(_config(algorithm=algorithm)).close()
    assert len(calls) == clones


@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed"])
def test_the_server_adopts_the_split_halves(algorithm):
    components = build_components(_config(algorithm=algorithm))
    with Session(components.config, components=components) as session:
        server = session.algorithm.server
        assert server.global_bottom is components.split.bottom
        assert server.top is components.split.top
    halves = [*components.split.bottom.layers, *components.split.top.layers]
    assert all(a is b for a, b in zip(halves, components.model.layers, strict=True))


@pytest.mark.parametrize("algorithm", ["fedavg", "pyramidfl"])
def test_an_fl_set_up_cuts_nothing_and_the_engine_adopts_the_model(algorithm):
    components = build_components(_config(algorithm=algorithm))
    assert components.split is None
    assert components.bandwidth_budget == components.config.bandwidth_budget_mbps
    with Session(components.config, components=components) as session:
        assert session.algorithm.model is components.model
