"""The uniform policy is the pre-existing global cut, bit for bit.

``split_policy="uniform"`` must be indistinguishable from a config that
never mentions split points: identical history records and final weights
across both split engines and every executor, and checkpoints that keep their historical format (no ``splitpoint`` state, no
``depths`` registry column).  A degenerate multi-depth run -- ``profile``
on a model whose only candidate cut is the tail -- pins that the per-depth
machinery itself is neutral when every worker lands on the global cut.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS

EXECUTORS = ("serial", "batched", "process")
ALGORITHMS = ("mergesfl", "splitfed")


def _config(executor: str, algorithm: str, **overrides) -> ExperimentConfig:
    params = dict(
        algorithm=algorithm,
        dataset="blobs",
        model="mlp",
        num_workers=5,
        num_rounds=3,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=300,
        test_samples=80,
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        seed=3,
        executor=executor,
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


_REFERENCES: dict[str, tuple] = {}


def _reference(algorithm: str):
    """A serial run whose config never mentions split points at all."""
    if algorithm not in _REFERENCES:
        _REFERENCES[algorithm] = _run(_config("serial", algorithm))
    return _REFERENCES[algorithm]


def _assert_bit_equal(reference, candidate, label: str) -> None:
    ref_records, ref_state = reference
    records, state = candidate
    assert len(records) == len(ref_records)
    for ref_record, record in zip(ref_records, records):
        ref_dict = {k: v for k, v in dataclasses.asdict(ref_record).items()
                    if k not in WIRE_FIELDS}
        dict_ = {k: v for k, v in dataclasses.asdict(record).items()
                 if k not in WIRE_FIELDS}
        assert dict_ == ref_dict, label
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"{label}: {key}"


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_uniform_matches_default_everywhere(algorithm, executor):
    """An explicit ``split_policy="uniform"`` run is the default run."""
    candidate = _run(_config(executor, algorithm, split_policy="uniform"))
    _assert_bit_equal(
        _reference(algorithm), candidate, f"{algorithm}/{executor}/uniform",
    )


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_degenerate_profile_is_neutral(algorithm, executor):
    """On ``mlp`` the only candidate cut is the tail, so ``profile`` sends
    every worker through the multi-depth machinery *at the global cut* --
    assignment, grouped merge, bridge-free install -- and must still be
    bit-exact with the uniform anchor."""
    candidate = _run(_config(executor, algorithm, split_policy="profile"))
    _assert_bit_equal(
        _reference(algorithm), candidate,
        f"{algorithm}/{executor}/profile-degenerate",
    )


def test_uniform_checkpoint_keeps_historical_format():
    """Uniform checkpoints carry no splitpoint state and no depth column."""
    with Session.from_config(_config("serial", "mergesfl",
                                     split_policy="uniform")) as session:
        session.run(1)
        state = session.state_dict()
    assert "splitpoint" not in state["algorithm"]


def test_uniform_registry_serialises_no_depths():
    with Session.from_config(_config("serial", "mergesfl")) as session:
        session.run(1)
        state = session.state_dict()
    registry = state["algorithm"]["workers"]["registry"]
    assert "depths" not in registry


def test_uniform_checkpoint_resume_matches_straight_run(tmp_path):
    path = tmp_path / "uniform.ckpt.json"
    config = _config("serial", "mergesfl", split_policy="uniform")
    with Session.from_config(config) as session:
        session.run(1)
        session.save_checkpoint(path)
    with Session.load_checkpoint(path) as resumed:
        resumed.run()
        candidate = (resumed.history.records,
                     resumed.global_model().state_dict())
    _assert_bit_equal(_reference("mergesfl"), candidate, "uniform-resume")
