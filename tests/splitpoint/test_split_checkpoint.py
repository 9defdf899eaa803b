"""Checkpoint/resume under non-trivial split policies.

The adaptive policy carries learned state (the per-worker slowdown EMA and
the wire-scale EMA) that feeds depth selection, so a mid-run checkpoint
must serialise it and a resumed run must continue *bit-exactly* -- same
depth assignments, same records, same final weights as the uninterrupted
run.  The profile policy is stateless, so its resume exactness pins only
the multi-depth engine state (bridges, depth registry column, accounting).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS


def _config(policy: str, **overrides) -> ExperimentConfig:
    """A config where cnn_h really offers several candidate depths, so the
    non-uniform policies assign heterogeneous cuts."""
    params = dict(
        algorithm="mergesfl",
        dataset="har",
        model="cnn_h",
        model_width=0.3,
        num_workers=5,
        num_rounds=4,
        local_iterations=2,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=200,
        test_samples=60,
        learning_rate=0.1,
        seed=11,
        split_policy=policy,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


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


@pytest.mark.parametrize("policy", ["adaptive", "profile"])
def test_midrun_resume_matches_straight_run(policy, tmp_path):
    path = tmp_path / f"{policy}.ckpt.json"
    with Session.from_config(_config(policy)) as session:
        session.run(2)
        session.save_checkpoint(path)
    with Session.load_checkpoint(path) as resumed:
        assert resumed.config.split_policy == policy
        resumed.run()
        candidate = (resumed.history.records,
                     resumed.global_model().state_dict())
    _assert_bit_equal(_run(_config(policy)), candidate, f"{policy}-resume")


def test_adaptive_checkpoint_carries_learned_state(tmp_path):
    path = tmp_path / "adaptive.ckpt.json"
    with Session.from_config(_config("adaptive")) as session:
        session.run(2)
        session.save_checkpoint(path)
        state = session.state_dict()
    splitpoint = state["algorithm"]["splitpoint"]
    # Two observed rounds: every selected worker has a slowdown estimate,
    # and the payload survives the JSON encoding the checkpoint file uses.
    assert splitpoint["slowdown"]
    assert all(isinstance(v, float) for v in splitpoint["slowdown"].values())
    on_disk = json.loads(path.read_text())
    assert on_disk["algorithm"]["splitpoint"] == splitpoint


def test_adaptive_load_restores_the_policy_internals(tmp_path):
    """The checkpointed EMA payload lands in the resumed policy verbatim
    (not rebuilt fresh), so resumed depth selection starts from the same
    learned signals as the uninterrupted run."""
    path = tmp_path / "adaptive.ckpt.json"
    with Session.from_config(_config("adaptive")) as session:
        session.run(2)
        session.save_checkpoint(path)
        saved = session.state_dict()["algorithm"]["splitpoint"]
    with Session.load_checkpoint(path) as resumed:
        policy = resumed.algorithm._split_policy
        assert policy.state_dict() == saved
        assert policy._slowdown  # learned, not the fresh-policy default
