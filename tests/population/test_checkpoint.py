"""Checkpoint/resume of lazy populations, including a warm delta cache."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api.session import Session
from repro.config import ExperimentConfig


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="mergesfl",
        dataset="blobs",
        model="mlp",
        num_workers=6,
        num_rounds=4,
        local_iterations=2,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=240,
        test_samples=64,
        learning_rate=0.1,
        momentum=0.9,
        seed=5,
        population="lazy",
        population_cache=8,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _assert_identical(session, reference_session) -> None:
    for record, ref_record in zip(session.history.records,
                                  reference_session.history.records):
        # Cache fields included: a correctly restored warm cache serves the
        # same hits after resume as the uninterrupted run.
        assert dataclasses.asdict(record) == dataclasses.asdict(ref_record)
    state = session.global_model().state_dict()
    reference = reference_session.global_model().state_dict()
    for key in reference:
        assert np.array_equal(state[key], reference[key]), key


def test_checkpoint_resume_with_warm_cache_is_bit_exact(tmp_path):
    reference = Session.from_config(_config())
    reference.run()
    # The small population revisits workers, so the cache is warm by round
    # 2 and the resumed half must reproduce its hits exactly.
    assert sum(r.cache_hits for r in reference.history.records) > 0

    path = tmp_path / "lazy.ckpt.json"
    session = Session.from_config(_config())
    session.run(2)
    session.save_checkpoint(path)

    resumed = Session.load_checkpoint(path)
    assert resumed.config.population == "lazy"
    resumed.run()
    _assert_identical(resumed, reference)


def test_warm_resume_at_smaller_configured_capacity_is_bit_exact(caplog):
    """Pin of the capacity-mismatch fix at the session level: restoring a
    checkpoint into a session configured with a *smaller* delta cache must
    warn, keep the checkpointed capacity, and reproduce the uninterrupted
    run's cache hits exactly."""
    reference = Session.from_config(_config())
    reference.run()
    assert sum(r.cache_hits for r in reference.history.records) > 0

    session = Session.from_config(_config())
    session.run(2)
    state = session.state_dict()

    resumed = Session.from_config(_config(population_cache=4))
    with caplog.at_level("WARNING"):
        resumed.algorithm.load_state_dict(state["algorithm"])
    assert "capacity mismatch" in caplog.text
    assert resumed.algorithm.pool.cache.capacity == 8
    resumed.run()
    _assert_identical(resumed, reference)


def test_checkpoint_resume_with_candidate_pool(tmp_path):
    config = _config(num_workers=40, population_candidates=8, num_rounds=4)
    reference = Session.from_config(config)
    reference.run()

    path = tmp_path / "candidates.ckpt.json"
    session = Session.from_config(_config(num_workers=40,
                                          population_candidates=8,
                                          num_rounds=4))
    session.run(2)
    session.save_checkpoint(path)
    resumed = Session.load_checkpoint(path)
    resumed.run()
    _assert_identical(resumed, reference)


def test_checkpoint_scales_with_participants_not_population():
    """Registry checkpoints are sparse: rows exist only for participants."""
    # Sampled sharding: partitioning 240 samples over 500 workers would
    # yield empty shards.
    config = _config(num_workers=500, population_candidates=6, num_rounds=2,
                     extras={"population_sharding": "sampled"})
    session = Session.from_config(config)
    session.run()
    state = session.algorithm.pool.workers_state()
    assert state["format"] == "population"
    participants = state["registry"]["participation"]
    assert 0 < len(participants) <= 2 * 6
    assert len(state["registry"]["loaders"]) == len(participants)


def test_lazy_checkpoint_rejects_eager_payload_and_vice_versa():
    import pytest

    lazy = Session.from_config(_config(num_rounds=1))
    lazy.run()
    eager = Session.from_config(_config(population="eager",
                                        population_cache=0, num_rounds=1))
    eager.run()
    lazy_state = lazy.algorithm.pool.workers_state()
    eager_state = eager.algorithm.pool.workers_state()
    with pytest.raises((ValueError, TypeError)):
        lazy.algorithm.pool.load_workers_state(eager_state)
    with pytest.raises((ValueError, TypeError)):
        eager.algorithm.pool.load_workers_state(lazy_state)
