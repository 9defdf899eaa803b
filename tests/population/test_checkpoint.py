"""Checkpoint/resume of worker populations."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

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
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _assert_identical(session, reference_session) -> None:
    for record, ref_record in zip(session.history.records,
                                  reference_session.history.records):
        assert dataclasses.asdict(record) == dataclasses.asdict(ref_record)
    state = session.global_model().state_dict()
    reference = reference_session.global_model().state_dict()
    for key in reference:
        assert np.array_equal(state[key], reference[key]), key


def test_checkpoint_resume_is_bit_exact(tmp_path):
    reference = Session.from_config(_config())
    reference.run()

    path = tmp_path / "run.ckpt.json"
    session = Session.from_config(_config())
    session.run(2)
    session.save_checkpoint(path)

    resumed = Session.load_checkpoint(path)
    resumed.run()
    _assert_identical(resumed, reference)


def test_checkpoint_with_the_retired_cache_and_depths_still_resumes(tmp_path):
    """Earlier evicting-pool checkpoints carry a delta cache, its
    capacity, its per-round hit/miss counters and a registry ``depths``
    column; none of them was read, so such a checkpoint resumes to the same
    run."""
    import json

    reference = Session.from_config(_config())
    reference.run()

    path = tmp_path / "cached.ckpt.json"
    session = Session.from_config(_config())
    session.run(2)
    session.save_checkpoint(path)
    payload = json.loads(path.read_text())
    payload["config"]["population_cache"] = 8
    workers = payload["algorithm"]["workers"]
    workers["cache"] = {"capacity": 8, "entries": [], "hits": 3, "misses": 5}
    workers["registry"]["depths"] = {"0": 2}
    for record in payload["algorithm"]["history"]["records"]:
        record.update(cache_hits=1, cache_misses=2)
    path.write_text(json.dumps(payload))

    resumed = Session.load_checkpoint(path)
    resumed.run()
    _assert_identical(resumed, reference)


def test_pool_state_is_the_registry_alone():
    """The pool checkpoints its registry rows and nothing else; the
    ``"cache"`` key of earlier checkpoints is ignored on load."""
    session = Session.from_config(_config(num_rounds=2))
    session.run()
    pool = session.algorithm.pool
    state = pool.workers_state()
    assert set(state) == {"format", "registry"}

    fresh = Session.from_config(_config(num_rounds=2)).algorithm.pool
    fresh.load_workers_state(dict(
        state, cache={"capacity": 8, "entries": [], "hits": 3, "misses": 5},
    ))
    assert fresh.workers_state() == state
    assert fresh.live_worker_count() == 0


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


@pytest.mark.parametrize("population", ["eager", "lazy"])
def test_a_checkpoint_spelling_a_residency_resumes(tmp_path, population):
    """Checkpoints written while ``population`` was a field carry it; at
    either value they load without it and resume to the same run."""
    import json

    reference = Session.from_config(_config())
    reference.run()

    path = tmp_path / f"{population}.ckpt.json"
    session = Session.from_config(_config())
    session.run(2)
    session.save_checkpoint(path)
    payload = json.loads(path.read_text())
    assert "population" not in payload["config"]
    payload["config"]["population"] = population
    path.write_text(json.dumps(payload))

    restored = Session.load_checkpoint(path)
    assert restored.config == _config()
    restored.run()
    _assert_identical(restored, reference)


@pytest.mark.parametrize("window", [False, True], ids=["blocking", "window"])
def test_a_checkpoint_of_every_worker_and_device_still_resumes(tmp_path, window):
    """Before the one pool, an eager checkpoint held a list of every
    worker's state and every device's state, with no cluster round; it
    resumes to the uninterrupted run, also with a prefetched plan pending
    (the aggregate window's: the cluster then last advanced for the plan's
    round)."""
    from repro.api.checkpoint import dump_checkpoint, load_checkpoint_payload
    from repro.utils.rng import get_rng_state

    config = _config()
    if window:
        config = config.replace(executor="process",
                                extras={"executor_processes": 2})
    with Session.from_config(config) as reference:
        reference.run()

    path = tmp_path / "all-live.ckpt.json"
    with Session.from_config(config) as session:
        session.run(2)
        session.save_checkpoint(path)
    payload = load_checkpoint_payload(path)
    algorithm = payload["algorithm"]
    assert (algorithm["pending_plan"] is not None) == window
    cluster = session.algorithm.cluster
    algorithm["workers"] = [w.state_dict() for w in session.components.workers]
    algorithm["cluster"] = {
        "rng": get_rng_state(cluster._rng),
        "current_budget_mbps": cluster.current_budget_mbps,
        "devices": [device.state_dict() for device in cluster.devices],
    }
    dump_checkpoint(payload, path)

    with Session.load_checkpoint(path) as resumed:
        assert resumed.algorithm.cluster.state_dict() == cluster.state_dict()
        resumed.run()
        _assert_identical(resumed, reference)
