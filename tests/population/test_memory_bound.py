"""The memory contract: live worker state grows with the distinct
participants, never with the registered population."""

from __future__ import annotations

import numpy as np

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.summary import participation_summary


def _session(num_workers=200, candidates=8, rounds=3, **overrides) -> Session:
    params = dict(
        algorithm="mergesfl",
        dataset="blobs",
        model="mlp",
        num_workers=num_workers,
        num_rounds=rounds,
        local_iterations=2,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=240,
        test_samples=64,
        seed=9,
        population_candidates=candidates,
        extras={"population_sharding": "sampled"},
    )
    params.update(overrides)
    return Session.from_config(ExperimentConfig(**params))


def test_each_participant_is_built_once_and_stays_live():
    """Registration builds no worker; a round builds each newly selected
    one, and it stays live: live workers == materializations == distinct
    participants."""
    session = _session(num_workers=20, rounds=4)
    pool = session.algorithm.pool
    assert pool.stats()["live"] == pool.stats()["materializations"] == 0
    session.run()
    stats = pool.stats()
    participation = participation_summary(session.history)
    assert stats["registered"] == 20
    assert stats["live"] == stats["materializations"] == (
        participation["distinct_workers"])
    # Some worker returned and was not built again.
    assert participation["distinct_workers"] < participation["total_selections"]


def test_pending_rejoins_hold_only_the_rejoin_window():
    """The only per-worker state a run under churn keeps between rounds
    besides its live workers is the pending rejoins: workers dropped within
    the last ``rejoin_staleness_bound`` rounds, one delta each."""
    bound = 2
    session = _session(num_workers=20, candidates=0, rounds=6,
                       dropout_rate=0.4,
                       rejoin_staleness_bound=bound, min_cohort_fraction=0.1)
    pending = session.algorithm._elastic.pending
    seen = 0
    for __ in range(session.config.num_rounds):
        session.run(1)
        recent = {
            worker_id
            for record in session.history.records[-bound:]
            for worker_id in record.dropped_ids
        }
        assert set(pending) <= recent
        seen += len(pending)
    assert seen > 0, "no rejoin ever pending; the bound is vacuous"


def test_label_columns_materialise_only_touched_shards():
    session = _session(num_workers=100_000, candidates=8, rounds=2,
                       extras={"population_sharding": "sampled",
                               "auto_budget": False,
                               "population_live_devices": 256})
    session.run()
    registry = session.algorithm.pool.registry
    # 100k workers / shard_size 4096 ~ 25 shards; the rounds touch at most
    # one per candidate (plus none eagerly).
    assert registry.built_label_shards <= 8 * 2


def test_plan_candidates_is_pure_in_round_index():
    session = _session()
    pool = session.algorithm.pool
    first = pool.plan_candidates(5)
    second = pool.plan_candidates(5)
    other = pool.plan_candidates(6)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)
    assert first.shape == (8,)
    assert np.array_equal(first, np.sort(first))
