"""The one worker pool: built workers stay live, candidate pools, and
hand-built worker lists."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.components import build_algorithm, build_components
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.population import WorkerPool


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="mergesfl", dataset="blobs", model="mlp", num_workers=12,
        num_rounds=4, local_iterations=2, non_iid_level=2.0,
        max_batch_size=16, base_batch_size=8, train_samples=480,
        test_samples=64, learning_rate=0.1, seed=5,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _hand_built(config: ExperimentConfig):
    """The config's components with its pool replaced by a worker list."""
    components = build_components(config)
    workers = [components.pool.materializer.build(worker_id)
               for worker_id in range(config.num_workers)]
    return dataclasses.replace(components, pool=WorkerPool.of_workers(workers))


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


def test_a_pool_keeps_every_materialised_worker():
    with Session.from_config(_config()) as session:
        session.run(2)
        pool = session.algorithm.pool
        selected = {i for record in session.history.records
                    for i in record.selected_ids}
        assert pool.live_worker_count() == len(selected)
        assert pool.materializer.materializations == len(selected)
        workers = session.components.workers
        assert [worker.worker_id for worker in workers] == list(range(12))
        assert session.components.workers[3] is workers[3]


def test_release_folds_workers_into_their_rows_and_the_run_goes_on():
    """``release`` is the explicit fold-and-drop: the next checkout builds
    the workers again from their rows, and the run continues as if they
    had stayed live."""
    reference = Session.from_config(_config())
    reference.run()

    with Session.from_config(_config()) as session:
        session.run(2)
        pool = session.algorithm.pool
        ids = sorted({i for record in session.history.records
                      for i in record.selected_ids})
        workers = pool.checkout(ids)
        counts = [worker.participation_count for worker in workers]
        built = pool.stats()["materializations"]
        pool.release(workers)
        assert pool.live_worker_count() == 0
        rebuilt = pool.checkout(ids)
        assert not any(a is b for a, b in zip(rebuilt, workers))
        assert [worker.participation_count for worker in rebuilt] == counts
        assert pool.stats()["materializations"] == built + len(ids)
        session.run(2)
        for record, expected in zip(session.history.records,
                                    reference.history.records):
            assert dataclasses.asdict(record) == dataclasses.asdict(expected)


def test_a_run_spelled_lazy_keeps_its_cohort_live():
    """``population="lazy"`` only loads: the cohort is not evicted at round
    end, and the pool still lists every worker."""
    with Session.from_config(_config(population="lazy")) as session:
        session.run(1)
        cohort = session.history.records[0].selected_ids
        assert session.algorithm.pool.live_worker_count() == len(cohort) > 0
        assert len(session.components.workers) == 12


def test_candidate_pool_restricts_selection_deterministically():
    """With a candidate pool the trajectory is its own (a different planning
    scope), but it must be deterministic and select within the pool."""
    records_a, state_a = _run(_config(num_workers=40, population_candidates=8))
    records_b, state_b = _run(_config(num_workers=40, population_candidates=8))
    for a, b in zip(records_a, records_b):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key])
    for record in records_a:
        assert len(record.selected_ids) <= 8


def test_a_worker_list_is_a_resident_pool_live_from_the_start():
    components = build_components(_config())
    workers = [components.pool.materializer.build(worker_id)
               for worker_id in range(12)]
    pool = WorkerPool.of_workers(workers)
    assert pool.live_worker_count() == 12
    assert pool.checkout([4, 1]) == [workers[4], workers[1]]
    pool.release(workers)
    assert pool.workers == workers
    # Its label rows are the workers' own, bit for bit.
    expected = np.stack([w.local_label_distribution() for w in workers])
    assert pool.label_distributions().tobytes() == expected.tobytes()
    assert pool.label_distributions().tobytes() == (
        components.pool.label_distributions().tobytes())


def test_a_worker_list_needs_ids_that_are_its_positions():
    components = build_components(_config())
    workers = [components.pool.materializer.build(i) for i in (0, 2)]
    with pytest.raises(ValueError, match="position 1 has worker_id 2"):
        WorkerPool.of_workers(workers)
    with pytest.raises(ValueError, match="at least one worker"):
        WorkerPool.of_workers([])


def test_a_hand_built_pool_trains_and_resumes_like_the_built_one():
    """A worker list runs the configured trajectory, and a checkpoint
    resets the hand-built workers it holds no row for."""
    reference = Session.from_config(_config())
    reference.run()

    saved = Session.from_config(_config())
    saved.run(2)
    state = saved.algorithm.state_dict()
    rows = state["workers"]["registry"]["loaders"]

    hand = build_algorithm(_hand_built(_config()))
    hand.run(3)   # dirty the workers past the checkpoint
    dirty = {i for record in hand.history.records[2:] for i in record.selected_ids}
    assert dirty - {int(i) for i in rows}, "no worker is reset; vacuous"
    hand.load_state_dict(state)
    hand.run(2)
    for record, expected in zip(hand.history.records, reference.history.records):
        assert dataclasses.asdict(record) == dataclasses.asdict(expected)
