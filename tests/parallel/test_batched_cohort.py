"""A fleet-shaped cohort on the batched executor is the serial run, bit for bit.

The batched executor draws a shape group's round with one cohort draw,
hands its features to the server as one array and reads each group's
gradients back with one ``take``.  These sessions have the ``fleet_mlp``
benchmark's shape at a smaller scale -- blobs + MLP, shards of ~20
samples on average (most reshuffle every round), regulated batch sizes --
at the global cut and at two cut depths, and every record, the global
model and every worker's loader state must equal the serial executor's.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS

FLEET = dict(
    algorithm="mergesfl", dataset="blobs", model="mlp", non_iid_level=5,
    num_workers=60, local_iterations=5, train_samples=1200, test_samples=60,
    learning_rate=0.05, max_batch_size=16, base_batch_size=8, num_rounds=3,
    seed=21,
)
#: A deeper bottom (two Linear layers) offers the cut depths [2, 4]; the
#: adaptive policy assigns both.
TWO_DEPTHS = dict(split_policy="adaptive", extras={"split_index": 4})


def _run(**overrides):
    depths: set[int] = set()
    config = ExperimentConfig(**{**FLEET, **overrides})
    with Session.from_config(config) as session:
        engine = session.algorithm
        assign = engine._assign_depths

        def recording(round_index, plan):
            plan = assign(round_index, plan)
            depths.update(plan.depths.values())
            return plan

        engine._assign_depths = recording
        session.run()
        records = [
            {key: value for key, value in dataclasses.asdict(record).items()
             if key not in WIRE_FIELDS}
            for record in session.history.records
        ]
        loaders = {
            worker.worker_id: worker.loader.state_dict()
            for worker in engine.pool.workers
        }
        return records, session.global_model().state_dict(), loaders, depths


def _assert_same(candidate, reference):
    assert candidate[0] == reference[0]
    assert set(candidate[1]) == set(reference[1])
    for key in reference[1]:
        assert candidate[1][key].tobytes() == reference[1][key].tobytes(), key
    assert set(candidate[2]) == set(reference[2])
    for worker_id, state in reference[2].items():
        got = candidate[2][worker_id]
        assert got["rng"] == state["rng"]
        assert got["order"].tobytes() == state["order"].tobytes()
        assert got["cursor"] == state["cursor"]


@pytest.mark.parametrize("knobs", [{}, TWO_DEPTHS], ids=["global-cut", "two-depths"])
def test_batched_fleet_round_is_the_serial_round(knobs):
    batched = _run(executor="batched", **knobs)
    serial = _run(executor="serial", **knobs)
    _assert_same(batched, serial)
    records = serial[0]
    # Regulation moved batch sizes off the base size: the cohort stacked
    # into shape groups by regulated size, not into one.
    assert any(
        record["total_batch"] != 8 * record["num_selected"] for record in records
    )
    if knobs:
        assert serial[3] == {2, 4}


def test_a_fleet_round_reshuffles_most_loaders():
    """The shards are small enough that a round's five batches walk past
    the end of most selected workers' orders: the draw exercises the
    reshuffle on most workers it touches."""
    config = ExperimentConfig(**{**FLEET, "executor": "batched", "num_rounds": 1})
    with Session.from_config(config) as session:
        pool = session.algorithm.pool
        before = {
            worker.worker_id: worker.loader.state_dict()["rng"]
            for worker in pool.workers
        }
        session.run()
        selected = session.history.records[0].selected_ids
        reshuffled = [
            worker.loader.state_dict()["rng"] != before[worker.worker_id]
            for worker in pool.checkout(selected)
        ]
        assert len(selected) > 10
        assert sum(reshuffled) > len(selected) / 2
