"""The round's traffic charge, one pass over the cohort, pinned with ``==``.

``RoundEngine._charge_traffic`` used to call the meter once per worker;
it now hands the meter one array per category, which folds it with
``np.add.accumulate``.  The reference below is that per-worker loop.  The
amounts include a cohort where the pairwise ``np.sum`` rounds differently
from the sequential sum, so a meter that summed pairwise would fail here.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core.controller import RoundPlan
from repro.core.round_engine import RoundEngine
from repro.simulation.traffic import TrafficMeter


def _reference_charge(meter, plan, costs, iterations, aggregations):
    """The per-worker charge loop the one-pass charge replaced."""
    __, exchange, model_bytes = costs
    for worker_id, worker_exchange, worker_model_bytes in zip(
        plan.selected, exchange, model_bytes
    ):
        meter.add_feature_exchange(
            iterations * plan.batch_sizes[worker_id] * worker_exchange
        )
        meter.add_model_exchange(worker_model_bytes * aggregations)


def _charge(plan, costs, iterations, aggregations, start):
    """``_charge_traffic`` on a stub engine whose meter starts at ``start``."""
    engine = SimpleNamespace(
        config=SimpleNamespace(local_iterations=iterations),
        _aggregations=aggregations,
        traffic=TrafficMeter(),
    )
    engine.traffic.load_state_dict({"bytes": start})
    RoundEngine._charge_traffic(engine, plan, costs)
    return engine.traffic.breakdown()


def _expected(plan, costs, iterations, aggregations, start):
    meter = TrafficMeter()
    meter.load_state_dict({"bytes": start})
    _reference_charge(meter, plan, costs, iterations, aggregations)
    return meter.breakdown()


def _plan(batches):
    ids = list(range(3, 3 + len(batches)))
    return RoundPlan(selected=ids, batch_sizes=dict(zip(ids, batches)))


def test_an_ill_conditioned_cohort_is_summed_in_worker_order():
    """One huge exchange, then many small ones: the sequential sum drops
    every small amount, the pairwise one keeps some of them."""
    count = 257
    batches = [1] * count
    exchange = np.array([2.0 ** 54] + [1.0] * (count - 1))
    model_bytes = np.array([3.0 ** 33] + [0.75] * (count - 1))
    costs = (np.ones(count), exchange, model_bytes)
    start = {"feature": 0.0, "gradient": 0.0, "model": 0.0, "control": 0.0}
    got = _charge(_plan(batches), costs, 1, 1, start)
    expected = _expected(_plan(batches), costs, 1, 1, start)
    assert got == expected
    # The inputs tell the two sums apart: ``np.sum`` would not pass.
    assert float(np.sum(exchange / 2.0)) != expected["feature"]
    assert float(np.sum(2.0 * model_bytes)) != expected["model"]


@pytest.mark.parametrize("integer_bytes", [True, False])
@pytest.mark.parametrize("aggregations", [1, 5])
def test_random_cohorts_charge_what_the_loop_charged(integer_bytes, aggregations):
    rng = np.random.default_rng(11 + aggregations)
    for __ in range(20):
        count = int(rng.integers(1, 600))
        batches = rng.integers(1, 33, size=count).tolist()
        exchange = rng.integers(64, 1 << 16, size=count)
        model_bytes = rng.integers(1 << 10, 1 << 22, size=count)
        if not integer_bytes:
            exchange, model_bytes = exchange * 0.26, model_bytes * 0.63
        costs = (np.ones(count), exchange, model_bytes)
        start = {
            category: float(rng.uniform(0, 1e12))
            for category in TrafficMeter.CATEGORIES
        }
        got = _charge(_plan(batches), costs, 5, aggregations, start)
        assert got == _expected(_plan(batches), costs, 5, aggregations, start)


@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_an_engines_round_charge_is_the_loops(algorithm):
    config = ExperimentConfig(
        algorithm=algorithm, dataset="blobs", model="mlp", num_workers=40,
        num_rounds=1, local_iterations=3, train_samples=800, test_samples=40,
        max_batch_size=16, base_batch_size=8, non_iid_level=5, seed=8,
    )
    with Session.from_config(config) as session:
        engine = session.algorithm
        session.run(1)
        plan = engine._plan_round(1)
        costs = engine._cohort_costs(plan)
        start = engine.traffic.breakdown()
        expected = _expected(
            plan, costs, config.local_iterations, engine._aggregations, start
        )
        engine._charge_traffic(plan, costs)
        assert engine.traffic.breakdown() == expected


def test_the_meter_still_rejects_negative_traffic():
    meter = TrafficMeter()
    with pytest.raises(ValueError, match="non-negative"):
        meter.add("feature", np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        meter.add("model", -2.0)
    assert meter.total_bytes == 0.0
