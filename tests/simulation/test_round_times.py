"""The one round-time model, pinned bit for bit to the formulas it replaced.

``round_times`` took over from two copies of the same sum: the round
engine's per-worker device loop and the split-point policies' cost.  Both
are kept here as references, and every comparison is ``==`` on the bytes,
not ``approx``: the simulated clock, the churn draw and the adaptive
policy's slowdown signal all read these times, so one ulp would move a
golden.
"""

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.simulation.cluster import build_cluster
from repro.simulation.timing import round_times

#: Candidate cut depths of the random cohorts, with the cost tables a
#: split engine would hold for them.
DEPTHS = (1, 2, 3)
MAX_BATCH = 32


def _reference_worker_durations(
    cluster, selected, batch_sizes, costs, iterations, aggregations
):
    """The round engine's per-worker loop before ``round_times``; ``costs``
    maps a worker to its ``(flops, exchange bytes, model bytes)``."""
    model_moves = 2 * aggregations
    durations = []
    for worker_id in selected:
        device = cluster[worker_id]
        flops, exchange, model_bytes = costs[worker_id]
        mu = device.compute_time_per_sample(flops)
        beta = device.comm_time_per_sample(exchange)
        compute_comm = iterations * batch_sizes[worker_id] * (mu + beta)
        durations.append(
            compute_comm + model_moves * device.model_transfer_time(model_bytes)
        )
    return np.asarray(durations)


def _reference_round_cost(depth_cost, move_cost, batch, iterations, aggregations):
    """The split-point policies' cost before ``round_times``."""
    return iterations * batch * depth_cost + 2.0 * aggregations * move_cost


def _depth_tables(rng, integer_bytes):
    """Per-depth ``(flops, exchange bytes, model bytes)``: raw byte counts
    are ints, a codec's encoded sizes floats."""
    tables = {}
    for depth in DEPTHS:
        exchange = int(rng.integers(64, 1 << 16))
        model = int(rng.integers(1 << 10, 1 << 22))
        if not integer_bytes:
            exchange, model = exchange * 0.26, model * 0.63
        tables[depth] = (float(rng.uniform(1e4, 1e8)), exchange, model)
    return tables


def _cohort(seed, integer_bytes):
    rng = np.random.default_rng(seed)
    cluster = build_cluster(num_workers=40, bandwidth_budget_mbps=80, seed=seed)
    cluster.advance_round(int(rng.integers(0, 30)))
    selected = [int(w) for w in rng.choice(40, size=int(rng.integers(1, 25)),
                                           replace=False)]
    batch_sizes = {w: int(rng.integers(1, MAX_BATCH + 1)) for w in selected}
    tables = _depth_tables(rng, integer_bytes)
    costs = {w: tables[DEPTHS[int(rng.integers(len(DEPTHS)))]] for w in selected}
    return cluster, selected, batch_sizes, costs


@pytest.mark.parametrize("integer_bytes", [True, False])
@pytest.mark.parametrize("tau", [1, 5])
@pytest.mark.parametrize("every_iteration", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_cohort_durations_equal_the_engine_loop(
    seed, tau, every_iteration, integer_bytes
):
    aggregations = tau if every_iteration else 1
    cluster, selected, batch_sizes, costs = _cohort(seed, integer_bytes)
    expected = _reference_worker_durations(
        cluster, selected, batch_sizes, costs, tau, aggregations
    )
    flops, exchange, model_bytes = (
        np.asarray([costs[w][part] for w in selected]) for part in range(3)
    )
    mus, betas, moves = cluster.per_sample_times(
        selected, flops, exchange, model_bytes
    )
    regulated, fixed = round_times(
        mus + betas, moves, np.array([batch_sizes[w] for w in selected]),
        tau, aggregations,
    )
    durations = regulated + fixed
    assert durations.dtype == expected.dtype
    assert durations.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tau", [1, 5])
@pytest.mark.parametrize("every_iteration", [False, True])
def test_scalar_costs_equal_the_policy_cost(tau, every_iteration):
    aggregations = tau if every_iteration else 1
    rng = np.random.default_rng(tau + 10 * every_iteration)
    for __ in range(2000):
        per_sample = float(rng.uniform(0, 1e-2)) + float(rng.uniform(0, 1e-3))
        move = float(rng.uniform(0, 5.0))
        batch = int(rng.integers(1, MAX_BATCH + 1))
        regulated, fixed = round_times(per_sample, move, batch, tau, aggregations)
        assert regulated + fixed == _reference_round_cost(
            per_sample, move, batch, tau, aggregations
        )


def _reference_costs(engine, plan):
    """Each worker's costs as the engines' per-worker hook read them."""
    if not hasattr(engine, "_depth_flops"):  # the full-model engine
        return dict.fromkeys(
            plan.selected, (engine.full_flops, 0, engine.model_bytes)
        )
    costs = {}
    for worker_id in plan.selected:
        depth = engine._cut_depth(plan, worker_id)
        costs[worker_id] = (
            engine._depth_flops[depth],
            engine._depth_exchange_bytes[depth],
            engine._depth_model_bytes[depth],
        )
    return costs


@pytest.mark.parametrize(
    "algorithm, split_policy",
    [("mergesfl", "adaptive"), ("splitfed", "profile"), ("fedavg", "uniform")],
)
def test_engine_durations_equal_the_engine_loop(algorithm, split_policy):
    # The engine's own cohort costs and durations, at mixed cut depths
    # where a policy assigns them.
    config = ExperimentConfig(
        dataset="har", model="cnn_h", algorithm=algorithm,
        split_policy=split_policy, num_workers=8, num_rounds=1,
        local_iterations=3, train_samples=240, test_samples=40,
        max_batch_size=16, base_batch_size=8, seed=4,
    )
    with Session.from_config(config) as session:
        engine = session.algorithm
        plan = engine._plan_round(0)
        costs = engine._cohort_costs(plan)
        durations = engine._worker_durations(plan, costs)
        expected = _reference_worker_durations(
            engine.cluster, plan.selected, plan.batch_sizes,
            _reference_costs(engine, plan), config.local_iterations,
            engine._aggregations,
        )
    assert durations.tobytes() == expected.tobytes()
