"""Simulate a 100,000-worker fleet on a laptop.

Every experiment registers its workers as compact metadata rows in a
sharded registry (:mod:`repro.population`) and materialises a live worker
the first time a round selects it, keeping it live from then on.  Data
shards are drawn lazily from per-worker RNG streams and every worker
starts the round from the installed global model, so memory tracks the
distinct participants -- a few hundred over eight rounds of a 64-worker
candidate pool -- not the registered population.

Usage::

    python examples/population_scale.py               # 100k workers, ~1.5 s
    POPULATION_WORKERS=1000000 python examples/population_scale.py
"""

import os
import time

from repro import ExperimentConfig
from repro.api.session import Session
from repro.experiments.reporting import format_table
from repro.metrics.summary import participation_summary


def main() -> None:
    num_workers = int(os.environ.get("POPULATION_WORKERS") or "100000")
    config = ExperimentConfig(
        dataset="blobs",
        model="mlp",
        algorithm="mergesfl",
        num_workers=num_workers,
        num_rounds=8,
        local_iterations=2,
        max_batch_size=32,
        base_batch_size=16,
        selection_fraction=0.25,
        bandwidth_budget_mbps=40.0,
        # Plan each round over a 64-worker candidate pool.
        population_candidates=64,
        seed=7,
        extras={
            # Shards are sampled from per-worker RNG streams (O(1) in the
            # population); partitioning a small train set over 100k workers
            # would yield empty shards.
            "population_sharding": "sampled",
            "auto_budget": False,
            "population_live_devices": 4096,
        },
    )

    print(f"registering {num_workers:,} workers ...")
    start = time.perf_counter()
    session = Session(config)
    print(f"  built in {time.perf_counter() - start:.3f}s "
          "(rows, not worker objects)")

    start = time.perf_counter()
    session.run()
    elapsed = time.perf_counter() - start

    pool = session.algorithm.pool
    stats = pool.stats()
    participation = participation_summary(session.history)
    rows = [
        ["registered workers", f"{stats['registered']:,}"],
        ["rounds", str(config.num_rounds)],
        ["wall-clock / round", f"{elapsed / config.num_rounds:.3f}s"],
        ["live workers", str(stats["live"])],
        ["distinct participants", str(participation["distinct_workers"])],
        ["mean cohort", f"{participation['mean_cohort']:.1f}"],
        ["final accuracy", f"{session.history.records[-1].test_accuracy:.3f}"],
    ]
    print()
    print(format_table(["metric", "value"], rows,
                       title=f"Population of {num_workers:,} workers"))


if __name__ == "__main__":
    main()
