"""Sharded, lazily-materialized worker populations.

This package decouples the *registered* population (compact metadata rows
in a :class:`~repro.population.registry.WorkerRegistry`) from the *live*
workers a round actually trains (rebuilt on demand by a
:class:`~repro.population.materializer.Materializer` and bounded by the
selected cohort).  The engines consume either through the
:class:`~repro.population.pool.WorkerPool` interface; ``config.population``
selects ``"eager"`` (today's worker list, the default) or ``"lazy"``
(registry + materializer, bit-exact with eager and scalable to millions of
registered workers).
"""

from repro.population.materializer import Materializer, WORKER_SEED_OFFSET
from repro.population.pool import (
    CANDIDATE_SEED_OFFSET,
    EagerWorkerPool,
    LazyWorkerPool,
    WorkerPool,
    as_worker_pool,
)
from repro.population.registry import (
    PartitionShards,
    SampledShards,
    ShardSource,
    WorkerRegistry,
    sample_distinct,
)

__all__ = [
    "CANDIDATE_SEED_OFFSET",
    "EagerWorkerPool",
    "LazyWorkerPool",
    "Materializer",
    "PartitionShards",
    "SampledShards",
    "ShardSource",
    "WORKER_SEED_OFFSET",
    "WorkerPool",
    "WorkerRegistry",
    "as_worker_pool",
    "sample_distinct",
]
