"""Sharded, on-demand worker populations.

This package decouples the *registered* population (compact metadata rows
in a :class:`~repro.population.registry.WorkerRegistry`) from the *live*
workers a round actually trains (built on demand by a
:class:`~repro.population.materializer.Materializer`).  The engines plan
and train through one :class:`~repro.population.pool.WorkerPool`, which
builds a worker the first time a round selects it and keeps it live:
live state grows with the distinct participants, not the registered
population, which may run to millions of rows.
"""

from repro.population.materializer import Materializer, WORKER_SEED_OFFSET
from repro.population.pool import CANDIDATE_SEED_OFFSET, WorkerPool
from repro.population.registry import (
    PartitionShards,
    SampledShards,
    ShardSource,
    WorkerRegistry,
    sample_distinct,
)

__all__ = [
    "CANDIDATE_SEED_OFFSET",
    "Materializer",
    "PartitionShards",
    "SampledShards",
    "ShardSource",
    "WORKER_SEED_OFFSET",
    "WorkerPool",
    "WorkerRegistry",
    "sample_distinct",
]
