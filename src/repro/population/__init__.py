"""Sharded, on-demand worker populations.

This package decouples the *registered* population (compact metadata rows
in a :class:`~repro.population.registry.WorkerRegistry`) from the *live*
workers a round actually trains (built on demand by a
:class:`~repro.population.materializer.Materializer`).  The engines plan
and train through one :class:`~repro.population.pool.WorkerPool`;
``config.population`` only says whether a materialised worker stays
resident (``"eager"``, the default) or is evicted at round end
(``"lazy"``: live state bounded by the cohort, scalable to millions of
registered workers).  Both train bit-identically and share one checkpoint
format.
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
