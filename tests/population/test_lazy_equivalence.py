"""Evicting-vs-resident bit-exactness across algorithms, executors and
schedulers.

``population`` is a residency choice, not a different algorithm: a pool
that evicts its cohort at round end (``"lazy"``) must produce the
bit-identical history records and final weights of one that keeps every
worker resident (``"eager"``).  The only record fields allowed to differ
are the wire fields, which measure the execution topology.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS

#: Executors the lazy path must match the eager reference on.
EXECUTORS = ("serial", "batched", "process")


def _config(population: str, algorithm: str, **overrides) -> ExperimentConfig:
    params = dict(
        algorithm=algorithm,
        dataset="blobs",
        model="mlp",
        num_workers=5,
        num_rounds=3,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=300,
        test_samples=80,
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        seed=3,
        population=population,
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


_REFERENCES: dict[str, tuple] = {}


def _eager_reference(algorithm: str):
    if algorithm not in _REFERENCES:
        _REFERENCES[algorithm] = _run(_config("eager", algorithm))
    return _REFERENCES[algorithm]


def _assert_bit_equal(reference, candidate, label: str) -> None:
    ref_records, ref_state = reference
    records, state = candidate
    assert len(records) == len(ref_records), label
    for ref_record, record in zip(ref_records, records):
        ref_dict = {k: v for k, v in dataclasses.asdict(ref_record).items()
                    if k not in WIRE_FIELDS}
        got = {k: v for k, v in dataclasses.asdict(record).items()
               if k not in WIRE_FIELDS}
        assert got == ref_dict, label
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"{label}: {key}"


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_lazy_matches_eager(algorithm, executor):
    reference = _eager_reference(algorithm)
    candidate = _run(_config("lazy", algorithm, executor=executor))
    _assert_bit_equal(reference, candidate, f"{algorithm}/lazy/{executor}")


def test_lazy_without_cache_matches_eager():
    """A config written when the lazy pool had a delta cache, with the cache
    switched off, still loads and runs the eager trajectory."""
    payload = dict(_config("lazy", "mergesfl").to_dict(), population_cache=0)
    candidate = _run(ExperimentConfig.from_dict(payload))
    _assert_bit_equal(
        _eager_reference("mergesfl"), candidate, "mergesfl/lazy/no-cache"
    )


def test_selected_ids_recorded_and_identical():
    ref_records, _ = _eager_reference("mergesfl")
    lazy_records, _ = _run(_config("lazy", "mergesfl"))
    for ref_record, record in zip(ref_records, lazy_records):
        assert record.selected_ids == ref_record.selected_ids
        assert len(record.selected_ids) == record.num_selected


def test_candidate_pool_restricts_selection_deterministically():
    """With a candidate pool the trajectory is its own (a different planning
    scope), but it must be deterministic and select within the pool."""
    config = _config("lazy", "mergesfl", num_workers=40,
                     population_candidates=8)
    records_a, state_a = _run(config)
    records_b, state_b = _run(_config("lazy", "mergesfl", num_workers=40,
                                      population_candidates=8))
    for a, b in zip(records_a, records_b):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key])
    for record in records_a:
        assert len(record.selected_ids) <= 8


def test_eager_with_candidates_is_rejected():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError, match="population_candidates"):
        _config("eager", "mergesfl", population_candidates=8)
