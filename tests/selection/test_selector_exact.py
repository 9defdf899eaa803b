"""``config.selector`` does not perturb the default trajectory.

``selector="ga"`` must be indistinguishable from a config that never
mentions selection solvers: identical history records and final weights
across both split engines and every executor, and checkpoints that keep their historical format (no ``selection`` key).  The
stateful ``ga-warm`` solver must survive checkpoint/resume bit-exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS

EXECUTORS = ("serial", "batched", "process")
ALGORITHMS = ("mergesfl", "splitfed")


def _config(executor: str, algorithm: str, **overrides) -> ExperimentConfig:
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
        executor=executor,
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


_REFERENCES: dict[str, tuple] = {}


def _reference(algorithm: str):
    """A serial run whose config never mentions selection solvers."""
    if algorithm not in _REFERENCES:
        _REFERENCES[algorithm] = _run(_config("serial", algorithm))
    return _REFERENCES[algorithm]


def _assert_bit_equal(reference, candidate, label: str) -> None:
    ref_records, ref_state = reference
    records, state = candidate
    assert len(records) == len(ref_records)
    for ref_record, record in zip(ref_records, records):
        ref_dict = {k: v for k, v in dataclasses.asdict(ref_record).items()
                    if k not in WIRE_FIELDS}
        dict_ = {k: v for k, v in dataclasses.asdict(record).items()
                 if k not in WIRE_FIELDS}
        assert dict_ == ref_dict, label
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"{label}: {key}"


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ga_selector_matches_default_everywhere(algorithm, executor):
    """An explicit ``selector="ga"`` run is the default run, bit for bit."""
    candidate = _run(_config(executor, algorithm, selector="ga"))
    _assert_bit_equal(
        _reference(algorithm), candidate, f"{algorithm}/{executor}/ga",
    )


def test_default_checkpoint_keeps_historical_format():
    """Stateless solvers (the default) add no checkpoint key."""
    with Session.from_config(_config("serial", "mergesfl",
                                     selector="ga")) as session:
        session.run(1)
        state = session.state_dict()
    assert "selection" not in state["algorithm"]


def test_warm_solver_state_is_checkpointed():
    with Session.from_config(_config("serial", "mergesfl",
                                     selector="ga-warm")) as session:
        session.run(2)
        state = session.state_dict()
    selection = state["algorithm"]["selection"]
    assert selection["previous"] is not None
    assert selection["previous"] == sorted(selection["previous"])


def test_warm_solver_checkpoint_resume_is_bit_exact(tmp_path):
    """ga-warm: 1 round + save + resume 2 == 3 rounds straight."""
    config = _config("serial", "mergesfl", selector="ga-warm")
    straight = _run(config)

    path = tmp_path / "warm.ckpt.json"
    with Session.from_config(config) as session:
        session.run(1)
        session.save_checkpoint(path)
    with Session.load_checkpoint(path) as resumed:
        resumed.run()
        candidate = (resumed.history.records,
                     resumed.global_model().state_dict())
    _assert_bit_equal(straight, candidate, "warm-resume")


@pytest.mark.parametrize("selector", ["ga-warm", "local-search", "greedy"])
def test_alternative_selectors_run_and_are_deterministic(selector):
    config = _config("serial", "mergesfl", selector=selector)
    first = _run(config)
    second = _run(config)
    _assert_bit_equal(first, second, f"determinism/{selector}")
    records, __ = first
    assert all(np.isfinite(record.merged_kl) for record in records)
    assert all(record.num_selected >= 1 for record in records)


def test_warm_solver_state_is_remapped_across_candidate_pools():
    """Warm state is keyed on global ids, so per-round candidate pools
    (different subsets each round) remap it instead of corrupting it."""
    config = _config(
        "serial", "mergesfl",
        selector="ga-warm", num_workers=12, num_rounds=4,
        population_candidates=6,
    )
    with Session.from_config(config) as session:
        session.run()
        state = session.state_dict()
        records = session.history.records
    previous = state["algorithm"]["selection"]["previous"]
    assert previous and all(0 <= worker < 12 for worker in previous)
    assert all(record.num_selected >= 1 for record in records)

