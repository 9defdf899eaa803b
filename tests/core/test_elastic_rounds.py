"""Elastic rounds end to end: neutrality, dropout, rejoin, death recovery.

Every round runs the churn controller.  The contract, in increasing
strength:

* at the knobs' defaults it is the seed behaviour (pinned by the whole
  existing suite), and knobs that cannot fire while nobody goes missing
  (a rejoin bound, a full quorum) leave every record column bit-exact;
* real dropout is a *different*, deterministic trajectory whose final
  accuracy stays within a pinned epsilon of the exact run (the staleness
  suite's convergence-regression pattern);
* a round losing every worker yields no model update but the session
  survives; late workers rejoin within ``rejoin_staleness_bound``;
* a dead executor process is recovered at the engine level: the round is
  re-planned with the survivors (or skipped below quorum) instead of
  failing the run;
* elastic runs checkpoint/resume bit-exactly, pending rejoins included.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.exceptions import ExecutorDeathError
from repro.metrics.summary import (
    mean_dropout_rate,
    mean_effective_cohort,
    schedule_divergence,
)
from repro.parallel.serial import SerialExecutor

#: Pinned tolerance of the dropout convergence regression: dropout 0.3 with
#: over-selection 1.25 may cost at most this much final accuracy on the
#: seed config below.  Measured headroom on this container: 0.0.
CONVERGENCE_EPSILON = 0.05

#: Knobs away from their defaults that still cannot fire while nobody
#: drops, straggles or is over-selected.
NEUTRAL_KNOBS = dict(rejoin_staleness_bound=2, min_cohort_fraction=1.0)


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="mergesfl",
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
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _rotating_config(**overrides) -> ExperimentConfig:
    """A rotating-cohort population: candidate pools make rejoins real."""
    params = dict(
        num_workers=12,
        num_rounds=6,
        population_candidates=5,
        dropout_rate=0.4,
        over_select_factor=1.5,
        rejoin_staleness_bound=3,
    )
    params.update(overrides)
    return _config(**params)


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        history = session.run()
        return (
            [dataclasses.asdict(record) for record in history.records],
            session.global_model().state_dict(),
        )


def _completed(record: dict) -> set[int]:
    """Whose update arrived in time: the planned cohort minus the missing."""
    return set(record["selected_ids"]) - set(record["dropped_ids"])


def _assert_bit_equal(reference, candidate, label):
    # Wire-traffic fields measure the execution topology, not the training
    # trajectory, so cross-executor comparisons strip them.
    from repro.metrics.history import WIRE_FIELDS

    ref_records, ref_state = reference
    records, state = candidate
    assert len(records) == len(ref_records), label
    for ref_record, record in zip(ref_records, records):
        stripped_ref = {k: v for k, v in ref_record.items() if k not in WIRE_FIELDS}
        stripped = {k: v for k, v in record.items() if k not in WIRE_FIELDS}
        assert stripped == stripped_ref, label
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"{label}: {key}"


# -- neutrality ----------------------------------------------------------------

class TestNeutralElasticity:
    @pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
    def test_neutral_knobs_are_bit_exact_serial(self, algorithm):
        reference = _run(_config(algorithm=algorithm))
        candidate = _run(_config(algorithm=algorithm, **NEUTRAL_KNOBS))
        _assert_bit_equal(reference, candidate, f"{algorithm}/neutral-knobs")

    def test_neutral_knobs_are_bit_exact_on_process_executor(self):
        reference = _run(_config(executor="process"))
        candidate = _run(_config(executor="process", **NEUTRAL_KNOBS))
        _assert_bit_equal(reference, candidate, "process/neutral-knobs")

    def test_neutral_knobs_are_bit_exact_with_a_candidate_pool(self):
        base = dict(num_workers=12, num_rounds=4, population_candidates=5)
        reference = _run(_config(**base))
        candidate = _run(_config(**NEUTRAL_KNOBS, **base))
        _assert_bit_equal(reference, candidate, "candidates/neutral-knobs")

    def test_default_records_carry_the_whole_cohort(self):
        records, __ = _run(_config())
        for record in records:
            assert record["effective_cohort"] == record["num_selected"]
            assert record["dropped_ids"] == []
            assert record["dropout_rate"] == 0.0
            assert "completed_ids" not in record


# -- lossy modes ---------------------------------------------------------------

class TestDropout:
    def test_dropout_is_deterministic(self):
        config = _config(dropout_rate=0.3, over_select_factor=1.25)
        _assert_bit_equal(_run(config), _run(config), "dropout-determinism")

    def test_dropout_actually_drops_and_filters_the_aggregate(self):
        records, __ = _run(_config(dropout_rate=0.4, num_rounds=4))
        assert any(record["dropped_ids"] for record in records)
        quorum = 3  # ceil(0.5 * 5)
        for record in records:
            assert set(record["dropped_ids"]) <= set(record["selected_ids"])
            completed = len(_completed(record))
            assert record["effective_cohort"] == (
                completed if completed >= quorum else 0
            )

    @pytest.mark.parametrize("algorithm, aggregated", [
        ("mergesfl", lambda engine: engine.server.global_bottom),
        ("fedavg", lambda engine: engine.model),
    ], ids=["mergesfl", "fedavg"])
    def test_a_quorum_miss_records_no_update(self, algorithm, aggregated):
        """Regression: below the quorum the record took the completed
        count although the aggregate was never applied."""
        config = _config(
            algorithm=algorithm, dropout_rate=0.3, min_cohort_fraction=1.0,
        )
        with Session.from_config(config) as session:
            model = aggregated(session.algorithm)
            before = model.state_dict()
            history = session.run()
            after = model.state_dict()
        assert all(record.dropped_ids for record in history.records)
        assert all(record.effective_cohort == 0 for record in history.records)
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    def test_a_quorum_miss_still_trains_the_top_model(self):
        """What a split round's zero ``effective_cohort`` does not say:
        the top model trains every iteration on the whole cohort's merged
        features; only the bottom aggregate is skipped."""
        config = _config(dropout_rate=0.3, min_cohort_fraction=1.0)
        with Session.from_config(config) as session:
            top = session.algorithm.server.top
            before = top.state_dict()
            history = session.run()
            after = top.state_dict()
        assert all(record.effective_cohort == 0 for record in history.records)
        assert any(not np.array_equal(before[key], after[key]) for key in before)

    @pytest.mark.parametrize("algorithm", ["mergesfl", "fedavg"])
    def test_dropout_converges_within_epsilon(self, algorithm):
        def seed_config(**overrides):
            return _config(
                algorithm=algorithm, num_rounds=4, non_iid_level=10.0,
                train_samples=200, test_samples=100, learning_rate=0.02,
                lr_decay=0.97, seed=11, **overrides,
            )

        with Session.from_config(seed_config()) as session:
            exact = session.run()
        with Session.from_config(seed_config(
            dropout_rate=0.3, over_select_factor=1.25,
        )) as session:
            lossy = session.run()
        assert mean_dropout_rate(lossy) > 0.0  # churn active
        divergence = schedule_divergence(lossy, exact)
        assert divergence["final"] <= CONVERGENCE_EPSILON
        assert divergence["max"] <= 2 * CONVERGENCE_EPSILON

    def test_straggler_deadline_shortens_rounds(self):
        base, __ = _run(_config())
        capped, __ = _run(_config(straggler_deadline=1.1))
        assert sum(r["duration"] for r in capped) < sum(
            r["duration"] for r in base
        )
        for record in capped:
            assert record["duration"] <= max(r["duration"] for r in base)


class TestTotalDropout:
    """Every selected worker drops: no update, but the session survives."""

    @pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed"])
    def test_split_round_survives_losing_everyone(self, algorithm):
        config = _config(algorithm=algorithm, dropout_rate=1.0, num_rounds=2)
        with Session.from_config(config) as session:
            engine = session.algorithm
            before = {
                key: value.copy() for key, value in
                engine.server.global_bottom.state_dict().items()
            }
            history = session.run()
            after = engine.server.global_bottom.state_dict()
        assert len(history) == 2
        for record in history.records:
            assert record.effective_cohort == 0
            assert record.dropout_rate == 1.0
        # The bottom model never aggregated anything.
        for key in before:
            assert np.array_equal(before[key], after[key])

    def test_fl_round_survives_losing_everyone(self):
        config = _config(algorithm="fedavg", dropout_rate=1.0, num_rounds=2)
        with Session.from_config(config) as session:
            before = session.global_model().state_dict()
            history = session.run()
            after = session.global_model().state_dict()
        assert all(r.effective_cohort == 0 for r in history.records)
        # Regression: a stored 0 used to fall back to the full cohort.
        assert mean_effective_cohort(history) == 0.0
        assert all(r.train_loss == 0.0 for r in history.records)
        for key in before:
            assert np.array_equal(before[key], after[key])


class TestRejoin:
    def test_missing_workers_rejoin_within_the_bound(self):
        records, __ = _run(_rotating_config())
        rejoined = [r for r in records if r["rejoined_ids"]]
        assert rejoined, "no worker ever rejoined; the scenario is vacuous"
        for record in rejoined:
            # A rejoin adds updates beyond the completed cohort.
            completed = _completed(record)
            assert record["effective_cohort"] == (
                len(completed) + len(record["rejoined_ids"])
            )
            assert not set(record["rejoined_ids"]) & completed

    def test_rejoins_require_a_positive_bound(self):
        records, __ = _run(_rotating_config(rejoin_staleness_bound=0))
        assert all(r["rejoined_ids"] == [] for r in records)

    def test_every_dropped_worker_waits_with_its_own_delta(self):
        """A dropped worker's local compute happened; its update waits to
        rejoin as a delta against the global bottom it started from."""
        with Session.from_config(_rotating_config(num_rounds=1)) as session:
            session.run()
            engine = session.algorithm
            record = engine.history.records[0]
            assert record.dropped_ids
            pending = engine._elastic.pending
            assert sorted(pending) == record.dropped_ids
            keys = set(engine.server.global_bottom.state_dict())
            for entry in pending.values():
                assert set(entry["delta"]) == keys

    def test_over_selection_pads_a_constrained_plan(self):
        overrides = dict(
            num_workers=8, bandwidth_budget_mbps=0.5,
            extras={"auto_budget": False},
        )
        base, __ = _run(_config(**overrides))
        padded, __ = _run(_config(over_select_factor=1.5, **overrides))
        assert all(
            p["num_selected"] > b["num_selected"]
            for p, b in zip(padded, base)
        )

    def test_over_selection_pads_an_fl_selection(self):
        """The FL engine plans with the same ``RoundPlan`` as the split
        engine, so a strategy's picks are padded by the same path."""
        base, __ = _run(_config(algorithm="pyramidfl"))
        padded, __ = _run(_config(
            algorithm="pyramidfl", over_select_factor=1.5,
        ))
        for b, p in zip(base, padded):
            assert b["num_selected"] == 3
            assert p["num_selected"] == 5  # ceil(1.5 * 3)
            assert p["selected_ids"] == sorted(p["selected_ids"])
            assert set(b["selected_ids"]) <= set(p["selected_ids"])
            assert p["total_batch"] == 8 * p["num_selected"]


class TestDeviceClassDropout:
    @pytest.mark.parametrize("algorithm", ["mergesfl", "fedavg"])
    def test_a_class_at_rate_one_is_exactly_the_dropped_set(self, algorithm):
        """Regression: the FL engine built its controller without the
        cluster, so ``device_dropout_rates`` validated and was ignored."""
        config = _config(
            algorithm=algorithm, num_rounds=2,
            extras={"device_dropout_rates": {"jetson_tx2": 1.0}},
        )
        with Session.from_config(config) as session:
            cluster = session.algorithm.cluster
            history = session.run()
        for record in history.records:
            doomed = [
                worker_id for worker_id in record.selected_ids
                if cluster[worker_id].profile.name == "jetson_tx2"
            ]
            assert doomed, "the seed cluster lost its jetson_tx2 workers"
            assert record.dropped_ids == doomed


# -- engine-level death recovery -----------------------------------------------

class TestDeathRecovery:
    @staticmethod
    def _kill_first_child(session) -> None:
        executor = session.algorithm.executor
        child = executor._children[0]
        child.process.kill()
        child.process.join(timeout=5.0)

    def test_a_round_recovers_from_a_dead_child(self):
        config = _config(
            executor="process", min_cohort_fraction=0.2, num_rounds=3,
        )
        with Session.from_config(config) as session:
            session.run(1)
            self._kill_first_child(session)
            history = session.run()
        assert len(history) == 3
        recovered = dataclasses.asdict(history.records[1])
        assert recovered["dropped_ids"], "the death was not recorded as dropout"
        survivors = _completed(recovered)
        assert survivors, "the survivors did not finish the round"
        assert recovered["effective_cohort"] == len(survivors)
        # The round after the recovery runs on a fresh pool, at full health.
        assert history.records[2].dropped_ids == []

    def test_a_dead_child_at_default_parameters_is_recovered(self, caplog):
        """A dead process is one more way a worker goes missing: at the
        default quorum the session finishes, the lost workers are the
        round's dropped ids, and a warning names them."""
        with Session.from_config(
            _config(executor="process", num_rounds=3)
        ) as session:
            session.run(1)
            self._kill_first_child(session)
            with caplog.at_level(logging.WARNING, "repro.core.round_engine"):
                history = session.run()
        assert len(history) == 3
        recovered = dataclasses.asdict(history.records[1])
        lost = recovered["dropped_ids"]
        assert lost and set(lost) < set(recovered["selected_ids"])
        warnings = [
            record.getMessage() for record in caplog.records
            if record.levelno == logging.WARNING
        ]
        assert any(f"lost workers {lost}" in message for message in warnings)
        survivors = len(_completed(recovered))
        quorum = 3  # ceil(0.5 * 5)
        assert recovered["effective_cohort"] == (
            survivors if survivors >= quorum else 0
        )

    def test_fl_round_recovers_from_a_dead_child(self):
        config = _config(
            algorithm="fedavg", executor="process",
            min_cohort_fraction=0.2, num_rounds=3,
        )
        with Session.from_config(config) as session:
            session.run(1)
            self._kill_first_child(session)
            history = session.run()
        assert len(history) == 3
        recovered = dataclasses.asdict(history.records[1])
        assert recovered["dropped_ids"]
        assert recovered["effective_cohort"] == len(_completed(recovered)) > 0

    @pytest.mark.parametrize("algorithm", ["mergesfl", "fedavg"])
    def test_death_recovery_counts_the_planned_cohort_once(self, algorithm):
        """Regression: the FL engine bumped ``participation_count`` only for
        the re-run's survivors, the split engine for the planned cohort;
        the driver now counts once, for everyone the round planned."""
        config = _config(
            algorithm=algorithm, executor="process",
            min_cohort_fraction=0.2, num_rounds=2,
        )
        with Session.from_config(config) as session:
            session.run(1)
            self._kill_first_child(session)
            history = session.run()
            workers = session.components.workers
        assert history.records[1].dropped_ids
        for worker in workers:
            planned = sum(
                worker.worker_id in record.selected_ids
                for record in history.records
            )
            assert worker.participation_count == planned, worker.worker_id

    @pytest.mark.parametrize("algorithm, make_config, death_round", [
        ("mergesfl", _config, 1),
        ("splitfed", _config, 1),
        # Round 2 folds worker 2's rejoin at its first SplitFed aggregate.
        ("splitfed", _rotating_config, 2),
    ], ids=["mergesfl", "splitfed", "splitfed-rejoin"])
    def test_a_mid_round_death_reruns_the_round_from_its_start(
        self, algorithm, make_config, death_round
    ):
        """Regression: the survivors re-ran the round on top of the dead
        attempt's top-model steps (and, under SplitFed, its aggregated
        bottoms and folded rejoins), training more than
        ``local_iterations`` steps.  A death after two of the round's three
        iterations now gives the records and models of a death at the
        round's first dispatch."""
        iterations = 3

        def run(at_forward):
            config = make_config(
                algorithm=algorithm, local_iterations=iterations,
                min_cohort_fraction=0.2, num_rounds=death_round + 2,
            )
            with Session.from_config(config) as session:
                engine = session.algorithm
                engine.executor = _DiesAtForward(at_forward)
                tops = {"merged": 0, "per_worker": 0}
                for kind in tops:
                    name = f"update_top_{kind}"
                    setattr(engine.server, name, _counted(
                        getattr(engine.server, name), tops, kind
                    ))
                history = session.run()
                model = session.global_model().state_dict()
            records = [dataclasses.asdict(record) for record in history.records]
            return (records, model), sum(tops.values())

        first_dispatch, __ = run(at_forward=death_round * iterations + 1)
        mid_round, top_updates = run(at_forward=death_round * iterations + 3)
        assert mid_round[0][death_round]["dropped_ids"]
        _assert_bit_equal(first_dispatch, mid_round, algorithm)
        # Two steps of the dead attempt, then every round's full count.
        assert top_updates == (death_round + 2) * iterations + 2

    def test_below_quorum_death_yields_no_update_but_survives(self):
        config = _config(
            executor="process", min_cohort_fraction=1.0, num_rounds=2,
        )
        with Session.from_config(config) as session:
            session.run(1)
            self._kill_first_child(session)
            before = session.global_model().state_dict()
            session.run()
            after = session.global_model().state_dict()
            history = session.history
        assert len(history) == 2
        assert history.records[1].dropped_ids
        assert history.records[1].effective_cohort == 0
        # The round is rewound to its start: bottom and top are unchanged.
        for key in before:
            assert np.array_equal(before[key], after[key]), key


class _DiesAtForward(SerialExecutor):
    """A serial executor whose ``at_forward``-th forward reports the death
    of the process homing the cohort's first worker."""

    def __init__(self, at_forward: int) -> None:
        super().__init__()
        self.forwards, self.at_forward = 0, at_forward

    def forward(self, workers, batch_sizes):
        self.forwards += 1
        if self.forwards == self.at_forward:
            raise ExecutorDeathError("child died", [workers[0].worker_id])
        return super().forward(workers, batch_sizes)


def test_only_a_backend_that_can_die_takes_the_rewind_snapshot(monkeypatch):
    """The serial and batched executors never raise ``ExecutorDeathError``,
    so their rounds take no rewind snapshot; a subclass, whose stages may
    die (``_DiesAtForward``), does not inherit that promise."""
    from repro.core.engine import SplitTrainingEngine
    from repro.parallel.batched import BatchedExecutor
    from repro.parallel.process import ProcessExecutor

    assert SerialExecutor.never_dies and BatchedExecutor.never_dies
    assert not ProcessExecutor.never_dies and not _DiesAtForward.never_dies
    snapshots = []
    stage_state = SplitTrainingEngine._stage_state

    def counted(self, workers):
        snapshots.append(type(self.executor).__name__)
        return stage_state(self, workers)

    monkeypatch.setattr(SplitTrainingEngine, "_stage_state", counted)
    for executor in (SerialExecutor(), BatchedExecutor(), _DiesAtForward(0)):
        with Session.from_config(_config(num_rounds=1)) as session:
            session.algorithm.executor = executor
            session.run()
    assert snapshots == ["_DiesAtForward"]


def _counted(method, counts: dict, key: str):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return method(*args, **kwargs)
    return wrapper


# -- checkpoint / resume -------------------------------------------------------

class TestElasticCheckpointing:
    def test_resume_mid_run_is_bit_exact_with_pending_rejoins(self, tmp_path):
        config = _rotating_config()
        path = tmp_path / "elastic.ckpt.json"
        with Session.from_config(config) as session:
            session.run(2)
            state = session.state_dict()
            assert state["algorithm"]["elastic"]["pending"], (
                "no pending rejoin at the checkpoint; the scenario is vacuous"
            )
            session.save_checkpoint(path)
        with Session.load_checkpoint(path) as resumed:
            assert resumed.config == config
            resumed.run()
            candidate = (
                [dataclasses.asdict(r) for r in resumed.history.records],
                resumed.global_model().state_dict(),
            )
        _assert_bit_equal(_run(config), candidate, "elastic resume")

    def test_eager_dropout_resume_is_bit_exact(self, tmp_path):
        config = _config(
            dropout_rate=0.3, over_select_factor=1.25,
            rejoin_staleness_bound=2, num_rounds=4,
        )
        path = tmp_path / "dropout.ckpt.json"
        with Session.from_config(config) as session:
            session.run(2)
            session.save_checkpoint(path)
        with Session.load_checkpoint(path) as resumed:
            resumed.run()
            candidate = (
                [dataclasses.asdict(r) for r in resumed.history.records],
                resumed.global_model().state_dict(),
            )
        _assert_bit_equal(_run(config), candidate, "dropout resume")


# -- metrics -------------------------------------------------------------------

class TestElasticMetrics:
    def test_summary_metrics_reflect_the_run(self):
        with Session.from_config(
            _config(dropout_rate=0.4, num_rounds=4)
        ) as session:
            history = session.run()
        assert 0.0 < mean_dropout_rate(history) < 1.0
        assert mean_effective_cohort(history) < 5.0

    def test_effective_cohort_falls_back_for_old_records(self):
        """A record written before the field existed aggregated its whole
        cohort; it loads with ``num_selected`` there."""
        from repro.metrics.history import History, RoundRecord

        record = dataclasses.asdict(RoundRecord(
            round_index=0, sim_time=1.0, duration=1.0, waiting_time=0.0,
            traffic_mb=0.0, train_loss=0.0, test_loss=0.0, test_accuracy=0.5,
            num_selected=7, total_batch=56,
        ))
        del record["effective_cohort"]
        history = History.from_dict({"records": [record]})
        assert history.records[0].effective_cohort == 7
        assert mean_effective_cohort(history) == 7.0
        assert mean_dropout_rate(history) == 0.0
