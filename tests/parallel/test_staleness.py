"""Bounded-staleness scheduling: graph, semantics, determinism, resume.

The contract under test, in increasing strength:

* the declarative dependency graph (:func:`round_stage_specs`) and the
  schedule derived from it (:func:`relaxed_dispatch_order`) are correct --
  staleness 0 yields the strict order, staleness ``s`` lets a forward
  overtake at most ``s`` pending local updates;
* ``staleness=0`` is bit-identical to the exact schedulers (pinned in
  test_executor_equivalence's variant matrix as well);
* ``staleness>=1`` is a *different* trajectory (the relaxation really
  happens) that is deterministic and identical across capable executors
  ({serial, process x shm}), converges within a pinned epsilon of the
  exact run and records its realized staleness; the graph order needs
  tau+1 scheduler/executor synchronisations per round at every staleness,
  the blocking order 2*tau+2;
* checkpoint/resume mid-run stays exact at staleness 1, including the
  cross-round prefetched plan.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.exceptions import ConfigurationError
from repro.metrics.history import WIRE_FIELDS
from repro.metrics.summary import schedule_divergence
from repro.parallel.pipeline import (
    ArtifactKind,
    PipelineScheduler,
    RoundStage,
    relaxed_dispatch_order,
    round_stage_specs,
)

#: Pinned tolerance of the convergence regression: the staleness-1 run's
#: final accuracy may differ from the exact run's by at most this much on
#: the seed config below.  Measured headroom on this container: 0.0.
CONVERGENCE_EPSILON = 0.05


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


def _run(config: ExperimentConfig):
    # Wire-traffic fields measure the execution topology (the staleness
    # schedule shifts traffic across round boundaries), so cross-schedule
    # comparisons strip them from the records.
    with Session.from_config(config) as session:
        history = session.run()
        return (
            [{k: v for k, v in dataclasses.asdict(record).items()
              if k not in WIRE_FIELDS} for record in history.records],
            session.global_model().state_dict(),
        )


def _assert_bit_equal(reference, candidate, label: str) -> None:
    ref_records, ref_state = reference
    records, state = candidate
    assert records == ref_records, label
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"{label}: {key}"


# -- the dependency graph ------------------------------------------------------

class TestDependencyGraph:
    def test_specs_declare_the_relaxable_edge(self):
        specs = round_stage_specs(2)
        forwards = [s for s in specs if s.stage is RoundStage.BOTTOM_FORWARD]
        assert [s.iteration for s in forwards] == [0, 1]
        for spec in forwards:
            (read,) = spec.reads
            assert read.kind is ArtifactKind.BOTTOM_WEIGHTS
            assert read.version == spec.iteration
            assert read.relaxed
        backwards = [s for s in specs if s.stage is RoundStage.BACKWARD_DISPATCH]
        for spec in backwards:
            assert all(not read.relaxed for read in spec.reads)
            assert spec.writes[0].version == spec.iteration + 1
        aggregate = specs[-1]
        assert aggregate.stage is RoundStage.AGGREGATE
        assert aggregate.reads[0].version == 2  # every local update applied

    def test_staleness_zero_derives_the_strict_order(self):
        order = relaxed_dispatch_order(round_stage_specs(3), staleness=0)
        stages = [(slot.spec.stage, slot.spec.iteration) for slot in order]
        assert stages == [
            (RoundStage.INSTALL, None),
            (RoundStage.BOTTOM_FORWARD, 0),
            (RoundStage.TOP_UPDATE, 0),
            (RoundStage.BACKWARD_DISPATCH, 0),
            (RoundStage.BOTTOM_FORWARD, 1),
            (RoundStage.TOP_UPDATE, 1),
            (RoundStage.BACKWARD_DISPATCH, 1),
            (RoundStage.BOTTOM_FORWARD, 2),
            (RoundStage.TOP_UPDATE, 2),
            (RoundStage.BACKWARD_DISPATCH, 2),
            (RoundStage.AGGREGATE, None),
        ]
        assert all(slot.lag == 0 for slot in order)

    def test_staleness_one_overtakes_one_backward(self):
        order = relaxed_dispatch_order(round_stage_specs(3), staleness=1)
        stages = [(slot.spec.stage, slot.spec.iteration) for slot in order]
        # Forward 1 dispatches before backward 0; forward 2 right after it.
        assert stages.index((RoundStage.BOTTOM_FORWARD, 1)) < stages.index(
            (RoundStage.BACKWARD_DISPATCH, 0)
        )
        assert stages.index((RoundStage.BOTTOM_FORWARD, 2)) < stages.index(
            (RoundStage.BACKWARD_DISPATCH, 1)
        )
        lags = [s.lag for s in order if s.spec.stage is RoundStage.BOTTOM_FORWARD]
        assert lags == [0, 1, 1]

    def test_lag_never_exceeds_the_bound(self):
        for staleness in (1, 2, 3):
            order = relaxed_dispatch_order(round_stage_specs(6), staleness)
            lags = [
                slot.lag for slot in order
                if slot.spec.stage is RoundStage.BOTTOM_FORWARD
            ]
            assert max(lags) <= staleness
            assert lags == [min(j, staleness) for j in range(6)]

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            relaxed_dispatch_order(round_stage_specs(2), -1)
        with pytest.raises(ValueError, match="non-negative"):
            PipelineScheduler(asynchronous=True, staleness=-1)
        with pytest.raises(ConfigurationError, match="staleness"):
            _config(staleness=-1)


# -- exactness at staleness 0, relaxation at staleness 1 -----------------------

class TestStalenessSemantics:
    def test_staleness_zero_bit_exact_with_sync(self):
        reference = _run(_config(executor="serial"))
        candidate = _run(_config(executor="serial", pipeline="staleness"))
        _assert_bit_equal(reference, candidate, "serial/staleness-0")

    def test_staleness_one_actually_relaxes(self):
        """The relaxed trajectory must differ from the exact one -- a
        staleness-1 run that matches sync bit for bit means the relaxation
        silently fell back and the convergence test below is vacuous."""
        exact, exact_weights = _run(_config(executor="serial"))
        relaxed, relaxed_weights = _run(
            _config(executor="serial", pipeline="staleness", staleness=1)
        )
        assert any(
            not np.array_equal(relaxed_weights[key], exact_weights[key])
            for key in exact_weights
        )
        assert all(r["effective_staleness"] > 0.0 for r in relaxed)
        assert all(r["effective_staleness"] == 0.0 for r in exact)

    @pytest.mark.parametrize("transport", ["shm"])
    def test_relaxed_trajectory_identical_across_executors(self, transport):
        """{serial, process} x staleness-1: the relaxation is deterministic
        and executor-independent, the relaxed analogue of the exact
        equivalence suite."""
        reference = _run(
            _config(executor="serial", pipeline="staleness", staleness=1)
        )
        candidate = _run(_config(
            executor="process", transport=transport,
            pipeline="staleness", staleness=1,
        ))
        _assert_bit_equal(reference, candidate, f"process/{transport}/staleness-1")

    def test_effective_staleness_recorded(self):
        records, __ = _run(
            _config(executor="serial", pipeline="staleness", staleness=1)
        )
        # tau=3: forwards lag [0, 1, 1] -> mean 2/3 every round.
        for record in records:
            assert record["effective_staleness"] == pytest.approx(2.0 / 3.0)

    def test_incapable_executor_falls_back_to_exact(self):
        """The batched executor has no relaxed dispatch: staleness-1 on it
        must degrade to the exact schedule (same trajectory as sync), not
        to some third behaviour."""
        reference = _run(_config(executor="serial"))
        candidate = _run(
            _config(executor="batched", pipeline="staleness", staleness=1)
        )
        _assert_bit_equal(reference, candidate, "batched/staleness-1-fallback")

    def test_per_iteration_aggregation_falls_back_to_exact(self):
        reference = _run(_config(algorithm="splitfed", executor="serial"))
        candidate = _run(_config(
            algorithm="splitfed", executor="serial",
            pipeline="staleness", staleness=1,
        ))
        _assert_bit_equal(reference, candidate, "splitfed/staleness-fallback")


class TestConvergenceTolerance:
    """The relaxation must be measured, not hopeful (acceptance criterion)."""

    @staticmethod
    def _seed_config(**overrides):
        params = dict(
            algorithm="mergesfl", dataset="blobs", model="mlp",
            num_workers=5, num_rounds=4, local_iterations=3,
            non_iid_level=10.0, max_batch_size=16, base_batch_size=8,
            train_samples=200, test_samples=100, learning_rate=0.02,
            lr_decay=0.97, seed=11,
        )
        params.update(overrides)
        return ExperimentConfig(**params)

    def test_staleness_one_final_accuracy_within_epsilon(self):
        with Session.from_config(self._seed_config()) as session:
            exact = session.run()
        with Session.from_config(
            self._seed_config(pipeline="staleness", staleness=1)
        ) as session:
            relaxed = session.run()
        divergence = schedule_divergence(relaxed, exact)
        assert divergence["mean_staleness"] > 0.0       # relaxation active
        assert divergence["final"] <= CONVERGENCE_EPSILON
        assert divergence["max"] <= 2 * CONVERGENCE_EPSILON


# -- synchronisation accounting ------------------------------------------------

class TestSyncCounter:
    """Exact per-round counts at tau=3: the blocking body blocks 2*tau+2
    times (install, forward + backward per iteration, states), the graph
    body tau+1 times (one feature collection per iteration, states) -- at
    every staleness, so relaxing buys overlap, not fewer barriers."""

    BLOCKING, GRAPH = 8, 4

    @staticmethod
    def _pipeline_after_run(config):
        with Session.from_config(config) as session:
            session.run()
            return session.algorithm.pipeline

    CASES = {
        "serial/sync": (dict(executor="serial"), BLOCKING),
        "serial/pipelined": (dict(executor="serial", pipeline="pipelined"), GRAPH),
        "serial/staleness-1": (
            dict(executor="serial", pipeline="staleness", staleness=1), GRAPH),
        "batched/pipelined": (
            dict(executor="batched", pipeline="pipelined"), BLOCKING),
        "process-pipe/pipelined": (
            dict(executor="process", transport="pipe", pipeline="pipelined"),
            BLOCKING),
        "process-shm/sync": (
            dict(executor="process", transport="shm", pipeline="sync"), BLOCKING),
        "process-shm/pipelined": (
            dict(executor="process", transport="shm", pipeline="pipelined"), GRAPH),
        "process-shm/staleness-2": (
            dict(executor="process", transport="shm",
                 pipeline="staleness", staleness=2), GRAPH),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sync_points_per_round(self, case):
        overrides, per_round = self.CASES[case]
        config = _config(**overrides)
        pipeline = self._pipeline_after_run(config)
        assert pipeline.last_report.sync_points == per_round
        assert pipeline.sync_points == per_round * config.num_rounds
        relaxed = overrides.get("staleness", 0) > 0
        assert (pipeline.last_report.effective_staleness > 0.0) == relaxed


# -- checkpoint / resume -------------------------------------------------------

class TestStalenessCheckpointing:
    @pytest.mark.parametrize("executor_kw", [
        dict(executor="serial"),
        dict(executor="process", transport="shm"),
    ], ids=["serial", "process-shm"])
    def test_resume_mid_run_is_exact_at_staleness_one(self, tmp_path, executor_kw):
        """Interrupt after round 1 (with a prefetched round-2 plan in
        flight) and resume: bit-identical to the uninterrupted run."""
        config = _config(pipeline="staleness", staleness=1, **executor_kw)
        path = tmp_path / "staleness.ckpt.json"
        with Session.from_config(config) as session:
            session.run(1)
            state = session.state_dict()
            # The cross-round in-flight artifact is serialised, not dropped.
            assert state["algorithm"]["pending_plan"] is not None
            session.save_checkpoint(path)
        with Session.load_checkpoint(path) as resumed:
            assert resumed.config.pipeline == "staleness"
            assert resumed.config.staleness == 1
            resumed.run()
            candidate = (
                [{k: v for k, v in dataclasses.asdict(r).items()
                  if k not in WIRE_FIELDS} for r in resumed.history.records],
                resumed.global_model().state_dict(),
            )
        reference = _run(config)
        _assert_bit_equal(reference, candidate, "staleness-1 resume")

    def test_prefetched_plan_round_trips_through_json(self):
        from repro.core.controller import RoundPlan

        plan = RoundPlan(
            selected=[2, 0], batch_sizes={2: 8, 0: 16},
            merged_kl=0.125, info={"feasible": True},
        )
        restored = RoundPlan.from_dict(plan.to_dict())
        assert restored.selected == plan.selected
        assert restored.batch_sizes == plan.batch_sizes
        assert restored.merged_kl == plan.merged_kl
        assert restored.info == plan.info


# -- registry / config ---------------------------------------------------------

class TestStalenessConfig:
    def test_registry_lists_staleness_pipeline(self):
        from repro.api.registry import PIPELINES

        assert "staleness" in PIPELINES.names()

    def test_build_pipeline_threads_the_bound(self):
        from repro.parallel.pipeline import build_pipeline

        scheduler = build_pipeline(
            _config(pipeline="staleness", staleness=2)
        )
        assert type(scheduler) is PipelineScheduler
        assert (scheduler.asynchronous, scheduler.staleness) == (True, 2)


class TestSerialInflightQueues:
    """The serial executor keeps one in-flight queue per *installed* worker."""

    def test_queues_follow_rotating_cohorts(self, tiny_split):
        from repro.core.worker import SplitWorker
        from repro.data.synthetic import make_blobs
        from repro.parallel.serial import SerialExecutor

        data = make_blobs(train_samples=40, test_samples=8, seed=0)
        workers = [
            SplitWorker(worker_id, data.train, num_classes=4, seed=worker_id)
            for worker_id in range(9)
        ]
        executor = SerialExecutor()
        for cohort in ([0, 1, 2], [2, 3, 4, 5], [6, 7], [8, 0, 4]):
            selected = [workers[worker_id] for worker_id in cohort]
            executor.install(selected, tiny_split.bottom, [0.1] * len(selected))
            assert sorted(executor._inflight) == sorted(cohort)
            executor.stage_forward(selected, [4] * len(selected))
            executor.launch_forward(selected)
            features, __ = executor.collect_forward(selected)
            executor.backward_step_nowait(selected, [0.1 * f for f in features])
        # Per-depth installs are one cohort, not one cohort per depth.
        selected = workers[:5]
        executor.install(
            selected, tiny_split.bottom, [0.1] * 5, [1, 2, 1, 2, 2], wait=False
        )
        assert sorted(executor._inflight) == [0, 1, 2, 3, 4]
        assert [len(worker.bottom) for worker in selected] == [1, 2, 1, 2, 2]

    def test_lazy_population_does_not_accumulate_queues(self):
        config = _config(
            num_workers=40, population="lazy", population_candidates=6,
            pipeline="staleness", staleness=1, num_rounds=4, train_samples=400,
        )
        with Session.from_config(config) as session:
            executor = session.components.executor
            participants = set()
            for __ in range(config.num_rounds):
                record = session.step()
                participants.update(executor._inflight)
                assert len(executor._inflight) == record.num_selected
        assert len(participants) > len(executor._inflight)
