"""The round scheduler: one class, two bodies, and the schedule is the graph."""

from __future__ import annotations

import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core.worker import SplitWorker
from repro.data.synthetic import make_blobs
from repro.exceptions import ConfigurationError
from repro.metrics.history import WIRE_FIELDS
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Sequential
from repro.parallel.batched import BatchedExecutor
from repro.parallel.pipeline import (
    PipelineScheduler,
    RoundStage,
    SplitRoundOps,
    build_pipeline,
    relaxed_dispatch_order,
    round_stage_specs,
)
from repro.parallel.process import ProcessExecutor
from repro.parallel.serial import SerialExecutor
from repro.parallel.transport import SharedMemoryTransport
from repro.utils.rng import new_rng


def _make_workers(count: int = 2) -> list[SplitWorker]:
    data = make_blobs(train_samples=40 * count, test_samples=20, seed=6)
    shard = len(data.train) // count
    return [
        SplitWorker(
            worker_id=index,
            dataset=data.train.subset(np.arange(index * shard, (index + 1) * shard)),
            num_classes=data.num_classes,
            seed=300 + index,
        )
        for index in range(count)
    ]


def _bottom() -> Sequential:
    return Sequential([Linear(32, 16, rng=new_rng(0)), ReLU()])


def _split_ops(executor, workers, bottom, trace=None) -> SplitRoundOps:
    """Minimal split-round ops: identity-ish top update, no-op aggregate."""

    def update_top(features, labels):
        return 0.5, [0.1 * feats for feats in features]

    def install(wait):
        executor.install(workers, bottom, [0.1] * len(workers), wait=wait)

    return SplitRoundOps(
        executor=executor,
        workers=workers,
        batch_sizes=[8] * len(workers),
        install=install,
        update_top=update_top,
        aggregate=lambda states: None,
        on_stage=(None if trace is None
                  else lambda stage, iteration: trace.append((stage, iteration))),
    )


def _shm_executor() -> ProcessExecutor:
    return ProcessExecutor(processes=1, transport=SharedMemoryTransport())


#: Executor factories by name, with whether they offer asynchronous dispatch.
EXECUTORS = {
    "serial": (SerialExecutor, True),
    "process-shm": (_shm_executor, True),
    "batched": (BatchedExecutor, False),
    "process-pipe": (lambda: ProcessExecutor(processes=1), False),
}


def _graph_order(tau: int, staleness: int) -> list:
    return [
        (slot.spec.stage, slot.spec.iteration)
        for slot in relaxed_dispatch_order(round_stage_specs(tau), staleness)
    ]


class TestScheduleIsTheGraph:
    """What the scheduler emits is what ``relaxed_dispatch_order`` derives."""

    @pytest.mark.parametrize("tau", [1, 3])
    @pytest.mark.parametrize("staleness", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(EXECUTORS))
    def test_emitted_stages_equal_the_derived_order(self, name, staleness, tau):
        make_executor, capable = EXECUTORS[name]
        trace: list = []
        scheduler = PipelineScheduler(asynchronous=True, staleness=staleness)
        executor = make_executor()
        try:
            assert executor.supports_async_dispatch is capable
            losses = scheduler.run_split_round(
                _split_ops(executor, _make_workers(), _bottom(), trace), tau, False
            )
        finally:
            executor.close()
        assert losses == [0.5] * tau
        # Without the capability the blocking body runs: the exact order.
        assert trace == _graph_order(tau, staleness if capable else 0)
        # Blocking: install + 2 per iteration + states; graph: one per
        # feature collection + states, at every staleness.
        assert scheduler.last_report.sync_points == (
            tau + 1 if capable else 2 * tau + 2
        )

    @pytest.mark.parametrize("name", ["serial", "process-shm"])
    def test_sync_construction_takes_the_blocking_body(self, name):
        make_executor, __ = EXECUTORS[name]
        trace: list = []
        scheduler = PipelineScheduler()
        executor = make_executor()
        try:
            scheduler.run_split_round(
                _split_ops(executor, _make_workers(), _bottom(), trace), 2, False
            )
        finally:
            executor.close()
        assert trace == _graph_order(2, 0)
        assert scheduler.last_report.sync_points == 6

    def test_staleness_one_launches_the_forward_ahead(self):
        """At staleness 1, iteration k+1's forward is launched before
        iteration k's gradients are dispatched."""
        trace: list = []
        executor = _shm_executor()
        try:
            PipelineScheduler(asynchronous=True, staleness=1).run_split_round(
                _split_ops(executor, _make_workers(), _bottom(), trace), 3, False
            )
            assert not executor._completions   # no uncollected forward left
        finally:
            executor.close()
        for k in (0, 1):
            assert trace.index((RoundStage.BOTTOM_FORWARD, k + 1)) < trace.index(
                (RoundStage.BACKWARD_DISPATCH, k)
            )


class TestBlockingBody:
    @pytest.mark.parametrize("make_executor", [SerialExecutor, _shm_executor],
                             ids=["serial", "process-shm"])
    def test_per_iteration_aggregation_takes_the_blocking_body(self, make_executor):
        """SplitFed re-installs after every iteration: aggregate + re-install
        after *every* iteration, no trailing aggregate, blocking order."""
        trace: list = []
        scheduler = PipelineScheduler(asynchronous=True)
        executor = make_executor()
        try:
            scheduler.run_split_round(
                _split_ops(executor, _make_workers(), _bottom(), trace), 2, True
            )
        finally:
            executor.close()
        stages = [stage for stage, __ in trace]
        assert stages.count(RoundStage.AGGREGATE) == 2
        assert stages.count(RoundStage.INSTALL) == 3
        assert stages[-2:] == [RoundStage.AGGREGATE, RoundStage.INSTALL]
        assert scheduler.last_report.sync_points == 1 + 2 * 4

    def test_zero_iterations_take_the_blocking_body(self):
        """tau = 0 has nothing to dispatch ahead: install, aggregate, and no
        uncollected forward left behind."""
        trace: list = []
        executor = _shm_executor()
        try:
            losses = PipelineScheduler(asynchronous=True, staleness=1).run_split_round(
                _split_ops(executor, _make_workers(), _bottom(), trace), 0, False
            )
            assert not executor._completions
        finally:
            executor.close()
        assert losses == []
        assert trace == [(RoundStage.INSTALL, None), (RoundStage.AGGREGATE, None)]

    def test_only_a_relaxation_that_cannot_run_is_logged(self, caplog):
        """Exact graph order on an incapable executor is the same trajectory
        (silent); staleness >= 1 running exact changes semantics (loud, once)."""
        with caplog.at_level(logging.WARNING, logger="repro.parallel.pipeline"):
            exact = PipelineScheduler(asynchronous=True)
            relaxed = PipelineScheduler(asynchronous=True, staleness=1)
            executor = BatchedExecutor()
            for scheduler in (exact, relaxed, relaxed):
                scheduler.run_split_round(
                    _split_ops(executor, _make_workers(), _bottom()), 2, False
                )
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1
        assert "staleness=1 requested but running the EXACT schedule" in messages[0]
        assert "'batched' has no asynchronous dispatch" in messages[0]


class TestPipelineConfig:
    def test_registry_lists_pipelines(self):
        from repro.api.registry import PIPELINES

        assert {"sync", "pipelined", "staleness"} <= set(PIPELINES.names())

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline"):
            ExperimentConfig(pipeline="hyperdrive")

    def test_registry_names_are_parameterisations_of_one_class(self):
        built = {
            name: build_pipeline(ExperimentConfig(pipeline=name, staleness=2))
            for name in ("sync", "pipelined", "staleness")
        }
        assert all(type(s) is PipelineScheduler for s in built.values())
        assert [(s.asynchronous, s.staleness) for s in built.values()] == [
            (False, 0), (True, 0), (True, 2),
        ]

    def test_staleness_needs_the_graph_body(self):
        with pytest.raises(ValueError, match="asynchronous=True"):
            PipelineScheduler(staleness=1)


def _records(session) -> tuple[list, dict]:
    # Wire-traffic fields measure the execution topology, not the training
    # trajectory; cross-executor/schedule comparisons strip them.
    return (
        [{k: v for k, v in dataclasses.asdict(record).items()
          if k not in WIRE_FIELDS} for record in session.history.records],
        session.global_model().state_dict(),
    )


def _run(config: ExperimentConfig):
    with Session.from_config(config) as session:
        session.run()
        return _records(session)


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="mergesfl",
        dataset="blobs",
        model="mlp",
        num_workers=4,
        num_rounds=4,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=200,
        test_samples=60,
        momentum=0.9,
        seed=9,
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _assert_same_run(candidate, reference) -> None:
    assert candidate[0] == reference[0]
    assert set(candidate[1]) == set(reference[1])
    for key in reference[1]:
        assert np.array_equal(candidate[1][key], reference[1][key]), key


GRAPH = dict(executor="process", transport="shm", pipeline="pipelined")
BLOCKING = dict(executor="serial", pipeline="sync")


class TestPipelinedSessions:
    def test_checkpoint_mid_run_drains_and_resumes_bit_exact(self, tmp_path):
        """Saving between rounds of a pipelined process run drains in-flight
        dispatch; the resumed run matches a straight serial run bit for bit."""
        path = tmp_path / "pipelined.ckpt.json"
        with Session.from_config(_config(**GRAPH)) as session:
            session.run(1)
            session.save_checkpoint(path)
        with Session.load_checkpoint(path) as resumed:
            assert resumed.config.pipeline == "pipelined"
            assert resumed.config.transport == "shm"
            resumed.run()
            candidate = _records(resumed)
        _assert_same_run(candidate, _run(_config(**BLOCKING)))

    @pytest.mark.parametrize("writer, reader", [(GRAPH, BLOCKING), (BLOCKING, GRAPH)],
                             ids=["graph-to-blocking", "blocking-to-graph"])
    def test_checkpoint_resumes_under_the_other_body(self, tmp_path, writer, reader):
        """The graph body's checkpoint carries a prefetched plan, the
        blocking body's does not; either resumes under the other topology
        to the records of the uninterrupted serial run."""
        path = tmp_path / "writer.ckpt.json"
        with Session.from_config(_config(**writer)) as session:
            session.run(2)
            state = session.state_dict()
            assert (state["algorithm"]["pending_plan"] is not None) == (
                writer is GRAPH
            )
            session.save_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["config"].update(reader)
        path.write_text(json.dumps(payload))
        with Session.load_checkpoint(path) as resumed:
            assert resumed.components.executor.name == reader["executor"]
            assert resumed.config.pipeline == reader["pipeline"]
            resumed.run()
            candidate = _records(resumed)
        _assert_same_run(candidate, _run(_config(**BLOCKING)))

    @pytest.mark.parametrize("knobs", [
        dict(elastic=True, dropout_rate=0.3, over_select_factor=1.5,
             rejoin_staleness_bound=2, min_cohort_fraction=0.5),
        dict(num_workers=40, population="lazy", population_candidates=8,
             population_cache=16, elastic=True, dropout_rate=0.3,
             over_select_factor=1.5, rejoin_staleness_bound=2),
        dict(split_policy="adaptive"),
    ], ids=["elastic", "lazy-elastic", "adaptive-split"])
    def test_aggregate_window_composes_with_the_round_knobs(self, knobs):
        """The graph body accounts the round and plans the next one *before*
        the aggregate folds churn, rejoins and deltas in; under every knob
        that hooks into that window the records still equal the blocking
        order's."""
        reference = _run(_config(**BLOCKING, **knobs))
        _assert_same_run(
            _run(_config(executor="serial", pipeline="pipelined", **knobs)), reference
        )
        _assert_same_run(_run(_config(**GRAPH, **knobs)), reference)

    def test_drain_is_noop_for_serial_sessions(self):
        with Session.from_config(_config(executor="serial")) as session:
            session.run(1)
            session.algorithm.drain()  # must not raise


class TestProcessExecutorPipelineProtocol:
    def test_collect_without_launch_raises(self):
        executor = ProcessExecutor(processes=1)
        try:
            with pytest.raises(RuntimeError, match="no forward in flight"):
                executor.collect_forward(_make_workers())
        finally:
            executor.close()

    def test_drain_discards_abandoned_forward(self):
        """Draining right after a round failed between launch and collect
        consumes the orphaned features reply, so checkpointing still works
        and the executor stays usable."""
        workers = _make_workers()
        bottom = _bottom()
        executor = ProcessExecutor(
            processes=1, transport=SharedMemoryTransport(capacity=1 << 20)
        )
        try:
            executor.install(workers, bottom, [0.1, 0.1])
            executor.stage_forward(workers, [8, 8])
            executor.launch_forward(workers)
            executor.drain()
            assert not executor._completions
            executor.install(workers, bottom, [0.1, 0.1])
            features, __ = executor.forward(workers, [8, 8])
            assert features[0].shape == (8, 16)
        finally:
            executor.close()

    def test_reply_does_not_acknowledge_later_noreply_commands(self):
        """A reply proves the child processed everything sent before the
        request -- not a fire-and-forget command sent while the reply was
        pending.  The channel must stay dirty until a later sync."""
        workers = _make_workers()
        bottom = _bottom()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, bottom, [0.1, 0.1])
            executor.stage_forward(workers, [8, 8])
            executor.launch_forward(workers)          # replying request pending
            executor.stage_forward(workers, [8, 8])   # no-reply sent after it
            executor.collect_forward(workers)
            assert executor._children[0].dirty        # later stage unacked
            executor.drain()
            assert not executor._children[0].dirty
        finally:
            executor.close()

    def test_drain_syncs_nowait_backward(self):
        workers = _make_workers()
        bottom = _bottom()
        executor = ProcessExecutor(processes=2)
        try:
            executor.install(workers, bottom, [0.1, 0.1])
            features, __ = executor.forward(workers, [8, 8])
            executor.backward_step_nowait(workers, [0.1 * f for f in features])
            executor.drain()  # pings the dirty children
            states = executor.bottom_states(workers)
            assert len(states) == 2
        finally:
            executor.close()
