"""The round scheduler: one split-round loop, with or without the aggregate window."""

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
from repro.parallel.pipeline import PipelineScheduler, RoundStage, SplitRoundOps
from repro.parallel.process import ProcessExecutor
from repro.parallel.serial import SerialExecutor
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
    """Minimal split-round ops: identity-ish top update, no-op aggregate;
    ``trace`` also records the window's ``account`` and ``prefetch_plan``
    calls, as ``("account", None)`` and ``("prefetch", None)``."""

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
        account=None if trace is None else lambda: trace.append(("account", None)),
        prefetch_plan=(None if trace is None
                       else lambda: trace.append(("prefetch", None))),
    )


def _process_executor() -> ProcessExecutor:
    return ProcessExecutor(processes=1)


#: Executor factories by name, with whether they run the aggregate window.
EXECUTORS = {
    "serial": (SerialExecutor, False),
    "batched": (BatchedExecutor, False),
    "process": (_process_executor, True),
}


def _round_order(tau: int, window: bool = False) -> list:
    """INSTALL, then (forward, top update, backward) x tau, then AGGREGATE;
    the window accounts the round and plans the next one before it."""
    order = [(RoundStage.INSTALL, None)]
    for k in range(tau):
        order += [
            (RoundStage.BOTTOM_FORWARD, k),
            (RoundStage.TOP_UPDATE, k),
            (RoundStage.BACKWARD_DISPATCH, k),
        ]
    if window:
        order += [("account", None), (RoundStage.PLAN, None), ("prefetch", None)]
    return order + [(RoundStage.AGGREGATE, None)]


def _run_split_round(name: str, tau: int, per_iteration: bool = False):
    """One split round of the named executor: ``(scheduler, trace, losses)``."""
    make_executor, __ = EXECUTORS[name]
    trace: list = []
    scheduler = PipelineScheduler()
    executor = make_executor()
    try:
        losses = scheduler.run_split_round(
            _split_ops(executor, _make_workers(), _bottom(), trace), tau, per_iteration
        )
        # No uncollected request is left behind by either order.
        assert not getattr(executor, "_completions", ())
    finally:
        executor.close()
    return scheduler, trace, losses


class TestOneLoop:
    """Both orders emit the same stages; only the blocking points differ."""

    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(EXECUTORS))
    def test_emitted_stages_are_the_round_order(self, name, tau):
        """The window runs exactly on the executor that supports it."""
        make_executor, capable = EXECUTORS[name]
        assert make_executor().supports_async_dispatch is capable
        scheduler, trace, losses = _run_split_round(name, tau)
        assert losses == [0.5] * tau
        assert trace == _round_order(tau, window=capable)
        # Blocking: install + forward and backward per iteration + states;
        # window: one per forward + states.
        assert scheduler.last_report.sync_points == (
            tau + 1 if capable else 2 * tau + 2
        ) == scheduler.sync_points

    def test_an_in_process_executor_runs_the_blocking_order_silently(self, caplog):
        """Both orders yield the same trajectory, so there is nothing to warn
        about when an executor has no window."""
        with caplog.at_level(logging.WARNING, logger="repro.parallel.pipeline"):
            scheduler = PipelineScheduler()
            executor = BatchedExecutor()
            for __ in range(2):
                scheduler.run_split_round(
                    _split_ops(executor, _make_workers(), _bottom()), 2, False
                )
        assert not caplog.records
        assert scheduler.last_report.sync_points == 6


class TestBlockingOrder:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_per_iteration_aggregation_takes_the_blocking_order(self, name):
        """SplitFed re-installs after every iteration: aggregate + re-install
        after *every* iteration, no trailing aggregate, blocking order --
        on the process executor too, with nothing accounted or prefetched."""
        scheduler, trace, __ = _run_split_round(name, 2, per_iteration=True)
        stages = [stage for stage, __ in trace]
        assert stages.count(RoundStage.AGGREGATE) == 2
        assert stages.count(RoundStage.INSTALL) == 3
        assert stages[-2:] == [RoundStage.AGGREGATE, RoundStage.INSTALL]
        assert "account" not in stages and "prefetch" not in stages
        assert scheduler.last_report.sync_points == 1 + 2 * 4

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_zero_iterations_take_the_blocking_order(self, name):
        """tau = 0 has no tail to overlap: install, aggregate, and no
        uncollected request left behind."""
        scheduler, trace, losses = _run_split_round(name, 0)
        assert losses == []
        assert trace == _round_order(0)
        assert scheduler.last_report.sync_points == 2

    def test_the_scheduler_takes_no_order(self):
        """Which order runs is observed from the executor, not configured."""
        with pytest.raises(TypeError):
            PipelineScheduler(asynchronous=True)


class TestRetiredStaleness:
    """Bounded staleness is gone; its spellings load at their exact value or
    fail by name."""

    def test_the_staleness_pipeline_names_its_replacement(self):
        with pytest.raises(ConfigurationError, match="'pipelined'"):
            ExperimentConfig(pipeline="staleness")

    def test_a_zero_bound_is_dropped_on_load(self):
        payload = dict(ExperimentConfig().to_dict(), staleness=0)
        assert ExperimentConfig.from_dict(payload) == ExperimentConfig()

    def test_a_config_writes_no_bound(self):
        assert "staleness" not in ExperimentConfig().to_dict()
        assert "staleness" not in {
            field.name for field in dataclasses.fields(ExperimentConfig)
        }

    @pytest.mark.parametrize("bound", [1, 2, -1])
    def test_a_relaxing_bound_fails_by_name(self, bound):
        payload = dict(ExperimentConfig().to_dict(), staleness=bound)
        with pytest.raises(ConfigurationError, match=f"staleness={bound}"):
            ExperimentConfig.from_dict(payload)


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


WINDOW = dict(executor="process")
BLOCKING = dict(executor="serial")
#: cnn_h offers cut depths [3, 6, 10]; blobs' mlp offers only [2].
MULTI_DEPTH = dict(dataset="har", model="cnn_h")


def _run_recording_depths(config: ExperimentConfig):
    """:func:`_run`, plus the set of cut depths the split policy assigned."""
    depths: set[int] = set()
    with Session.from_config(config) as session:
        engine = session.algorithm
        assign = engine._assign_depths

        def recording(round_index, plan):
            plan = assign(round_index, plan)
            depths.update(plan.depths.values())
            return plan

        engine._assign_depths = recording
        session.run()
        return _records(session), depths


class TestSyncCounter:
    """Exact per-round counts at tau=3 over whole sessions, keyed on the
    executor: the in-process executors block 2*tau+2 times (install,
    forward + backward per iteration, states), the process executor's
    aggregate window tau+1 times (one per forward, states).  SplitFed's
    per-iteration re-install blocks 1 + 4*tau times (install, then forward,
    backward, states and install per iteration) on every executor, and an
    FL round twice (train, aggregate)."""

    BLOCKING_SYNCS, WINDOW_SYNCS, PER_ITERATION_SYNCS, FULL_SYNCS = 8, 4, 13, 2

    CASES = {
        "serial": (dict(executor="serial"), BLOCKING_SYNCS),
        "batched": (dict(executor="batched"), BLOCKING_SYNCS),
        "process": (WINDOW, WINDOW_SYNCS),
        # The retired spellings load and change nothing: the process
        # executor runs the window whatever they name.
        "process/retired-sync-pipe": (
            dict(WINDOW, pipeline="sync", transport="pipe"), WINDOW_SYNCS),
        "splitfed/serial": (
            dict(algorithm="splitfed", executor="serial"), PER_ITERATION_SYNCS),
        "splitfed/process": (
            dict(algorithm="splitfed", **WINDOW), PER_ITERATION_SYNCS),
        "fedavg/serial": (dict(algorithm="fedavg", executor="serial"), FULL_SYNCS),
        "fedavg/process": (dict(algorithm="fedavg", **WINDOW), FULL_SYNCS),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sync_points_per_round(self, case):
        overrides, per_round = self.CASES[case]
        config = _config(**overrides)
        with Session.from_config(config) as session:
            session.run()
            pipeline = session.algorithm.pipeline
        assert pipeline.last_report.sync_points == per_round
        assert pipeline.sync_points == per_round * config.num_rounds


class TestWindowSessions:
    def test_checkpoint_mid_run_drains_and_resumes_bit_exact(self, tmp_path):
        """Saving between rounds of a process run drains in-flight dispatch
        and serialises the prefetched plan; the resumed run matches a
        straight serial run bit for bit."""
        path = tmp_path / "window.ckpt.json"
        with Session.from_config(_config(**WINDOW)) as session:
            session.run(1)
            # The cross-round in-flight artifact is serialised, not dropped.
            assert session.state_dict()["algorithm"]["pending_plan"] is not None
            session.save_checkpoint(path)
        saved = json.loads(path.read_text())["config"]
        assert "pipeline" not in saved and "transport" not in saved
        with Session.load_checkpoint(path) as resumed:
            resumed.run()
            candidate = _records(resumed)
        _assert_same_run(candidate, _run(_config(**BLOCKING)))

    @pytest.mark.parametrize("writer, reader", [(WINDOW, BLOCKING), (BLOCKING, WINDOW)],
                             ids=["window-to-blocking", "blocking-to-window"])
    def test_checkpoint_resumes_under_the_other_order(self, tmp_path, writer, reader):
        """The window's checkpoint carries a prefetched plan, the blocking
        order's does not; either resumes under the other topology to the
        records of the uninterrupted serial run."""
        path = tmp_path / "writer.ckpt.json"
        with Session.from_config(_config(**writer)) as session:
            session.run(2)
            state = session.state_dict()
            assert (state["algorithm"]["pending_plan"] is not None) == (
                writer is WINDOW
            )
            session.save_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["config"].update(reader)
        path.write_text(json.dumps(payload))
        with Session.load_checkpoint(path) as resumed:
            assert resumed.components.executor.name == reader["executor"]
            resumed.run()
            candidate = _records(resumed)
        _assert_same_run(candidate, _run(_config(**BLOCKING)))

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_an_in_process_executor_resumes_bit_exact(self, tmp_path, executor):
        """An executor without the window runs the blocking order -- even
        spelled ``pipeline="pipelined"``: nothing is prefetched, and a mid-run
        checkpoint resumes to the uninterrupted run."""
        config = _config(executor=executor, pipeline="pipelined")
        path = tmp_path / "blocking.ckpt.json"
        with Session.from_config(config) as session:
            session.run(1)
            assert session.state_dict()["algorithm"]["pending_plan"] is None
            session.save_checkpoint(path)
        with Session.load_checkpoint(path) as resumed:
            resumed.run()
            candidate = _records(resumed)
        _assert_same_run(candidate, _run(config))

    @pytest.mark.parametrize("knobs", [
        dict(dropout_rate=0.3, over_select_factor=1.5,
             rejoin_staleness_bound=2, min_cohort_fraction=0.5),
        dict(num_workers=40, population_candidates=8,
             dropout_rate=0.3, over_select_factor=1.5,
             rejoin_staleness_bound=2),
        dict(split_policy="adaptive", **MULTI_DEPTH),
        dict(split_policy="profile", **MULTI_DEPTH),
    ], ids=["elastic", "candidates-elastic", "adaptive-split", "profile-split"])
    def test_aggregate_window_composes_with_the_round_knobs(self, knobs):
        """The window accounts the round and plans the next one *before*
        the aggregate folds churn, rejoins and deltas in; under every knob
        that hooks into that window the records still equal the blocking
        order's."""
        window, depths = _run_recording_depths(_config(**WINDOW, **knobs))
        _assert_same_run(window, _run(_config(**BLOCKING, **knobs)))
        if "split_policy" in knobs:
            # The split rows run multi-depth rounds, not one global cut.
            assert len(depths) >= 2

    def test_drain_is_noop_for_serial_sessions(self):
        with Session.from_config(_config(executor="serial")) as session:
            session.run(1)
            session.algorithm.drain()  # must not raise


def test_prefetched_plan_round_trips_through_json():
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


def _failed_then_full_round(executor) -> list:
    """A round whose top update raises inside the window, a drain, then a
    whole round: the bottom states that round aggregates."""
    workers, bottom = _make_workers(), _bottom()
    scheduler = PipelineScheduler()
    try:
        ops = _split_ops(executor, workers, bottom)

        def failing(features, labels):
            raise RuntimeError("top update failed")

        ops.update_top = failing
        with pytest.raises(RuntimeError, match="top update failed"):
            scheduler.run_split_round(ops, 2, False)
        executor.drain()
        collected: list = []
        ops = _split_ops(executor, workers, bottom)
        ops.aggregate = collected.extend
        scheduler.run_split_round(ops, 2, False)
        return collected
    finally:
        executor.close()


class TestProcessExecutorPipelineProtocol:
    def test_the_window_is_a_property_of_the_class(self):
        assert ProcessExecutor.supports_async_dispatch is True
        assert SerialExecutor.supports_async_dispatch is False
        assert BatchedExecutor.supports_async_dispatch is False

    def test_a_round_that_fails_inside_the_window_leaves_a_usable_executor(self):
        """The failed round drew its first batches and left the child's
        forward waiting for a backward; after a drain the next window round
        trains to the states the serial executor reaches through the same
        two rounds."""
        states = _failed_then_full_round(ProcessExecutor(processes=1))
        reference = _failed_then_full_round(SerialExecutor())
        assert len(states) == len(reference) == 2
        for got, want in zip(states, reference):
            assert set(got) == set(want)
            assert all(np.array_equal(got[key], want[key]) for key in want)

    def test_collect_without_launch_raises(self):
        executor = ProcessExecutor(processes=1)
        try:
            with pytest.raises(RuntimeError, match="no forward request in flight"):
                executor.collect_forward(_make_workers())
            with pytest.raises(RuntimeError, match="no states request in flight"):
                executor.collect_states(_make_workers())
        finally:
            executor.close()

    def test_drain_discards_abandoned_forward(self):
        """Draining right after a round failed between launch and collect
        consumes the orphaned features reply, so checkpointing still works
        and the executor stays usable."""
        workers = _make_workers()
        bottom = _bottom()
        executor = ProcessExecutor(processes=1, capacity=1 << 20)
        try:
            executor.install(workers, bottom, [0.1, 0.1])
            executor.launch_forward(workers, [8, 8])
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
            features, __ = executor.forward(workers, [8, 8])
            executor.request_states(workers)              # reply pending
            executor.backward_step(workers, [0.1 * f for f in features], wait=False)
            executor.collect_states(workers)
            assert executor._children[0].dirty            # backward unacked
            executor.drain()
            assert not executor._children[0].dirty
        finally:
            executor.close()

    def test_the_first_forward_acknowledges_an_unwaited_install(self):
        """The window sends its install without waiting for it; the next
        forward's reply proves the child processed it, so the channel is
        clean again without a ping."""
        workers = _make_workers()
        executor = ProcessExecutor(processes=1)
        try:
            executor.install(workers, _bottom(), [0.1, 0.1], wait=False)
            assert executor._children[0].dirty
            executor.forward(workers, [8, 8])
            assert not executor._children[0].dirty
        finally:
            executor.close()

    @pytest.mark.parametrize("capacity", [None, 4096], ids=["default-ring", "4KiB-ring"])
    def test_drain_discards_an_abandoned_state_request(self, capacity):
        """A round that failed inside the window -- after the states were
        requested, before they were collected -- leaves their reply queued;
        draining consumes it and the next round's replies pair correctly,
        also when the states overflow a 4 KiB ring into the pipe."""
        workers = _make_workers()
        bottom = _bottom()
        executor = ProcessExecutor(processes=1, capacity=capacity)
        try:
            executor.install(workers, bottom, [0.1, 0.1], wait=False)
            features, __ = executor.forward(workers, [8, 8])
            executor.backward_step(workers, [0.1 * f for f in features], wait=False)
            executor.request_states(workers)
            executor.drain()
            assert not executor._completions
            assert not executor._children[0].dirty
            executor.install(workers, bottom, [0.1, 0.1])
            features, __ = executor.forward(workers, [8, 8])
            assert features[0].shape == (8, 16)
            assert len(executor.bottom_states(workers)) == 2
            assert (executor.overflow_bytes() > 0) == (capacity is not None)
        finally:
            executor.close()

    def test_drain_syncs_nowait_backward(self):
        workers = _make_workers()
        bottom = _bottom()
        executor = ProcessExecutor(processes=2)
        try:
            executor.install(workers, bottom, [0.1, 0.1])
            features, __ = executor.forward(workers, [8, 8])
            executor.backward_step(workers, [0.1 * f for f in features], wait=False)
            executor.drain()  # pings the dirty children
            states = executor.bottom_states(workers)
            assert len(states) == 2
        finally:
            executor.close()
