"""What a split round holds between a worker's forward and its backward.

A worker's bottom forwards at the merge barrier, so its convolutions keep
their inputs, not im2col columns, its max-pools their window hits, not the
activations they pooled, and its forward state goes as soon as it has taken
its local step -- on every executor path: the serial loop, the
process children (probed in the child), and the
batched executor's serial fallback for conv models.  Copies whose backward follows their
forward at once -- an FL local copy, a server bridge -- keep their columns.
A ``tracemalloc`` budget on one ``conv_serial`` round pins the effect.
A second one, on a ``fleet_mlp`` round, pins that the batched executor's
stacked cohort holds each parameter once: no copied states, and no
gradients or optimizer past the last local step.
"""

from __future__ import annotations

import multiprocessing
import os
import tracemalloc

import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core import worker
from repro.core.server import SplitServer
from repro.nn.layers import Conv1d, Conv2d, Flatten, Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.parallel.batched import BatchedExecutor
from repro.utils.rng import new_rng


def _config(**overrides) -> ExperimentConfig:
    params = dict(
        algorithm="mergesfl", dataset="cifar10", model="alexnet_s",
        model_width=0.25, num_workers=4, num_rounds=2, local_iterations=2,
        max_batch_size=8, base_batch_size=4, train_samples=128,
        test_samples=32, seed=3, extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _holders(module: Module) -> list[str]:
    """Layers reachable from ``module`` (nested ones included) that hold
    forward state."""
    names = [type(module).__name__] if module._forward_state is not None else []
    for value in vars(module).values():
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, Module):
                names += _holders(child)
    return names


def _marked(model: Sequential) -> bool:
    convs = [layer for layer in model.layers if isinstance(layer, (Conv1d, Conv2d))]
    return bool(convs) and not any(layer.keeps_columns for layer in convs)


@pytest.fixture
def stepped_bottoms(tmp_path, monkeypatch):
    """Probe every worker-side local step; returns a reader of the probes.

    Workers and executor children share ``local_step``, and a forked child
    inherits the probe.  Each probe appends ``pid holders marked`` to a
    file, so probes that run in executor children are seen by this process
    too.
    """
    log = tmp_path / "probes.txt"
    step = worker.local_step

    def probed_step(model, *args):
        step(model, *args)
        holders = ",".join(_holders(model)) or "-"
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {holders} {_marked(model)}\n")

    monkeypatch.setattr(worker, "local_step", probed_step)

    def read() -> list[tuple[str, str, str]]:
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    return read


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the child probe is inherited through fork",
)


@pytest.mark.parametrize("overrides,in_child", [
    pytest.param(dict(executor="serial"), False, id="serial"),
    pytest.param(dict(executor="serial", dataset="har", model="cnn_h"), False,
                 id="serial-conv1d"),
    pytest.param(dict(executor="process"), True, id="process", marks=needs_fork),
    pytest.param(dict(executor="batched"), False, id="batched-fallback"),
])
def test_a_stepped_worker_bottom_holds_no_forward_state(
    stepped_bottoms, overrides, in_child
):
    with Session.from_config(_config(**overrides)) as session:
        session.run()
    probes = stepped_bottoms()
    assert probes
    pids = {int(pid) for pid, __, __ in probes}
    assert (os.getpid() not in pids) if in_child else (pids == {os.getpid()})
    assert all(holders == "-" for __, holders, __ in probes), probes
    assert all(marked == "True" for __, __, marked in probes), probes


def _record_kept_columns(monkeypatch) -> list[bool]:
    """Whether each ``Conv2d.backward`` found the columns of its forward."""
    kept: list[bool] = []
    backward = Conv2d.backward

    def probed(self, grad_output):
        kept.append(self._forward_state[1] is not None)
        return backward(self, grad_output)

    monkeypatch.setattr(Conv2d, "backward", probed)
    return kept


def test_an_fl_local_copy_keeps_its_columns(monkeypatch):
    kept = _record_kept_columns(monkeypatch)
    with Session.from_config(_config(algorithm="fedavg", executor="serial")) as session:
        session.step()
    assert kept and all(kept)


def test_a_server_bridge_keeps_its_columns(monkeypatch):
    rng = new_rng(5)
    bottom = Sequential([
        Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(),
        Conv2d(4, 4, 3, padding=1, rng=rng), Flatten(),
    ])
    server = SplitServer(bottom, Sequential([Linear(4 * 6 * 6, 3, rng=rng)]), 0.1)
    server.install_bridges({1})
    kept = _record_kept_columns(monkeypatch)
    server.update_top_merged(
        [0], [rng.normal(size=(5, 4, 6, 6))], [rng.integers(0, 3, size=5)],
        depths={0: 1},
    )
    assert kept == [True]


#: The ``conv_serial`` benchmark workload: AlexNet-S @0.4 on the CIFAR-10
#: analogue, 16 strongly non-IID workers, serial executor.
CONV_SERIAL = dict(
    algorithm="mergesfl", dataset="cifar10", model="alexnet_s", model_width=0.4,
    non_iid_level=10, num_workers=16, local_iterations=5, train_samples=1280,
    test_samples=160, learning_rate=0.08, max_batch_size=16, base_batch_size=8,
)


def test_a_conv_serial_round_allocates_activations_not_columns():
    """Round 1 at seed 7 peaks at 16.6 MB and keeps 2.0 MB once it returns.
    With every max-pool keeping the activation it pooled instead of its
    window hits, it peaked at 25.5 MB; with every bottom keeping its columns
    to the end of the round and evaluation keeping the whole model's, it
    was 166.9 and 78.4 MB."""
    config = ExperimentConfig(**CONV_SERIAL, seed=7, num_rounds=2)
    with Session.from_config(config) as session:
        session.step()
        tracemalloc.start()
        try:
            session.step()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 21e6, f"peak {peak / 1e6:.1f} MB"
    assert retained <= 10e6, f"retained {retained / 1e6:.1f} MB"


#: The ``fleet_mlp`` benchmark workload: 1000 blobs/MLP workers, ~550 of
#: them selected per round and stacked by the batched executor.
FLEET_MLP = dict(
    algorithm="mergesfl", dataset="blobs", model="mlp", non_iid_level=5,
    num_workers=1000, local_iterations=5, train_samples=20000,
    test_samples=200, learning_rate=0.05, max_batch_size=16,
    base_batch_size=8,
)


def test_a_fleet_round_holds_one_stacked_cohort(monkeypatch):
    """Round 1 at seed 7 peaks at 33.6 MB while the cohort iterates, its
    aggregation at 28.0 MB, and it keeps 9.9 MB once it returns.  When
    every collected state was a copy, and the stacked gradients and
    all-zero momentum buffers lived to the end of the round, the iterations
    peaked at 43.2 MB, the aggregation at 58.2 MB, and the round kept
    30.4 MB.  (MB above the round start.)"""
    peaks: dict[str, int] = {}
    bottom_states = BatchedExecutor.bottom_states
    aggregate = SplitServer.aggregate_bottoms

    def read_peak(stage: str) -> None:
        peaks[stage] = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()

    def probed_states(self, workers):
        read_peak("iterations")
        return bottom_states(self, workers)

    def probed_aggregate(self, *args, **kwargs):
        aggregate(self, *args, **kwargs)
        read_peak("aggregation")

    config = ExperimentConfig(**FLEET_MLP, seed=7, num_rounds=2)
    with Session.from_config(config) as session:
        assert isinstance(session.algorithm.executor, BatchedExecutor)
        session.step()
        monkeypatch.setattr(BatchedExecutor, "bottom_states", probed_states)
        monkeypatch.setattr(SplitServer, "aggregate_bottoms", probed_aggregate)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            session.step()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    peak = max(peak - start, *peaks.values())
    retained -= start
    assert peak <= 42e6, f"peak {peak / 1e6:.1f} MB"
    assert peaks["aggregation"] < peaks["iterations"], peaks
    assert retained <= 16e6, f"retained {retained / 1e6:.1f} MB"
