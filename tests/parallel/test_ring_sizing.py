"""The process executor fits its shared-memory rings to a round's traffic.

Every ring page is resident in both processes of a channel, so each ring
costs its size twice; a ring sized for the largest message a round can
carry is a fraction of the fixed 16 MiB it replaces.  A ring that is too
small costs speed, never numbers: what misses it is pickled through the
pipe and counted by ``ProcessExecutor.overflow_bytes``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.parallel.transport import DEFAULT_RING_CAPACITY

#: AlexNet-S @0.4 on 16 workers over two children: the benchmark's process
#: topology, for three rounds.
CONV_PROCESS = dict(
    algorithm="mergesfl", dataset="cifar10", model="alexnet_s",
    model_width=0.4, non_iid_level=10, num_workers=16, local_iterations=5,
    train_samples=1280, test_samples=160, learning_rate=0.08,
    max_batch_size=16, base_batch_size=8, executor="process",
    seed=3, num_rounds=3,
    extras={"executor_processes": 2},
)


def _run(**overrides):
    """``(records, ring capacity, overflowed bytes)`` of a whole run."""
    config = ExperimentConfig(**{**CONV_PROCESS, **overrides})
    with Session.from_config(config) as session:
        records = session.run().records
        executor = session.algorithm.executor
        capacity = executor._transport.capacity
    return [dataclasses.asdict(r) for r in records], capacity, executor.overflow_bytes()


@pytest.fixture(scope="module")
def fitted():
    return _run()


def test_a_conv_process_round_fits_a_1_mib_ring(fitted):
    """The largest message is one child's bottom states: 8 workers x 55 KB,
    doubled and rounded up -- 1/16 of the unfitted ring."""
    __, capacity, overflow = fitted
    assert capacity == 1 << 20 == DEFAULT_RING_CAPACITY // 16
    assert overflow == 0


def test_a_4_kib_ring_overflows_into_the_pipe_with_the_same_records(fitted):
    records, __, __ = fitted
    tiny, capacity, overflow = _run(
        extras={"executor_processes": 2, "transport_capacity": 4096})
    assert capacity == 4096
    assert overflow > 0
    assert tiny == records


def test_the_fl_engine_fits_its_rings_to_the_full_model_states():
    """``train_full`` replies carry the whole model per worker."""
    __, capacity, overflow = _run(
        algorithm="fedavg", num_workers=8, train_samples=320, num_rounds=2,
        local_iterations=1)
    # 4 workers a child x 153 KB of AlexNet-S @0.4, doubled: 2 MiB.
    assert capacity == 1 << 21
    assert overflow == 0


def test_the_split_engine_installs_with_each_workers_load():
    """A worker's load is its batch times one sample's forward FLOPs at its
    cut: what the process executor's placement balances."""
    config = ExperimentConfig(
        dataset="blobs", model="mlp", num_workers=6, num_rounds=1,
        train_samples=240, test_samples=40, seed=4,
    )
    with Session.from_config(config) as session:
        engine = session.algorithm
        executor = engine.executor
        seen = {}
        install, forward = executor.install, executor.forward

        def spy_install(workers, bottom, lrs, depths=None, wait=True, loads=None,
                        iterations=None):
            seen["install"] = (depths, loads)
            return install(workers, bottom, lrs, depths, wait, loads=loads,
                           iterations=iterations)

        def spy_forward(workers, batch_sizes):
            seen.setdefault("batches", list(batch_sizes))
            return forward(workers, batch_sizes)

        executor.install, executor.forward = spy_install, spy_forward
        session.step()
    depths, loads = seen["install"]
    flops = engine._depth_flops
    assert loads == [b * flops[d] for b, d in zip(seen["batches"], depths)]
    assert len(set(loads)) > 1  # regulated batches differ
