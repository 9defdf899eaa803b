"""One training array: a shard is rows of it, and every draw hands out rows.

A worker's shard holds source rows, not samples.  Its loader shuffles and
checkpoints shard positions and hands out the rows at them; every executor
gathers ``source.gather(rows)``, the bits a copied shard gave.  A
``tracemalloc`` bound on one ``conv_serial`` set-up pins that the session
holds the training set once.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core.worker import SplitWorker
from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader
from repro.data.synthetic import make_blobs
from repro.nn.models import build_mlp
from repro.nn.split import split_model
from repro.parallel import BatchedExecutor, SerialExecutor
from repro.utils.rng import new_rng


@pytest.fixture
def source() -> Dataset:
    return make_blobs(train_samples=120, test_samples=8, seed=4).train


def _scattered_rows(count: int, seed: int, size: int = 120) -> np.ndarray:
    """``count`` distinct, unsorted rows of a ``size``-sample source."""
    return new_rng(seed).permutation(size)[:count]


def test_loader_rows_map_through_the_shard(source):
    """The draws are ``shard.rows`` at the positions a loader over a
    same-sized dataset draws, and the checkpointed state is those positions."""
    shard = source.subset(_scattered_rows(23, seed=1))
    loader = BatchLoader(shard, seed=5)
    positions = BatchLoader(Dataset(np.zeros((23, 1)), np.zeros(23), 1), seed=5)
    for batch_size in (8, 8, 30, 5, 23, 11):
        rows = loader.next_indices(batch_size)
        assert np.array_equal(rows, shard.rows[positions.next_indices(batch_size)])
        state, expected = loader.state_dict(), positions.state_dict()
        assert state["rng"] == expected["rng"]
        assert state["cursor"] == expected["cursor"]
        assert np.array_equal(state["order"], expected["order"])


def test_drawn_rows_and_labels_are_the_sources(source):
    shard = source.subset(_scattered_rows(30, seed=2))
    by_rows, by_batch = (
        SplitWorker(0, shard, source.num_classes, seed=9) for __ in range(2)
    )
    for batch_size in (7, 16, 30):
        rows, labels = by_rows.draw_batch_indices(batch_size)
        data, batch_labels = by_batch.draw_batch(batch_size)
        assert np.array_equal(labels, source.targets[rows])
        assert np.array_equal(batch_labels, labels)
        assert data.tobytes() == source.gather(rows).tobytes()


def _workers(source) -> list[SplitWorker]:
    """Four workers on interleaved, reversed and scattered rows."""
    shards = [
        np.arange(0, 120, 4)[::-1], np.arange(1, 120, 3),
        _scattered_rows(9, seed=3), _scattered_rows(41, seed=4),
    ]
    return [
        SplitWorker(worker_id, source.subset(rows), source.num_classes,
                    seed=70 + worker_id, momentum=0.9)
        for worker_id, rows in enumerate(shards)
    ]


def _round(executor, source):
    """Three local iterations on ``executor``; every array it returned."""
    bottom = split_model(build_mlp(32, 4, hidden_dims=(16, 8), seed=1), 2).bottom
    workers = _workers(source)
    outputs = []
    executor.install(workers, bottom, [0.05] * len(workers))
    for __ in range(3):
        features, labels = executor.forward(workers, [8, 8, 5, 8])
        executor.backward_step(workers, [0.01 * f for f in features])
        outputs += [*features, *labels]
    for state in executor.bottom_states(workers):
        outputs += [state[key] for key in sorted(state)]
    return outputs


def test_batched_equals_serial_on_non_contiguous_shards(source):
    serial = _round(SerialExecutor(), source)
    batched = _round(BatchedExecutor(), source)
    assert len(serial) == len(batched)
    for ours, theirs in zip(batched, serial):
        assert ours.tobytes() == theirs.tobytes()


#: The ``conv_serial`` benchmark workload: AlexNet-S @0.4 on the CIFAR-10
#: analogue, 16 strongly non-IID workers, serial executor.
CONV_SERIAL = dict(
    algorithm="mergesfl", dataset="cifar10", model="alexnet_s", model_width=0.4,
    non_iid_level=10, num_workers=16, local_iterations=5, train_samples=1280,
    test_samples=160, learning_rate=0.08, max_batch_size=16, base_batch_size=8,
)


def test_a_conv_serial_set_up_holds_the_training_set_once():
    """Seed 7, after a warm-up set-up: peak 38.8 MB, 37.2 MB held.  The
    training array alone is 31.5 MB; with copied shards and a full-size
    noise temporary it was 68.9 and 68.7 MB."""
    config = ExperimentConfig(**CONV_SERIAL, seed=7, num_rounds=2)
    Session.from_config(config).close()
    tracemalloc.start()
    try:
        session = Session.from_config(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    session.close()
    assert peak <= 45e6, f"peak {peak / 1e6:.1f} MB"
    assert held <= 42e6, f"held {held / 1e6:.1f} MB"
