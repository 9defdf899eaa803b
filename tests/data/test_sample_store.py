"""The sample store: float32 in memory, float64 at every read.

Every :class:`~repro.data.dataset.Dataset` stores its samples as float32,
and :meth:`~repro.data.dataset.Dataset.gather` is the one read of sample
values: it returns float64 rows.  A read that bypassed it would still run,
on float32 columns cast inside every matmul, and move no golden; the first
layer's input dtype, recorded on every executor, is what shows it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api.registry import DATASETS
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core.server import EVAL_CHUNK_ROWS, evaluate_classifier
from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader, draw_cohort
from repro.data.synthetic import make_blobs, make_dataset
from repro.nn.layers.linear import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_mlp
from repro.nn.module import Module, Sequential
from repro.parallel import kernels


@pytest.mark.parametrize("name", sorted(DATASETS.names()))
def test_every_registered_dataset_stores_float32(name):
    split = make_dataset(name, train_samples=6, test_samples=3, seed=2)
    assert split.train.data.dtype == np.float32
    assert split.test.data.dtype == np.float32


def test_a_dataset_built_from_float64_stores_float32():
    values = np.random.default_rng(0).normal(size=(5, 3))
    dataset = Dataset(values, np.arange(5) % 2, num_classes=2)
    assert dataset.data.dtype == np.float32
    assert np.array_equal(dataset.data, values.astype(np.float32))


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 5)])
def test_gather_is_the_float64_cast_of_the_stored_rows(shape):
    dataset = make_dataset("cifar10", train_samples=40, test_samples=2, seed=4).train
    rows = np.random.default_rng(1).integers(0, len(dataset), size=shape)
    gathered = dataset.gather(rows)
    assert gathered.dtype == np.float64
    assert gathered.shape == shape + dataset.feature_shape
    assert gathered.tobytes() == dataset.data[rows].astype(np.float64).tobytes()


def test_gather_takes_the_batched_executors_stacked_rows():
    """``(forwards, workers, batch)`` rows of a stacked cohort."""
    source = make_blobs(train_samples=60, test_samples=2, seed=5).train
    loaders = [
        BatchLoader(source.subset(np.arange(start, start + 20)), seed=start)
        for start in (0, 20, 40)
    ]
    rows = draw_cohort(loaders, 6, 4)
    assert rows.shape == (4, 3, 6)
    gathered = source.gather(rows)
    assert gathered.dtype == np.float64
    assert gathered.tobytes() == source.data[rows].astype(np.float64).tobytes()


def test_a_loader_batch_is_the_gather_of_its_rows():
    source = make_blobs(train_samples=40, test_samples=2, seed=6).train
    shard = source.subset(np.arange(10, 30))
    data, targets = BatchLoader(shard, seed=3).next_batch(8)
    rows = BatchLoader(shard, seed=3).next_indices(8)
    assert data.dtype == np.float64
    assert data.tobytes() == source.gather(rows).tobytes()
    assert np.array_equal(targets, source.targets[rows])


# -- what the first layer sees -----------------------------------------------

#: Input width and output width of the blobs MLP's first layer.
FIRST_LAYER = (32, 64)


@pytest.fixture
def first_layer_log(tmp_path, monkeypatch):
    """Record ``(pid, training, dtype)`` of every input the blobs MLP's first
    layer sees, serial or stacked, in this process or a forked child.

    The log is a file, so a process executor's children write to it too.
    """
    path = tmp_path / "first_layer.log"
    path.touch()

    def record(training: bool, inputs: np.ndarray) -> None:
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {int(training)} {inputs.dtype}\n")

    serial_forward = Linear.forward
    stacked_forward = kernels.BatchedLinear.forward

    def linear_forward(self, inputs):
        if (self.in_features, self.out_features) == FIRST_LAYER:
            record(self.training, inputs)
        return serial_forward(self, inputs)

    def batched_linear_forward(self, inputs):
        __, out_features, in_features = self.weight.data.shape
        if (in_features, out_features) == FIRST_LAYER:
            record(True, inputs)
        return stacked_forward(self, inputs)

    monkeypatch.setattr(Linear, "forward", linear_forward)
    monkeypatch.setattr(kernels.BatchedLinear, "forward", batched_linear_forward)

    def read() -> list[tuple[int, bool, str]]:
        return [
            (int(pid), training == "1", dtype)
            for pid, training, dtype in (
                line.split() for line in path.read_text().splitlines()
            )
        ]

    return read


EXECUTOR_VARIANTS = {
    "serial": ("serial", {}),
    "batched": ("batched", {}),
    # Fork, so the children run the recording layer.
    "process": ("process", {"executor_processes": 2,
                            "executor_start_method": "fork"}),
}


@pytest.mark.parametrize("algorithm", ["mergesfl", "fedavg"])
@pytest.mark.parametrize("variant", sorted(EXECUTOR_VARIANTS))
def test_the_first_layer_sees_float64_on_every_executor(
    first_layer_log, variant, algorithm
):
    """The split forward (``mergesfl``), ``train_full`` (``fedavg``) and the
    evaluation after each round all feed the first layer float64 rows."""
    executor, extras = EXECUTOR_VARIANTS[variant]
    config = ExperimentConfig(
        algorithm=algorithm, dataset="blobs", model="mlp", num_workers=3,
        num_rounds=1, local_iterations=2, train_samples=90, test_samples=20,
        executor=executor, extras=extras, seed=8,
    )
    with Session.from_config(config) as session:
        session.run()
    log = first_layer_log()
    training = [(pid, dtype) for pid, is_training, dtype in log if is_training]
    evaluation = [(pid, dtype) for pid, is_training, dtype in log if not is_training]
    assert training and evaluation
    assert {dtype for __, dtype in training + evaluation} == {"float64"}
    if executor == "process":
        assert {pid for pid, __ in training} - {os.getpid()}, "no child recorded"


class _RecordingIdentity(Module):
    """Passes its input on and keeps its dtype and row count."""

    def __init__(self, per_sample: bool) -> None:
        super().__init__()
        self.per_sample = per_sample
        self.seen: list[tuple[str, int]] = []

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self.seen.append((str(inputs.dtype), inputs.shape[0]))
        return inputs


@pytest.mark.parametrize("per_sample", [True, False], ids=["chunked", "whole"])
def test_evaluate_classifier_feeds_float64(per_sample):
    """Both the chunked per-sample prefix and a whole-batch first layer get
    float64 rows, in chunks of ``EVAL_CHUNK_ROWS`` and in batches."""
    test = make_blobs(train_samples=4, test_samples=37, seed=9).test
    first = _RecordingIdentity(per_sample)
    model = Sequential([first, *build_mlp(input_dim=32, num_classes=4, seed=1)])
    evaluate_classifier([model], CrossEntropyLoss(), test, batch_size=20)
    rows = (
        [EVAL_CHUNK_ROWS, 20 - EVAL_CHUNK_ROWS, EVAL_CHUNK_ROWS, 17 - EVAL_CHUNK_ROWS]
        if per_sample else [20, 17]
    )
    assert first.seen == [("float64", count) for count in rows]
