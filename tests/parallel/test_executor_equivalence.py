"""Cross-executor equivalence: serial, batched and process runs are bit-exact.

The executors are pure execution backends -- for a fixed seed, every
algorithm must produce *bit-identical* history records and final weights no
matter which backend carried out the per-worker compute.  These tests pin
that contract for every engine code path:

* ``mergesfl`` -- feature merging + regulated (heterogeneous) batch sizes,
  which exercises the batched executor's shape grouping;
* ``splitfed`` -- aggregation after every local iteration (re-install path,
  where the aggregate window gives way to the blocking order);
* ``fedavg`` -- the FL engine's ``train_full`` path;
* a convolutional model -- the stacked im2col/einsum kernels;
* a normalised model -- the stacked BatchNorm kernels;
* ``process`` on one or two children, and on rings too small for a
  round's arrays -- the ring framing, the pipe overflow and the aggregate
  window.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS

EXECUTORS = ("serial", "batched", "process")

#: Executor variants that must match serial: ``(executor, extras)`` by id.
VARIANTS = {
    "batched": ("batched", {}),
    "process": ("process", {"executor_processes": 2}),
    "process/1-child": ("process", {"executor_processes": 1}),
}


def _run(config: ExperimentConfig, overflow: list | None = None):
    """Run a session to completion; return (history records, final weights).

    ``overflow`` receives the process executor's overflowed bytes."""
    with Session.from_config(config) as session:
        history = session.run()
        if overflow is not None:
            overflow.append(session.components.executor.overflow_bytes())
        return history.records, session.global_model().state_dict()


_REFERENCES: dict[str, tuple] = {}


def _serial_reference(algorithm: str):
    """The serial/sync run of an algorithm, computed once per test session."""
    if algorithm not in _REFERENCES:
        _REFERENCES[algorithm] = _run(_config("serial", algorithm))
    return _REFERENCES[algorithm]


def _assert_bit_equal(reference, candidate, label: str) -> None:
    # Wire-traffic fields measure the execution topology, not the training
    # trajectory, so cross-executor/transport comparisons strip them.
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


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_executors_bit_exact(algorithm, variant):
    executor, extras = VARIANTS[variant]
    reference = _serial_reference(algorithm)
    candidate = _run(_config(executor, algorithm, extras=extras))
    _assert_bit_equal(reference, candidate, f"{algorithm}/{variant}")


@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_an_overflowing_ring_is_bit_exact(algorithm):
    """``transport_capacity=4096`` rings cannot hold a round's states (and
    FedAvg's models): those arrays cross pickled beside their control
    message, under the aggregate window, and the run still equals serial."""
    overflow: list = []
    candidate = _run(_config(
        "process", algorithm,
        extras={"executor_processes": 2, "transport_capacity": 4096},
    ), overflow)
    assert overflow[0] > 0
    _assert_bit_equal(
        _serial_reference(algorithm), candidate, f"{algorithm}/process/4KiB-ring"
    )


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_neutral_churn_knobs_bit_exact(algorithm, executor):
    """Churn knobs that cannot fire while nobody drops, straggles or is
    over-selected (a rejoin bound, a full quorum) leave the exact protocol
    untouched on every backend: every record column matches."""
    reference = _serial_reference(algorithm)
    candidate = _run(_config(
        executor, algorithm, rejoin_staleness_bound=2, min_cohort_fraction=1.0,
    ))
    _assert_bit_equal(
        reference, candidate, f"{algorithm}/{executor}/neutral-churn-knobs"
    )


def test_batched_matches_serial_on_conv_model():
    overrides = dict(
        dataset="har",
        model="cnn_h",
        model_width=0.3,
        num_workers=4,
        num_rounds=2,
        local_iterations=2,
        train_samples=160,
        test_samples=40,
    )
    reference = _run(_config("serial", "mergesfl", **overrides))
    candidate = _run(_config("batched", "mergesfl", **overrides))
    _assert_bit_equal(reference, candidate, "mergesfl/cnn_h/batched")


def test_batched_matches_serial_with_dropout_in_full_model():
    """FedAvg on AlexNet-S: the full model contains Dropout, whose per-worker
    RNG cloning the batched kernels must reproduce exactly."""
    overrides = dict(
        dataset="cifar10",
        model="alexnet_s",
        model_width=0.25,
        num_workers=3,
        num_rounds=2,
        local_iterations=2,
        max_batch_size=8,
        base_batch_size=4,
        train_samples=96,
        test_samples=32,
    )
    reference = _run(_config("serial", "fedavg", **overrides))
    candidate = _run(_config("batched", "fedavg", **overrides))
    _assert_bit_equal(reference, candidate, "fedavg/alexnet_s/batched")


def test_batched_matches_serial_on_normalised_model(norm_mlp_model):
    """A bottom/top with BatchNorm1d runs through the stacked BatchNorm
    kernels (no serial fallback) and still matches serial bit for bit."""
    overrides = dict(model=norm_mlp_model, num_rounds=2)
    reference = _run(_config("serial", "mergesfl", **overrides))
    candidate = _run(_config("batched", "mergesfl", **overrides))
    _assert_bit_equal(reference, candidate, "mergesfl/norm_mlp/batched")


@pytest.fixture
def norm_mlp_model():
    """A registered MLP with BatchNorm on both sides of the split."""
    import numpy as np_

    from repro.api.registry import MODELS, register_model
    from repro.nn.layers import BatchNorm1d, Linear, ReLU
    from repro.nn.module import Sequential
    from repro.utils.rng import spawn_rngs

    name = "mlp_bn_test"

    # BatchNorm's gamma/beta count as a weighted layer, so the cut after the
    # 2nd weighted layer lands past [Linear, BatchNorm1d, ReLU]: the bottom
    # trained on workers contains the normalisation.
    @register_model(name, input_kind="vector", split_after_weighted=2)
    def build(input_dim, num_classes, seed=None):
        rngs = spawn_rngs(seed if seed is not None else 0, 3)
        return Sequential([
            Linear(input_dim, 24, rng=rngs[0]),
            BatchNorm1d(24),
            ReLU(),
            Linear(24, 16, rng=rngs[1]),
            BatchNorm1d(16),
            ReLU(),
            Linear(16, num_classes, rng=rngs[2]),
        ])

    yield name
    MODELS.unregister(name)


@pytest.mark.parametrize("algorithm,forwards", [("splitfed", 1), ("mergesfl", 3)])
def test_batched_draws_each_install_once(algorithm, forwards, monkeypatch):
    """The split engine tells the executor how many forwards follow an
    install: ``local_iterations``, or 1 under SplitFed's per-iteration
    re-install (``aggregate_every_iteration``).  The batched run that draws
    them at once still equals serial, record for record."""
    from repro.parallel.batched import BatchedExecutor

    seen = []
    install = BatchedExecutor.install

    def spy(self, *args, iterations=None, **kwargs):
        seen.append(iterations)
        return install(self, *args, iterations=iterations, **kwargs)

    monkeypatch.setattr(BatchedExecutor, "install", spy)
    candidate = _run(_config("batched", algorithm))
    assert seen and set(seen) == {forwards}
    _assert_bit_equal(
        _serial_reference(algorithm), candidate, f"{algorithm}/batched/drawn"
    )


def test_batched_checkpoint_resume_matches_serial(tmp_path):
    """Executor choice is checkpoint-safe: a batched run checkpointed after
    one round and resumed finishes bit-identically to a straight serial run."""
    path = tmp_path / "batched.ckpt.json"
    with Session.from_config(_config("batched", "mergesfl")) as session:
        session.run(1)
        session.save_checkpoint(path)
    with Session.load_checkpoint(path) as resumed:
        assert resumed.config.executor == "batched"
        resumed.run()
        candidate = (resumed.history.records, resumed.global_model().state_dict())
    reference = _run(_config("serial", "mergesfl"))
    _assert_bit_equal(reference, candidate, "checkpoint-resume/batched")


def test_executor_name_validated():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown executor"):
        _config("warp-drive", "mergesfl")


def test_executor_listed_in_registry():
    from repro.api.registry import EXECUTORS as registry

    assert {"serial", "batched", "process"} <= set(registry.names())
